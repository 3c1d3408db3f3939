// Asynchronous variables: Produce / Consume / Copy / Void / Isfull
// (paper §3.2, §3.4, §4.2).
//
// An async variable carries a full/empty state with its value:
//   Produce - waits for empty, writes, leaves full;
//   Consume - waits for full, reads, leaves empty;
//   Copy    - waits for full, reads, leaves full;
//   Void    - forces the state to empty regardless of its previous state;
//   Isfull  - tests the state.
//
// Two implementations, selected by the machine model:
//
//   * the generic two-lock scheme from §4.2, used on every machine except
//     the HEP: locks E and F, where empty == (E locked, F unlocked) and
//     full == (F locked, E unlocked).
//         Produce: Lock F;  write;  Unlock E.
//         Consume: Lock E;  read;   Unlock F.
//     Note the cross-thread unlock: this is why Force locks are binary
//     semaphores, not mutexes.
//
//   * the HEP hardware path: one tagged memory cell. Payloads of at most
//     one word are stored *in* the cell (bit-cast), exactly as on the real
//     machine; wider payloads sit beside the cell and are moved inside its
//     busy window.
//
// Both are built only from the machine-dependent layer: the cell, the Isfull
// flag and the payload live in site state keyed by the variable's label, and
// the locks come from the environment under labels derived from it. So the
// same code runs under threads and os-fork, where the site state sits in the
// MAP_SHARED arena and the locks are process-shared. Only the cluster
// backend, which has no shared memory, keeps its cells on the coordinator.
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/env.hpp"
#include "core/sentry.hpp"
#include "machdep/backend.hpp"
#include "machdep/hepcell.hpp"
#include "machdep/locks.hpp"
#include "util/check.hpp"

namespace force::core {

template <typename T>
class Async {
  static_assert(std::is_default_constructible_v<T>,
                "async payloads must be default constructible");

  /// True when the payload fits inside one HEP tagged cell.
  static constexpr bool kInCell =
      std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(std::uint64_t);

 public:
  /// Creates the variable in the *empty* state (like Void at startup).
  /// `key` names the variable in sentry reports and keys its shared state
  /// and locks, so it must be unique to the variable; an empty key makes
  /// an anonymous variable.
  explicit Async(ForceEnvironment& env, const std::string& key = "")
      : env_(&env),
        sentry_(env.sentry()),
        label_(env.site_key_or_anonymous(key)) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      // The cluster engine keeps the cell on the coordinator; the payload
      // crosses by memcpy.
      engine_ = env.backend().make_async_cell(label_, sizeof(T), alignof(T));
      if (engine_ != nullptr) return;
      state_ = &env.site_state<State>("async/" + label_);
    } else {
      // Thread-only (the capability table rejects it elsewhere), so the
      // state may stay process-owned.
      env.require(machdep::Capability::kNonTrivialPayloads, "Async payload",
                  label_);
      owned_ = std::make_unique<State>();
      state_ = owned_.get();
    }
    hardware_ = env.machine().spec().hardware_full_empty;
    if (!hardware_) {
      // empty: E locked, F unlocked
      lock_e_ = env.new_lock(machdep::LockRole::kSemaphore, label_ + ".E",
                             /*held=*/true);
      lock_f_ = env.new_lock(machdep::LockRole::kSemaphore, label_ + ".F");
      void_guard_ = env.new_lock(machdep::LockRole::kMutex, label_ + ".void");
    }
  }

  Async(const Async&) = delete;
  Async& operator=(const Async&) = delete;

  /// Waits for empty, writes `v`, leaves full.
  void produce(const T& v) {
    env_->stats().produces.fetch_add(1, std::memory_order_relaxed);
    if (engine_ != nullptr) return engine_->produce(&v);
    if constexpr (kInCell) {
      if (in_cell()) return state_->cell.produce(encode(v));
    }
    take(/*want_full=*/false, Sentry::WaitKind::kProduce);
    write(v);
    leave(/*full=*/true);
  }

  /// Waits for full, reads, leaves empty.
  T consume() {
    env_->stats().consumes.fetch_add(1, std::memory_order_relaxed);
    T v{};
    if (engine_ != nullptr) {
      engine_->consume(&v);
      return v;
    }
    if constexpr (kInCell) {
      if (in_cell()) return decode(state_->cell.consume());
    }
    take(/*want_full=*/true, Sentry::WaitKind::kConsume);
    v = read("Consume");
    leave(/*full=*/false);
    return v;
  }

  /// Waits for full, reads, leaves full (the Force Copy access). On the
  /// two-lock scheme a concurrent producer cannot interleave: it needs F,
  /// which stays locked throughout.
  T copy() {
    T v{};
    if (engine_ != nullptr) {
      engine_->copy(&v);
      return v;
    }
    if constexpr (kInCell) {
      if (in_cell()) return decode(state_->cell.copy());
    }
    take(/*want_full=*/true, Sentry::WaitKind::kConsume);
    v = read("Copy");
    leave(/*full=*/true);
    return v;
  }

  /// Non-blocking produce; true on success.
  bool try_produce(const T& v) {
    bool ok = false;
    if (engine_ != nullptr) {
      ok = engine_->try_produce(&v);
    } else if (in_cell()) {
      if constexpr (kInCell) ok = state_->cell.try_produce(encode(v));
    } else if (try_take(/*want_full=*/false)) {
      write(v);
      leave(/*full=*/true);
      ok = true;
    }
    if (ok) env_->stats().produces.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }

  /// Non-blocking consume; true on success.
  bool try_consume(T* out) {
    FORCE_CHECK(out != nullptr, "try_consume needs an output slot");
    bool ok = false;
    if (engine_ != nullptr) {
      ok = engine_->try_consume(out);
    } else if (in_cell()) {
      if constexpr (kInCell) {
        std::uint64_t bits = 0;
        ok = state_->cell.try_consume(&bits);
        if (ok) *out = decode(bits);
      }
    } else if (try_take(/*want_full=*/true)) {
      *out = read("Consume");
      leave(/*full=*/false);
      ok = true;
    }
    if (ok) env_->stats().consumes.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }

  /// Forces the state to empty regardless of the previous state (Void).
  /// Concurrent Voids are serialized; a Void that overlaps an in-flight
  /// Produce may land before or after it, as on the original machines.
  void void_state() {
    if (engine_ != nullptr) return engine_->void_state();
    // Void gives no exclusion window over the payload, so the sentry only
    // joins clocks (channel_sync), it does not record a payload access.
    if (hardware_) {
      if (sentry_ != nullptr) sentry_->channel_sync(this);
      state_->cell.make_empty();
      return;
    }
    void_guard_->acquire();
    if (sentry_ != nullptr) sentry_->channel_sync(this);
    if (state_->full.load(std::memory_order_acquire)) {
      lock_e_->acquire();  // consume the token without reading the value
      leave(/*full=*/false);
    }
    void_guard_->release();
  }

  /// Tests the state (Force's Isfull). Inherently a snapshot.
  [[nodiscard]] bool is_full() const {
    // Backends without the isfull capability throw the uniform capability
    // diagnostic from inside their engine.
    if (engine_ != nullptr) return engine_->is_full();
    if (hardware_) return state_->cell.is_full();
    return state_->full.load(std::memory_order_acquire);
  }

  /// True if this variable uses the HEP tagged-cell path.
  [[nodiscard]] bool uses_hardware_path() const { return hardware_; }
  /// True if the payload lives inside the tagged cell itself.
  [[nodiscard]] static constexpr bool payload_in_cell() { return kInCell; }

 private:
  /// The variable's shared state; all-zero bytes are an empty variable.
  struct State {
    machdep::HepCell cell;          // HEP: the tagged cell
    std::atomic<bool> full{false};  // two-lock scheme: the Isfull flag
    T value{};  // two-lock payload, or a HEP payload kept beside the cell
  };

  /// True when a one-word payload travels inside the HEP cell itself. The
  /// sentry keeps it beside the cell so its hooks sit in the busy window.
  [[nodiscard]] bool in_cell() const {
    return kInCell && hardware_ && sentry_ == nullptr;
  }

  /// Waits for the full (`want_full`) or empty state and takes the
  /// variable's exclusive window: the HEP busy state, or lock E / lock F.
  void take(bool want_full, Sentry::WaitKind kind) {
    if (sentry_ == nullptr) return wait_for(want_full);
    Sentry::WaitScope ws(sentry_, kind, this, label_);
    wait_for(want_full);
  }
  void wait_for(bool want_full) {
    if (hardware_) {
      want_full ? state_->cell.seize_full() : state_->cell.seize_empty();
    } else {
      (want_full ? lock_e_ : lock_f_)->acquire();
    }
  }
  bool try_take(bool want_full) {
    if (hardware_) {
      return want_full ? state_->cell.try_seize_full()
                       : state_->cell.try_seize_empty();
    }
    return (want_full ? lock_e_ : lock_f_)->try_acquire();
  }

  /// Ends the window, leaving the variable full or empty.
  void leave(bool full) {
    if (hardware_) {
      full ? state_->cell.publish_full() : state_->cell.publish_empty();
      return;
    }
    state_->full.store(full, std::memory_order_release);
    (full ? lock_e_ : lock_f_)->release();
  }

  /// Payload moves inside the window, bracketed by the sentry's channel
  /// hooks when it is on.
  void write(const T& v) {
    if (sentry_ != nullptr) sentry_->channel_enter(this, true, "Produce");
    state_->value = v;
    if (sentry_ != nullptr) sentry_->channel_exit(this);
  }
  T read(const char* op) {
    if (sentry_ != nullptr) sentry_->channel_enter(this, false, op);
    T v = state_->value;
    if (sentry_ != nullptr) sentry_->channel_exit(this);
    return v;
  }

  static std::uint64_t encode(const T& v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    return bits;
  }
  static T decode(std::uint64_t bits) {
    T v{};
    std::memcpy(&v, &bits, sizeof(T));
    return v;
  }

  ForceEnvironment* env_;
  Sentry* sentry_;  // null when validation is off (the usual case)
  std::string label_;
  bool hardware_ = false;
  /// Cluster only: the coordinator's cell. Null elsewhere, where the
  /// members below are used.
  std::unique_ptr<machdep::AsyncCell> engine_;
  State* state_ = nullptr;  // site state, or owned_ for non-trivial T
  std::unique_ptr<State> owned_;
  // Two-lock scheme only:
  std::unique_ptr<machdep::BasicLock> lock_e_;
  std::unique_ptr<machdep::BasicLock> lock_f_;
  std::unique_ptr<machdep::BasicLock> void_guard_;
};

/// A fixed-size array of async variables (Force `Async real A(n)`), e.g.
/// for pipelined wavefront algorithms where element (i) being full means
/// row i is ready. Also the stress subject of the lock-scarcity bench.
/// Element i is keyed "<key>(i)"; an empty key makes an anonymous array.
template <typename T>
class AsyncArray {
 public:
  AsyncArray(ForceEnvironment& env, std::size_t n,
             const std::string& key = "") {
    const std::string label = env.site_key_or_anonymous(key);
    slots_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      slots_.push_back(std::make_unique<Async<T>>(
          env, label + "(" + std::to_string(i) + ")"));
    }
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  Async<T>& operator[](std::size_t i) {
    FORCE_CHECK(i < slots_.size(), "async array index out of range");
    return *slots_[i];
  }

 private:
  std::vector<std::unique_ptr<Async<T>>> slots_;
};

}  // namespace force::core
