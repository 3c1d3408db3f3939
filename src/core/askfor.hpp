// The Askfor monitor (paper §3.3, after Lusk & Overbeek [LO83]).
//
// "The most general concept for concurrent code segments ... provides a
// means of work distribution in cases where the degree of concurrency is
// not known at compile time. Rather, the program can request during run
// time that a new concurrent instance of the code segment is executed."
//
// AskforCore is the monitor: task records plus the bookkeeping needed to
// distinguish "no work right now, but a working process may still put()
// more" (wait) from "no work and nobody working" (done). Askfor<T> is the
// typed façade with the canonical worker loop.
//
// The monitor is written once for the thread and os-fork backends: its
// whole state - the drained/probend latch, counters, grant tallies, the
// generation stamp, a fixed-capacity central ring of task records and the
// per-member steal deques - is construct site state, and its lock comes
// from new_lock(). Records are the task's own bytes, so a granted task is
// copied out to the worker. Idle askers park on a WaitWord in that state.
//
// Dispatch has two engines, selected by the machine capability
// (MachineSpec::hardware_atomic_rmw, via ForceEnvironment):
//
//   * Lock-only machines run the Argonne monitor shape unchanged: one
//     generic lock around the central ring. Every operation is one lock
//     pass, exactly as the 1989 expansion - and exactly as the seed of
//     this repo, so LockCounters totals for these machines are unchanged.
//
//   * Hardware-RMW machines add a lock-free fast path: one bounded
//     Chase-Lev deque per worker (owner pops LIFO, thieves steal FIFO)
//     plus a single packed pending/working counter for termination
//     detection. The monitor lock survives as the slow path - seeding
//     from unregistered threads, deque overflow, probend, and the final
//     "computation drained" latch all still go through it.
//
// probend() aborts the whole computation early (e.g. when a search finds
// its answer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <type_traits>

#include "core/env.hpp"
#include "machdep/backend.hpp"
#include "machdep/locks.hpp"
#include "machdep/stealdeque.hpp"
#include "util/check.hpp"

namespace force::core {

class AskforCore {
 public:
  /// Tasks one site's central ring holds: a put() beyond this many queued,
  /// ungranted tasks is a checked error naming the site.
  static constexpr std::uint32_t kRingCapacity = 16384;

  /// The monitor at site `key` for task records of `task_bytes` bytes. An
  /// empty key makes an anonymous monitor that shares no state.
  AskforCore(ForceEnvironment& env, std::size_t task_bytes,
             const std::string& key = "");
  ~AskforCore();

  AskforCore(const AskforCore&) = delete;
  AskforCore& operator=(const AskforCore&) = delete;

  enum class Outcome {
    kWork,  ///< a task was granted; caller must complete() afterwards
    kDone   ///< the computation is over (drained or probend)
  };

  /// Registers the calling thread as a worker for the fast path: binds it
  /// to one of the per-worker steal deques for the guard's lifetime, so
  /// its put() calls go to its own deque and its ask() calls pop LIFO
  /// before stealing. Purely an optimization - threads without a slot
  /// (seeders, oversubscribed teams, lock-only machines) fall back to the
  /// central ring and stealing, with identical semantics.
  class WorkerSlot {
   public:
    explicit WorkerSlot(AskforCore& core);
    ~WorkerSlot();
    WorkerSlot(const WorkerSlot&) = delete;
    WorkerSlot& operator=(const WorkerSlot&) = delete;
    [[nodiscard]] int slot() const { return slot_; }

   private:
    AskforCore& core_;
    int slot_;
    const void* saved_core_;
    int saved_slot_;
  };

  /// Adds a task record (callable from inside a granted task).
  void put(const void* task);

  /// Blocks until work is available or the computation completes; on
  /// kWork the granted record has been copied into `task`.
  Outcome ask(void* task);

  /// Reports that the task most recently granted to this process has
  /// been fully processed (its put() calls, if any, already made).
  void complete();

  /// complete() for the current task fused with ask() for the next one.
  /// Semantically identical to the two calls in sequence; on the fast path
  /// the common case (next task from the caller's own deque) collapses the
  /// two inflight-counter updates into a single atomic subtract. On the
  /// lock engine it IS the two calls - same monitor passes as the seed.
  Outcome next(void* task);

  /// Ends the computation immediately; subsequent and pending ask()s
  /// return kDone. Idempotent.
  void probend();

  /// Re-arms the monitor for force-entry generation `gen`: a pooled team
  /// re-enters the same force (and so the same construct sites) many
  /// times, and the drained/probend latch must reset per entry. Leftover
  /// tasks of an aborted episode are discarded. No-op once the monitor
  /// has seen `gen`; must only run at episode boundaries (no worker
  /// inside ask()/complete()).
  void rearm_for(std::uint32_t gen);

  [[nodiscard]] bool ended() const;
  [[nodiscard]] std::size_t granted() const;

  /// True when this monitor runs the work-stealing fast path.
  [[nodiscard]] bool lock_free() const { return nslots_ > 0; }

 private:
  friend class WorkerSlot;
  struct Shared;
  struct Slot;

  [[nodiscard]] int current_slot() const;
  int grab_slot();
  void release_slot(int slot);
  [[nodiscard]] machdep::StealDeque::Cells cells(int slot) const;
  [[nodiscard]] machdep::RecordWord* ring_cell(std::uint32_t index) const;
  /// One monitor pass queueing `task` on the central ring (or dropping it
  /// after a probend); a full ring is a checked error naming the site.
  void put_central(const void* task);
  bool ring_pop(void* task);
  [[nodiscard]] bool worth_asking() const;
  void grant_fast(int slot);
  Outcome ask_fast(void* task);
  Outcome ask_locked(void* task);

  ForceEnvironment& env_;
  std::string site_;
  std::string label_;  ///< "askfor '<site>'", for waits and diagnostics
  std::size_t bytes_;  ///< bytes of one task record
  int nslots_;         ///< steal deques; 0 on the lock engine
  std::unique_ptr<machdep::BasicLock> monitor_;
  // Views into this site's state (site state "askfor/<site>"): the shared
  // header, nslots_ slots, the ring's cells, then the deques' cells.
  Shared* shared_;
  Slot* slots_;
  machdep::RecordWord* ring_;
  machdep::RecordWord* deque_cells_;
};

/// Typed askfor: runs the canonical worker loop. Every process of the
/// force calls work() with the same site-shared instance; any process may
/// seed() or put() tasks.
///
/// A trivially copyable T travels as its own bytes - through the monitor's
/// site state on threads and os-fork, through a coordinator monitor under
/// cluster - so the worker body receives a reference to a process-local
/// *copy* of the granted task: mutations do not write back. Any other T
/// (thread backend only) is kept in a process-local store and travels as
/// its index; the store is released when a new force entry first puts.
template <typename T>
class Askfor {
  static constexpr bool kByValue = std::is_trivially_copyable_v<T>;
  using Record = std::conditional_t<kByValue, T, std::size_t>;

 public:
  explicit Askfor(ForceEnvironment& env, const std::string& key = "")
      : env_(&env) {
    const std::string site = key.empty() ? env.anonymous_site_key() : key;
    if constexpr (kByValue) {
      ring_ = env.backend().make_askfor_ring(site, sizeof(T));
    } else {
      // Backends that cannot memcpy tasks across reject here.
      env.require(machdep::Capability::kNonTrivialPayloads,
                  "Askfor task type", site);
      store_ = std::make_unique<Store>();
    }
    if (ring_ == nullptr) {
      core_ = std::make_unique<AskforCore>(env, sizeof(Record), site);
    }
  }

  /// Adds a task; thread-safe, callable before or during work().
  void put(T task) {
    maybe_rearm();
    if (ring_ != nullptr) return ring_->put(&task);
    if constexpr (kByValue) {
      core_->put(&task);
    } else {
      const std::size_t index = keep(std::move(task));
      core_->put(&index);
    }
  }

  /// The worker loop: repeatedly asks for work and runs
  /// `body(task, *this)`; the body may put() new tasks and may probend().
  /// Returns the number of tasks this process executed.
  std::size_t work(const std::function<void(T&, Askfor<T>&)>& body) {
    maybe_rearm();
    // Register with the dispatch fast path for the duration of the loop
    // (no-op on lock-only machines).
    std::optional<AskforCore::WorkerSlot> worker;
    if (core_ != nullptr) worker.emplace(*core_);
    // Raw storage instead of T{}: the grant copy fully initializes it,
    // and T need not be default constructible.
    alignas(Record) unsigned char record[sizeof(Record)];
    std::size_t executed = 0;
    for (bool more = ask(record); more; more = next(record)) {
      try {
        body(task_at(record), *this);
      } catch (...) {
        complete();
        throw;
      }
      ++executed;
    }
    return executed;
  }

  /// Aborts the computation (e.g. a search hit).
  void probend() {
    maybe_rearm();
    if (ring_ != nullptr) return ring_->probend();
    core_->probend();
  }

  [[nodiscard]] bool ended() const {
    if (ring_ != nullptr) return ring_->ended();
    return core_->ended();
  }
  [[nodiscard]] std::size_t granted() const {
    if (ring_ != nullptr) {
      return static_cast<std::size_t>(ring_->granted());
    }
    return core_->granted();
  }

 private:
  /// Pooled teams re-enter the same force over long-lived construct sites:
  /// the first put/work/probend of a new force entry resets the previous
  /// entry's drained/probend latch. (The cluster monitor is born fresh
  /// with each team.)
  void maybe_rearm() {
    if (core_ != nullptr) core_->rearm_for(env_->run_generation());
  }

  bool ask(void* record) {
    if (ring_ != nullptr) return ring_->ask(record);
    return core_->ask(record) == AskforCore::Outcome::kWork;
  }

  /// Completes the current task and asks for the next one.
  bool next(void* record) {
    if (ring_ != nullptr) {
      ring_->complete();
      return ring_->ask(record);
    }
    return core_->next(record) == AskforCore::Outcome::kWork;
  }

  void complete() {
    if (ring_ != nullptr) return ring_->complete();
    core_->complete();
  }

  T& task_at(unsigned char* record) {
    if constexpr (kByValue) {
      return *std::launder(reinterpret_cast<T*>(record));
    } else {
      std::size_t index = 0;
      std::memcpy(&index, record, sizeof index);
      std::lock_guard<std::mutex> g(store_->guard);
      return store_->tasks[index];
    }
  }

  /// Stores a non-trivially-copyable task; returns its index. The first
  /// put of a new force entry releases the last entry's tasks: the re-arm
  /// that entry's first operation ran discarded every index into them.
  std::size_t keep(T&& task) {
    std::lock_guard<std::mutex> g(store_->guard);
    const std::uint32_t gen = env_->run_generation();
    if (gen != store_->generation) {
      store_->tasks.clear();
      store_->generation = gen;
    }
    store_->tasks.push_back(std::move(task));
    return store_->tasks.size() - 1;
  }

  /// The process-local store of non-trivially-copyable tasks (thread
  /// backend only). INVARIANT: within a force entry `tasks` only grows
  /// (push_back on a std::deque never relocates elements), so a reference
  /// obtained from tasks[index] stays valid for the task's whole
  /// execution even while other threads put() concurrently.
  struct Store {
    std::mutex guard;
    std::deque<T> tasks;
    std::uint32_t generation = 0;
  };

  ForceEnvironment* env_;
  std::unique_ptr<AskforCore> core_;  // thread and os-fork
  /// Backend monitor engine (cluster); null elsewhere.
  std::unique_ptr<machdep::AskforRing> ring_;
  std::unique_ptr<Store> store_;  // non-trivially-copyable T only
};

}  // namespace force::core
