// Reductions over the force (extension; construction per paper §4.2).
//
// The Force's own reduction idiom is "private partial + critical section
// + barrier", spelled out in every numerical program. This header packages
// that idiom as a construct, in the two shapes the machine-independent
// layer can build from the low-level primitives:
//
//   * kCritical  - every process adds its contribution under one lock,
//                  then a barrier publishes the result (O(P) serialized
//                  lock passes: the faithful Force idiom);
//   * kTournament - pairwise combining over per-process slots along the
//                  tree-barrier schedule (O(log P) depth, no locks).
//
// Both return the reduced value to every process (allreduce semantics),
// and both are reusable across episodes. The ablation bench (E2b in
// EXPERIMENTS.md) contrasts their traffic.
//
// The accumulator, kTournament's per-process slots and its broadcast word
// live in site state and the lock and barrier come from the environment,
// so both strategies run unchanged under threads and os-fork. Only the
// cluster backend, which has no shared memory, reduces through a
// coordinator engine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/barrier.hpp"
#include "core/critical.hpp"
#include "core/env.hpp"
#include "machdep/backend.hpp"
#include "machdep/waitword.hpp"

namespace force::core {

enum class ReduceStrategy {
  kCritical,   ///< lock-serialized accumulation (the Force idiom)
  kTournament  ///< pairwise combining tree (log-depth extension)
};

/// Shared state of one reduction site for payload T.
/// T must be copyable; `combine` must be associative and commutative
/// (contributions arrive in no particular order).
template <typename T>
class Reduction {
 public:
  /// `key` is the construct's stable site key: the accumulator, its lock
  /// and its barrier are keyed by it, so every process that reaches the
  /// site meets the same state on every backend. An empty key makes an
  /// anonymous site.
  Reduction(ForceEnvironment& env, int width, const std::string& key = "")
      : width_(width) {
    const std::string site = env.site_key_or_anonymous(key);
    label_ = "reduce '" + site + "'";
    if constexpr (std::is_trivially_copyable_v<T>) {
      // The cluster engine runs the faithful critical idiom on the
      // coordinator; the payload crosses by memcpy.
      engine_ = env.backend().make_reduction_site(site, width_, sizeof(T),
                                                  alignof(T));
      if (engine_ != nullptr) return;
      state_ = &env.site_state<State>("reduce/" + site,
                                      static_cast<std::size_t>(width), slots_);
    } else {
      // Thread-only (the capability table rejects it elsewhere), so the
      // state may stay process-owned.
      env.require(machdep::Capability::kNonTrivialPayloads,
                  "Reduction payload", key);
      owned_ = std::make_unique<State>();
      owned_slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(width));
      state_ = owned_.get();
      slots_ = owned_slots_.get();
    }
    critical_ = std::make_unique<CriticalSection>(env, "reduce@" + site);
    barrier_ = env.make_site_barrier(width, "reduce@" + site);
  }

  /// Contributes `local` and returns the combined value of all width
  /// contributions of this episode. Every process of the team must call
  /// (SPMD); the identity element is the first contribution itself, so no
  /// identity value is needed.
  T allreduce(int me0, const T& local, const std::function<T(T, T)>& combine,
              ReduceStrategy strategy, T* shared_target = nullptr) {
    FORCE_CHECK(me0 >= 0 && me0 < width_, "bad reduce process id");
    if (engine_ != nullptr) {
      const machdep::ReductionSite::Combine fold =
          [&combine](void* acc, const void* contribution) {
            T* a = static_cast<T*>(acc);
            *a = combine(*a, *static_cast<const T*>(contribution));
          };
      // Raw storage: the engine's result memcpy fully initializes it.
      alignas(T) unsigned char raw[sizeof(T)];
      engine_->allreduce(me0, &local, raw, shared_target, fold);
      return *reinterpret_cast<T*>(raw);
    }
    if (strategy == ReduceStrategy::kTournament) {
      return allreduce_tournament(me0, local, combine, shared_target);
    }
    return allreduce_critical(me0, local, combine, shared_target);
  }

 private:
  /// The site's shared variables; all-zero is a fresh site (the
  /// accumulator and result are written before they are read).
  struct State {
    T accumulator{};
    T result{};
    int arrived = 0;              // guarded by critical_
    machdep::WaitWord broadcast;  // kTournament's result stamp
  };
  /// kTournament's per-process slot, one cache line each.
  struct alignas(64) Slot {
    T value{};
    std::uint32_t episode = 0;
    machdep::WaitWord combined;
  };

  T allreduce_critical(int me0, const T& local,
                       const std::function<T(T, T)>& combine,
                       T* shared_target) {
    State& st = *state_;
    critical_->enter([&] {
      if (st.arrived == 0) {
        st.accumulator = local;
      } else {
        st.accumulator = combine(st.accumulator, local);
      }
      ++st.arrived;
    });
    // The barrier section snapshots the total and re-arms the episode
    // while every process is parked - no second barrier needed. A shared
    // target is written here, by the single section executor, so the
    // store is race-free and visible to everyone leaving the barrier.
    barrier_->arrive(me0, [&st, shared_target] {
      st.result = st.accumulator;
      st.arrived = 0;
      if (shared_target != nullptr) *shared_target = st.result;
    });
    return st.result;
  }

  T allreduce_tournament(int me0, const T& local,
                         const std::function<T(T, T)>& combine,
                         T* shared_target) {
    Slot& mine = slots_[me0];
    mine.value = local;
    const std::uint32_t ep = ++mine.episode;
    // Combine along the same pairwise schedule as TreeBarrier: rank p
    // collects rank p + 2^r while p is a multiple of 2^(r+1).
    for (int r = 0; (1 << r) < width_; ++r) {
      const int span = 1 << (r + 1);
      if (me0 % span == 0) {
        const int child = me0 + (1 << r);
        if (child < width_) {
          Slot& theirs = slots_[child];
          // Wait for the child to have *fully combined its subtree* for
          // this episode: it bumps `combined` after losing round r.
          theirs.combined.wait_episode(ep, label_.c_str());
          mine.value = combine(mine.value, theirs.value);
        }
      } else {
        mine.combined.store(ep);
        break;
      }
    }
    if (me0 == 0) {
      mine.combined.store(ep);
      state_->result = mine.value;
      // Single-writer point: the champion holds the only complete value.
      if (shared_target != nullptr) *shared_target = state_->result;
      state_->broadcast.store(ep);
    } else {
      state_->broadcast.wait_episode(ep, label_.c_str());
    }
    // A trailing barrier keeps the episode reusable: nobody may overwrite
    // its slot while a parent could still read it.
    barrier_->arrive(me0);
    return state_->result;
  }

  int width_;
  std::string label_;  // the site a parked tournament process notes
  /// Cluster only: the coordinator's reduction engine. Null elsewhere,
  /// where the members below are used.
  std::unique_ptr<machdep::ReductionSite> engine_;
  State* state_ = nullptr;  // site state, or owned_ for non-trivial T
  Slot* slots_ = nullptr;   // after *state_, or owned_slots_
  std::unique_ptr<State> owned_;
  std::unique_ptr<Slot[]> owned_slots_;
  std::unique_ptr<CriticalSection> critical_;
  std::unique_ptr<BarrierAlgorithm> barrier_;
};

}  // namespace force::core
