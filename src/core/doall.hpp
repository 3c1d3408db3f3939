// Work distribution: prescheduled and selfscheduled DO loops (paper §3.3,
// §4.2), in singly and doubly nested forms, plus chunked and guided
// selfscheduling extensions from the Force User's Manual lineage.
//
// * Presched DO is "completely machine independent, since only the number
//   of executing processes is needed": iteration k goes to process
//   k mod NP. It is a pure function of (me, np) - no shared state at all.
//
// * Selfsched DO keeps the paper's episode protocol exactly - an entry
//   gate built from two locks (BARWIN / BARWOT) and an arrival counter
//   (ZZNBAR) whose only job is to initialize the dispatch once per episode
//   and to keep the loop from being re-entered before every process has
//   left it. Faithfully to the paper, there is NO exit barrier: a process
//   leaves as soon as it draws an index beyond LAST.
//
//   The shared loop index itself now lives in a machdep::DispatchCounter:
//   on machines with hardware atomic RMW a claim is one fetch-add (guided:
//   one CAS) with no lock at all; on lock-only machines it is the paper's
//   lock-protected expansion, byte-for-byte in lock traffic - one generic
//   lock pass per claim.
//
//   The gates, the counter and the index are built "out of the lower level
//   only": locks from env.new_lock and shared variables from site state.
//   So the same code runs over machine locks under threads and over
//   process-shared locks and arena words under os-fork; only the cluster
//   backend, which has no shared memory, runs the loop as an engine.
//
// Iteration ranges follow Fortran DO semantics: start/last/incr with
// positive or negative increments; an empty range executes nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/barrier.hpp"
#include "machdep/backend.hpp"
#include "machdep/locks.hpp"

namespace force::core {

class ForceEnvironment;

/// Trip count of DO start,last,incr (Fortran semantics; 0 if empty).
std::int64_t loop_trip_count(std::int64_t start, std::int64_t last,
                             std::int64_t incr);

/// True if index `k` is within the loop range given the increment sign.
inline bool loop_index_in_range(std::int64_t k, std::int64_t last,
                                std::int64_t incr) {
  return (incr > 0 && k <= last) || (incr < 0 && k >= last);
}

/// Prescheduled 1D DO: process `me0` (0-based) of `np` executes iterations
/// start + (me0 + j*np)*incr. Machine independent by construction.
void presched_do(int me0, int np, std::int64_t start, std::int64_t last,
                 std::int64_t incr, const std::function<void(std::int64_t)>& body);

/// Prescheduled doubly nested DO over index pairs (i, j); the flattened
/// pair sequence is dealt cyclically, matching the "index pairs specify
/// concurrently executable streams" description.
void presched_do2(int me0, int np, std::int64_t i_start, std::int64_t i_last,
                  std::int64_t i_incr, std::int64_t j_start,
                  std::int64_t j_last, std::int64_t j_incr,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// One selfscheduled loop site: the paper's expansion, object-ified.
/// Reusable (protected against re-entry) and usable from any SPMD team of
/// `width` processes.
class SelfschedLoop {
 public:
  /// `key` is the construct's stable site key: the loop's shared state
  /// and gate locks are keyed by it, so every process that reaches the
  /// site meets the same state on every backend. An empty key makes an
  /// anonymous loop whose state no other loop shares.
  SelfschedLoop(ForceEnvironment& env, int width, const std::string& key = "");

  /// Executes the loop body for dynamically claimed indices. `chunk` > 1
  /// claims several consecutive indices per critical section (chunked
  /// selfscheduling); `guided` claims ceil(remaining / (2*np)) at a time.
  void run(int me0, std::int64_t start, std::int64_t last, std::int64_t incr,
           const std::function<void(std::int64_t)>& body,
           std::int64_t chunk = 1);
  void run_guided(int me0, std::int64_t start, std::int64_t last,
                  std::int64_t incr,
                  const std::function<void(std::int64_t)>& body);

  [[nodiscard]] int width() const { return width_; }

 private:
  /// The paper's shared environment variables for this loop site, in
  /// site state (all-zero is a fresh site). The dispatch word gets its own
  /// cache line so hot claims never false-share with the gate fields.
  struct Shared {
    /// The asynchronous loop index, counted in *trips claimed* (0-based)
    /// rather than raw index values so claims clamp at the trip count and
    /// can never overflow, and so chunked/guided/2D all share one engine.
    alignas(64) std::atomic<std::int64_t> dispatch;
    alignas(64) int zznbar;  // arrival counter, guarded by the gates
    std::int64_t trips;      // trip count of the current episode
    std::int64_t last;       // bounds of the current episode
    std::int64_t incr;
  };

  /// Returns the episode's trip count in `trips`, and false on an SPMD
  /// violation (divergent bounds); the arrival is still counted so the
  /// other processes are not wedged - the caller completes the departure
  /// protocol and then reports the error.
  [[nodiscard]] bool enter_episode(std::int64_t start, std::int64_t last,
                                   std::int64_t incr, std::int64_t& trips);
  void leave_episode();
  /// The claim loop shared by run() and run_guided(); `claim(trips)`
  /// draws the next DispatchClaim.
  template <typename Claim>
  void run_episode(int me0, std::int64_t start, std::int64_t last,
                   std::int64_t incr,
                   const std::function<void(std::int64_t)>& body,
                   const Claim& claim);

  ForceEnvironment& env_;
  int width_;

  // Cluster only: the whole episode protocol as a coordinator engine (an
  // entry barrier whose champion publishes the bounds and re-arms the
  // dispatch, then a claim loop); faithful to the paper there is still no
  // exit barrier. Null elsewhere, where the members below are used.
  std::unique_ptr<machdep::DoallSite> site_;

  Shared* shared_ = nullptr;
  std::unique_ptr<machdep::BasicLock> barwin_;  // entry gate
  std::unique_ptr<machdep::BasicLock> barwot_;  // exit gate (starts held)
  std::unique_ptr<machdep::DispatchCounter> dispatch_;  // shared_->dispatch
};

/// Selfscheduled doubly nested DO: one shared dispatch over the flattened
/// pair space, then unflattened to (i, j) for the body.
class Selfsched2Loop {
 public:
  Selfsched2Loop(ForceEnvironment& env, int width,
                 const std::string& key = "");

  void run(int me0, std::int64_t i_start, std::int64_t i_last,
           std::int64_t i_incr, std::int64_t j_start, std::int64_t j_last,
           std::int64_t j_incr,
           const std::function<void(std::int64_t, std::int64_t)>& body,
           std::int64_t chunk = 1);

 private:
  SelfschedLoop flat_;
};

}  // namespace force::core
