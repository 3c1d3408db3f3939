#include "core/doall.hpp"

#include "core/env.hpp"
#include "core/sentry.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"
#include "util/trace.hpp"

namespace force::core {

std::int64_t loop_trip_count(std::int64_t start, std::int64_t last,
                             std::int64_t incr) {
  FORCE_CHECK(incr != 0, "DO loop increment must be nonzero");
  if (incr > 0) {
    if (start > last) return 0;
    return (last - start) / incr + 1;
  }
  if (start < last) return 0;
  return (start - last) / (-incr) + 1;
}

void presched_do(int me0, int np, std::int64_t start, std::int64_t last,
                 std::int64_t incr,
                 const std::function<void(std::int64_t)>& body) {
  FORCE_CHECK(np > 0 && me0 >= 0 && me0 < np, "bad presched process id");
  const std::int64_t trips = loop_trip_count(start, last, incr);
  // Cyclic deal: process me0 takes trips me0, me0+np, me0+2np, ...
  for (std::int64_t t = me0; t < trips; t += np) {
    body(start + t * incr);
  }
}

void presched_do2(int me0, int np, std::int64_t i_start, std::int64_t i_last,
                  std::int64_t i_incr, std::int64_t j_start,
                  std::int64_t j_last, std::int64_t j_incr,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  FORCE_CHECK(np > 0 && me0 >= 0 && me0 < np, "bad presched process id");
  const std::int64_t i_trips = loop_trip_count(i_start, i_last, i_incr);
  const std::int64_t j_trips = loop_trip_count(j_start, j_last, j_incr);
  const std::int64_t total = i_trips * j_trips;
  for (std::int64_t t = me0; t < total; t += np) {
    const std::int64_t i_idx = t / j_trips;
    const std::int64_t j_idx = t % j_trips;
    body(i_start + i_idx * i_incr, j_start + j_idx * j_incr);
  }
}

// ---------------------------------------------------------------------------
// SelfschedLoop - the paper's macro expansion, object-ified.
//
//   entry:  lock(BARWIN); if first arriver, initialize the dispatch
//           counter; report arrival; the LAST arriver unlocks BARWOT
//           (exits may now drain), every other arriver unlocks BARWIN
//           (the next process may enter).
//   body:   claim trips from the DispatchCounter - one fetch-add on
//           hardware-RMW machines, one generic-lock pass (the paper's
//           lock(LOOP); K = K_shared; K_shared = K + INCR; unlock(LOOP))
//           on lock-only machines. If the claim is nonempty, execute and
//           repeat; otherwise fall through.
//   exit:   lock(BARWOT); report departure; the LAST process out unlocks
//           BARWIN (the loop may be re-entered), every other unlocks
//           BARWOT. There is deliberately NO exit barrier: a process
//           leaves as soon as it draws an exhausted claim.
// ---------------------------------------------------------------------------

SelfschedLoop::SelfschedLoop(ForceEnvironment& env, int width,
                             const std::string& key)
    : env_(env), width_(width) {
  FORCE_CHECK(width_ > 0, "selfsched loop width must be positive");
  const std::string site = env.site_key_or_anonymous(key);
  site_ = env.backend().make_doall_site(site, width_);
  if (site_ != nullptr) return;
  shared_ = &env.site_state<Shared>("doall/" + site);
  barwin_ = env.new_lock(machdep::LockRole::kSemaphore, "doall.barwin@" + site);
  // Exits blocked until all have entered the episode.
  barwot_ = env.new_lock(machdep::LockRole::kSemaphore, "doall.barwot@" + site,
                         /*held=*/true);
  dispatch_ =
      env.new_dispatch_counter(&shared_->dispatch, "doall.dispatch@" + site);
}

bool SelfschedLoop::enter_episode(std::int64_t start, std::int64_t last,
                                  std::int64_t incr, std::int64_t& trips) {
  if (site_ != nullptr) {
    // Champion episode barrier on the coordinator: the last arriver
    // publishes the bounds and re-arms the dispatch while every other
    // process is provably parked on the episode entry, then releases
    // them. No process can be inside the claim loop of the *previous*
    // episode at that moment, because it would not have arrived here yet -
    // so there is still no exit barrier, exactly as in the gate protocol.
    const machdep::DoallBounds b =
        site_->enter(start, last, incr, loop_trip_count(start, last, incr));
    trips = b.trips;
    return last == b.last && incr == b.incr;
  }
  Shared& sh = *shared_;
  bool ok = true;
  barwin_->acquire();
  if (sh.zznbar == 0) {
    sh.last = last;
    sh.incr = incr;
    sh.trips = loop_trip_count(start, last, incr);
    // Gate-guarded single-writer reset; the BARWIN release publishes it.
    dispatch_->reset(0);
  } else {
    // SPMD discipline: every process must reach this site with the same
    // bounds. A divergent call would silently corrupt the distribution on
    // a real Force; here it is detected - but the arrival must still be
    // counted and the gates released, or the compliant processes would be
    // wedged in the exit protocol forever.
    ok = (last == sh.last && incr == sh.incr);
  }
  trips = sh.trips;
  ++sh.zznbar;
  if (sh.zznbar == width_) {
    barwot_->release();
  } else {
    barwin_->release();
  }
  return ok;
}

void SelfschedLoop::leave_episode() {
  // Re-entry is fenced by the engine's entry barrier on the cluster.
  if (site_ != nullptr) return;
  barwot_->acquire();
  --shared_->zznbar;
  if (shared_->zznbar == 0) {
    barwin_->release();
  } else {
    barwot_->release();
  }
}

template <typename Claim>
void SelfschedLoop::run_episode(int me0, std::int64_t start, std::int64_t last,
                                std::int64_t incr,
                                const std::function<void(std::int64_t)>& body,
                                const Claim& claim) {
  FORCE_CHECK(me0 >= 0 && me0 < width_, "bad selfsched process id");
  std::int64_t trips = 0;
  const bool spmd_ok = enter_episode(start, last, incr, trips);
  // Departure must be reported even if the body throws, or the loop could
  // never be re-entered by the remaining processes.
  struct Departure {
    SelfschedLoop* loop;
    ~Departure() { loop->leave_episode(); }
  } departure{this};
  FORCE_CHECK(spmd_ok, "selfsched DO reached with divergent loop bounds");
  util::Tracer* tracer = env_.tracer();
  const std::int64_t trace_begin = tracer ? util::now_ns() : 0;
  // Stats are tallied per process and flushed once per episode: two shared
  // fetch-adds per *claim* would serialize the processes on the stats
  // cache lines and swamp the lock-free dispatch itself. Flushed from the
  // departure guard so a throwing body still reports its progress.
  struct EpisodeStats {
    RuntimeStats& stats;
    std::uint64_t dispatches = 0;
    std::uint64_t iterations = 0;
    ~EpisodeStats() {
      stats.doall_dispatches.fetch_add(dispatches, std::memory_order_relaxed);
      stats.doall_iterations.fetch_add(iterations, std::memory_order_relaxed);
    }
  } tally{env_.stats()};
  // Bounds are episode-stable (SPMD-checked above), so the hot loop works
  // from the call arguments; trips was fixed by the first arriver.
  Sentry* sentry = env_.sentry();
  for (;;) {
    // The lock-free claim has no lock hook, so the fuzzer perturbs here.
    if (sentry != nullptr) sentry->fuzz();
    const machdep::DispatchClaim c = claim(trips);
    ++tally.dispatches;
    if (tracer) {
      tracer->instant(me0, util::TraceKind::kLoopDispatch,
                      start + c.begin * incr);
    }
    if (c.count == 0) break;
    for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
      body(start + t * incr);
      ++tally.iterations;
    }
  }
  if (tracer) {
    tracer->record(me0, util::TraceKind::kLoopRun, trace_begin,
                   util::now_ns());
  }
}

void SelfschedLoop::run(int me0, std::int64_t start, std::int64_t last,
                        std::int64_t incr,
                        const std::function<void(std::int64_t)>& body,
                        std::int64_t chunk) {
  FORCE_CHECK(chunk >= 1, "chunk must be >= 1");
  run_episode(me0, start, last, incr, body, [this, chunk](std::int64_t trips) {
    return site_ != nullptr ? site_->claim(chunk, trips)
                            : dispatch_->claim(chunk, trips);
  });
}

void SelfschedLoop::run_guided(int me0, std::int64_t start, std::int64_t last,
                               std::int64_t incr,
                               const std::function<void(std::int64_t)>& body) {
  // Guided selfscheduling: claim a fraction of the remaining trips so
  // early claims are big (low dispatch overhead) and late claims small
  // (good load balance at the tail). On the lock-free engine this is a
  // CAS loop on the remaining-trips value.
  run_episode(me0, start, last, incr, body, [this](std::int64_t trips) {
    return site_ != nullptr ? site_->claim_fraction(trips, 2 * width_)
                            : dispatch_->claim_fraction(trips, 2 * width_);
  });
}

Selfsched2Loop::Selfsched2Loop(ForceEnvironment& env, int width,
                               const std::string& key)
    : flat_(env, width, key) {}

void Selfsched2Loop::run(
    int me0, std::int64_t i_start, std::int64_t i_last, std::int64_t i_incr,
    std::int64_t j_start, std::int64_t j_last, std::int64_t j_incr,
    const std::function<void(std::int64_t, std::int64_t)>& body,
    std::int64_t chunk) {
  const std::int64_t i_trips = loop_trip_count(i_start, i_last, i_incr);
  const std::int64_t j_trips = loop_trip_count(j_start, j_last, j_incr);
  const std::int64_t total = i_trips * j_trips;
  // Dispatch over the flattened pair space; the body unflattens.
  flat_.run(
      me0, 0, total - 1, 1,
      [&](std::int64_t t) {
        const std::int64_t i_idx = t / j_trips;
        const std::int64_t j_idx = t % j_trips;
        body(i_start + i_idx * i_incr, j_start + j_idx * j_incr);
      },
      chunk);
}

}  // namespace force::core
