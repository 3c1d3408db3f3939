// Tests for the capability-gated dispatch fast path: the DispatchCounter
// engines, the Chase-Lev StealDeque, and the lock-accounting contract -
// lock-only machine models keep routing every dispatch through
// MachineModel::new_lock() locks (one generic-lock pass per claim, visible
// in LockCounters), while hardware-RMW machines pay no lock at all.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/askfor.hpp"
#include "core/doall.hpp"
#include "core/env.hpp"
#include "machdep/machine.hpp"
#include "machdep/stealdeque.hpp"

namespace fc = force::core;
namespace fm = force::machdep;

namespace {

fc::ForceConfig test_config(int np, const std::string& machine = "native",
                            const std::string& dispatch = "auto") {
  fc::ForceConfig cfg;
  cfg.nproc = np;
  cfg.machine = machine;
  cfg.dispatch = dispatch;
  return cfg;
}

void on_team(int np, const std::function<void(int)>& fn) {
  std::vector<std::jthread> team;
  for (int t = 0; t < np; ++t) team.emplace_back([&fn, t] { fn(t); });
}

}  // namespace

// --- capability wiring -----------------------------------------------------------

TEST(DispatchCapability, MatchesTheMachineRegistry) {
  // The 1989 split: HEP, Flex/32, Multimax and Balance dispatch through
  // generic locks; Alliant FX/8, Cray-2 and native have hardware RMW.
  EXPECT_FALSE(fm::machine_spec("hep").hardware_atomic_rmw);
  EXPECT_FALSE(fm::machine_spec("flex32").hardware_atomic_rmw);
  EXPECT_FALSE(fm::machine_spec("encore").hardware_atomic_rmw);
  EXPECT_FALSE(fm::machine_spec("sequent").hardware_atomic_rmw);
  EXPECT_TRUE(fm::machine_spec("alliant").hardware_atomic_rmw);
  EXPECT_TRUE(fm::machine_spec("cray2").hardware_atomic_rmw);
  EXPECT_TRUE(fm::machine_spec("native").hardware_atomic_rmw);
}

TEST(DispatchCapability, FactoryHonoursCapabilityAndOverride) {
  fm::MachineModel native(fm::machine_spec("native"));
  EXPECT_TRUE(native.new_dispatch_counter()->lock_free());
  EXPECT_FALSE(native.new_dispatch_counter(/*force_locked=*/true)->lock_free());
  fm::MachineModel sequent(fm::machine_spec("sequent"));
  EXPECT_FALSE(sequent.new_dispatch_counter()->lock_free());

  fc::ForceEnvironment auto_env(test_config(2, "native"));
  EXPECT_TRUE(auto_env.lock_free_dispatch());
  fc::ForceEnvironment locked_env(test_config(2, "native", "locked"));
  EXPECT_FALSE(locked_env.lock_free_dispatch());
  EXPECT_FALSE(locked_env.new_dispatch_counter()->lock_free());
}

TEST(DispatchCapability, BadDispatchConfigThrows) {
  EXPECT_THROW(fc::ForceEnvironment env(test_config(1, "native", "turbo")),
               force::util::CheckError);
}

// --- DispatchCounter -------------------------------------------------------------

class DispatchCounterBothEngines : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<fm::DispatchCounter> make() {
    machine_ = std::make_unique<fm::MachineModel>(fm::machine_spec("native"));
    return machine_->new_dispatch_counter(/*force_locked=*/GetParam());
  }
  std::unique_ptr<fm::MachineModel> machine_;
};

TEST_P(DispatchCounterBothEngines, TilesTheTripSpaceExactlyOnce) {
  auto counter = make();
  EXPECT_EQ(counter->lock_free(), !GetParam());
  constexpr std::int64_t kTrips = 10000;
  constexpr int kThreads = 8;
  std::mutex m;
  std::vector<char> seen(kTrips, 0);
  std::atomic<int> exhausted_claims{0};
  on_team(kThreads, [&](int me) {
    const std::int64_t want = 1 + me % 3;  // mixed chunk sizes
    for (;;) {
      const fm::DispatchClaim c = counter->claim(want, kTrips);
      if (c.count == 0) {
        exhausted_claims.fetch_add(1);
        break;
      }
      ASSERT_LE(c.begin + c.count, kTrips);
      std::lock_guard<std::mutex> g(m);
      for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
        ASSERT_EQ(seen[static_cast<std::size_t>(t)], 0) << t;
        seen[static_cast<std::size_t>(t)] = 1;
      }
    }
  });
  for (std::int64_t t = 0; t < kTrips; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], 1) << t;
  }
  EXPECT_EQ(exhausted_claims.load(), kThreads);
}

TEST_P(DispatchCounterBothEngines, ClampsInsteadOfRunningAway) {
  // The signed-overflow guard: exhausted processes may keep claiming
  // forever without the stored value drifting past the limit.
  auto counter = make();
  constexpr std::int64_t kTrips = 10;
  on_team(4, [&](int) {
    for (int i = 0; i < 1000; ++i) {
      (void)counter->claim(1 << 20, kTrips);
    }
  });
  EXPECT_EQ(counter->value(), kTrips);
}

TEST_P(DispatchCounterBothEngines, FractionClaimsShrinkAndCover) {
  auto counter = make();
  constexpr std::int64_t kTrips = 4096;
  std::mutex m;
  std::vector<char> seen(kTrips, 0);
  std::vector<std::int64_t> first_claims;
  on_team(4, [&](int) {
    for (;;) {
      const fm::DispatchClaim c = counter->claim_fraction(kTrips, 8);
      if (c.count == 0) break;
      std::lock_guard<std::mutex> g(m);
      if (first_claims.empty()) first_claims.push_back(c.count);
      for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
        ASSERT_EQ(seen[static_cast<std::size_t>(t)], 0) << t;
        seen[static_cast<std::size_t>(t)] = 1;
      }
    }
  });
  for (std::int64_t t = 0; t < kTrips; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], 1) << t;
  }
  // The first grant is a big fraction, never more than remaining/divisor.
  EXPECT_LE(first_claims.at(0), kTrips / 8);
  EXPECT_EQ(counter->value(), kTrips);
}

INSTANTIATE_TEST_SUITE_P(Engines, DispatchCounterBothEngines,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "locked" : "atomic";
                         });

// --- StealDeque ------------------------------------------------------------------

namespace {
/// A StealDeque of size_t records over its own cells.
struct WordDeque {
  fm::StealDeque dq;
  std::vector<fm::RecordWord> words =
      std::vector<fm::RecordWord>(fm::StealDeque::kCapacity);
  fm::StealDeque::Cells cells() { return {words.data(), sizeof(std::size_t)}; }
  bool push(std::size_t v) { return dq.push(cells(), &v); }
  bool pop(std::size_t* v) { return dq.pop(cells(), v); }
  bool steal(std::size_t* v) { return dq.steal(cells(), v); }
};
}  // namespace

TEST(StealDeque, OwnerIsLifoThievesAreFifo) {
  WordDeque dq;
  for (std::size_t v = 1; v <= 4; ++v) EXPECT_TRUE(dq.push(v));
  std::size_t v = 0;
  EXPECT_TRUE(dq.steal(&v));
  EXPECT_EQ(v, 1u);  // oldest first
  EXPECT_TRUE(dq.pop(&v));
  EXPECT_EQ(v, 4u);  // newest first
  EXPECT_TRUE(dq.pop(&v));
  EXPECT_EQ(v, 3u);
  EXPECT_TRUE(dq.steal(&v));
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(dq.pop(&v));
  EXPECT_FALSE(dq.steal(&v));
}

TEST(StealDeque, BoundedPushReportsFull) {
  WordDeque dq;
  for (std::size_t v = 0; v < fm::StealDeque::kCapacity; ++v) {
    EXPECT_TRUE(dq.push(v));
  }
  EXPECT_FALSE(dq.push(999));
  std::size_t v = 0;
  EXPECT_TRUE(dq.steal(&v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(dq.push(999));  // space reopened
}

TEST(StealDeque, ConcurrentOwnerAndThievesLoseNothing) {
  // One owner interleaving push/pop with three thieves: every pushed
  // value is consumed exactly once across pops and steals.
  WordDeque dq;
  constexpr std::size_t kValues = 20000;
  std::mutex m;
  std::multiset<std::size_t> consumed;
  std::atomic<bool> owner_done{false};
  std::vector<std::jthread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      std::size_t v = 0;
      for (;;) {
        if (dq.steal(&v)) {
          std::lock_guard<std::mutex> g(m);
          consumed.insert(v);
        } else if (owner_done.load(std::memory_order_acquire)) {
          if (!dq.steal(&v)) break;
          std::lock_guard<std::mutex> g(m);
          consumed.insert(v);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  {
    std::size_t next = 1;
    std::size_t v = 0;
    while (next <= kValues) {
      // Push a small burst, pop part of it back: exercises the b==t race.
      for (int burst = 0; burst < 4 && next <= kValues; ++burst) {
        while (!dq.push(next)) std::this_thread::yield();
        ++next;
      }
      if (dq.pop(&v)) {
        std::lock_guard<std::mutex> g(m);
        consumed.insert(v);
      }
    }
    owner_done.store(true, std::memory_order_release);
  }
  thieves.clear();  // join
  ASSERT_EQ(consumed.size(), kValues);
  for (std::size_t v = 1; v <= kValues; ++v) {
    EXPECT_EQ(consumed.count(v), 1u) << v;
  }
}

// --- lock accounting: the acceptance contract ------------------------------------

TEST(DispatchLockAccounting, LockOnlyMachinePaysOneAcquirePerDispatch) {
  // On a lock-only model one selfsched episode costs exactly:
  //   np BARWIN passes + np BARWOT passes + (trips + np) dispatch passes,
  // all on locks handed out by MachineModel::new_lock(). This is the
  // seed's lock traffic, unchanged.
  const int np = 2;
  const std::int64_t trips = 50;
  fc::ForceEnvironment env(test_config(np, "sequent"));
  fc::SelfschedLoop loop(env, np);
  const auto before = fm::snapshot(env.machine().counters());
  on_team(np, [&](int me) { loop.run(me, 1, trips, 1, [](std::int64_t) {}); });
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  EXPECT_EQ(delta.acquires,
            static_cast<std::uint64_t>(2 * np + (trips + np)));
  EXPECT_EQ(env.stats().doall_dispatches.load(),
            static_cast<std::uint64_t>(trips + np));
}

TEST(DispatchLockAccounting, AtomicMachinePaysOnlyTheGates) {
  // Same episode on native: the gates still cost 2*np lock passes (the
  // paper's BARWIN/BARWOT protocol is kept verbatim) but dispatch itself
  // never touches a lock.
  const int np = 2;
  const std::int64_t trips = 50;
  fc::ForceEnvironment env(test_config(np, "native"));
  fc::SelfschedLoop loop(env, np);
  const auto before = fm::snapshot(env.machine().counters());
  on_team(np, [&](int me) { loop.run(me, 1, trips, 1, [](std::int64_t) {}); });
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  EXPECT_EQ(delta.acquires, static_cast<std::uint64_t>(2 * np));
  EXPECT_EQ(env.stats().doall_dispatches.load(),
            static_cast<std::uint64_t>(trips + np));
}

TEST(DispatchLockAccounting, ForcedLockedNativeMatchesTheSeedTraffic) {
  // dispatch="locked" restores the seed's full lock traffic on a capable
  // machine - the knob the benches use to measure the speedup.
  const int np = 2;
  const std::int64_t trips = 50;
  fc::ForceEnvironment env(test_config(np, "native", "locked"));
  fc::SelfschedLoop loop(env, np);
  const auto before = fm::snapshot(env.machine().counters());
  on_team(np, [&](int me) { loop.run(me, 1, trips, 1, [](std::int64_t) {}); });
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  EXPECT_EQ(delta.acquires,
            static_cast<std::uint64_t>(2 * np + (trips + np)));
}

TEST(DispatchLockAccounting, AskforFastPathKeepsTheMonitorCold) {
  // A worker expanding a task tree from its own deque touches the monitor
  // lock only to fetch the externally seeded root and to latch
  // termination - a handful of acquires for hundreds of tasks.
  fc::ForceEnvironment env(test_config(1, "native"));
  fc::Askfor<int> monitor(env);
  ASSERT_TRUE(env.lock_free_dispatch());
  const auto before = fm::snapshot(env.machine().counters());
  monitor.put(0);  // external seed: slow path by design
  std::atomic<int> executed{0};
  on_team(1, [&](int) {
    monitor.work([&](int& depth, fc::Askfor<int>& self) {
      executed.fetch_add(1);
      if (depth < 7) {
        self.put(depth + 1);
        self.put(depth + 1);
      }
    });
  });
  EXPECT_EQ(executed.load(), (1 << 8) - 1);  // full binary tree, depth 7
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  EXPECT_LE(delta.acquires, 8u);
}

TEST(DispatchLockAccounting, AskforLockedEngineKeepsSeedTraffic) {
  // Single-threaded drain on a lock-only machine: put, grant, the final
  // drained probe and complete are one monitor pass each - deterministic,
  // exactly the seed's counts.
  fc::ForceEnvironment env(test_config(1, "sequent"));
  fc::AskforCore core(env, sizeof(std::size_t));
  EXPECT_FALSE(core.lock_free());
  const auto before = fm::snapshot(env.machine().counters());
  for (std::size_t t = 0; t < 5; ++t) core.put(&t);
  std::size_t token = 0;
  while (core.ask(&token) == fc::AskforCore::Outcome::kWork) {
    core.complete();
  }
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  // 5 puts + 6 asks (5 grants + 1 drain) + 5 completes.
  EXPECT_EQ(delta.acquires, 16u);
}
