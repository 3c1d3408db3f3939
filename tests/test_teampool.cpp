// Persistent team pools (machdep/teampool.*): the spawn tax paid once.
//
// Three layers under test:
//
//   * TeamPool - the thread-axis pool by itself: parked workers execute
//     sequential forces, multiplex wider forces N:M, and survive member
//     exceptions (ProcessTeam::run's rethrow contract).
//   * Force over a pool - sequential force entries on one pooled team
//     must behave exactly like fresh teams: shared state accumulates,
//     constructs re-arm per entry, the sentry stays report-free.
//   * ForkTeamPool - resident fork(2) children: the same child pids serve
//     every entry, a SIGKILLed pool child surfaces exactly once as
//     ProcessDeathError, and the next force transparently re-forks.
//
// As in test_process_fork.cpp, child-side assertions go through the
// shared arena (a child's gtest failure would be invisible); the parent
// asserts after the join.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/force.hpp"
#include "core/sentry.hpp"
#include "machdep/process.hpp"
#include "machdep/teampool.hpp"
#include "util/check.hpp"

namespace core = force::core;
namespace md = force::machdep;

namespace {

constexpr int kNproc = 4;

force::ForceConfig pool_config() {
  force::ForceConfig cfg;
  cfg.nproc = kNproc;
  cfg.team_pool = true;
  return cfg;
}

force::ForceConfig fork_pool_config() {
  force::ForceConfig cfg;
  cfg.nproc = kNproc;
  cfg.process_model = "os-fork";
  cfg.team_pool = true;
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// --- TeamPool: the thread-axis pool by itself -------------------------------

TEST(TeamPoolUnit, SequentialForcesRunEveryMember) {
  md::TeamPool pool(kNproc);
  EXPECT_EQ(pool.workers(), kNproc);
  std::array<std::atomic<int>, kNproc> visits{};
  for (int run = 0; run < 5; ++run) {
    const auto stats = pool.run(kNproc, [&](int m) {
      visits[static_cast<std::size_t>(m)].fetch_add(1,
                                                    std::memory_order_relaxed);
    });
    EXPECT_EQ(stats.processes, kNproc);
  }
  for (int m = 0; m < kNproc; ++m) {
    EXPECT_EQ(visits[static_cast<std::size_t>(m)].load(), 5) << "member " << m;
  }
}

TEST(TeamPoolUnit, WiderForceIsMultiplexedOntoFewerWorkers) {
  md::TeamPool pool(2);  // NP = 2W
  std::array<std::atomic<int>, kNproc> visits{};
  const auto stats = pool.run(kNproc, [&](int m) {
    visits[static_cast<std::size_t>(m)].fetch_add(1,
                                                  std::memory_order_relaxed);
  });
  EXPECT_EQ(stats.processes, kNproc);
  for (int m = 0; m < kNproc; ++m) {
    EXPECT_EQ(visits[static_cast<std::size_t>(m)].load(), 1) << "member " << m;
  }
}

TEST(TeamPoolUnit, MemberExceptionIsRethrownAndThePoolSurvives) {
  md::TeamPool pool(kNproc);
  EXPECT_THROW(pool.run(kNproc,
                        [](int m) {
                          if (m == 1) {
                            throw std::runtime_error("deliberate member "
                                                     "failure");
                          }
                        }),
               std::runtime_error);
  // The contract of ProcessTeam::run carries over: after the rethrow the
  // team has quiesced and the pool serves the next force normally.
  std::atomic<int> ran{0};
  pool.run(kNproc,
           [&](int) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), kNproc);
}

// --- Force over a pooled thread team ----------------------------------------

TEST(PooledForce, SequentialForcesAccumulateLikeFreshTeams) {
  force::Force f(pool_config());
  auto& counter = f.shared<std::int64_t>("counter");
  for (int round = 0; round < 5; ++round) {
    const auto stats = f.run([&](core::Ctx& ctx) {
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
    });
    EXPECT_EQ(stats.processes, kNproc);
  }
  EXPECT_EQ(counter, 5 * kNproc);
}

TEST(PooledForce, NmPoolDrivesMembersThroughBarriersAndCriticals) {
  force::ForceConfig cfg = pool_config();
  cfg.pool_workers = kNproc / 2;  // NP = 2W: members become continuations
  force::Force f(cfg);
  auto& counter = f.shared<std::int64_t>("counter");
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    f.run([&](core::Ctx& ctx) {
      ctx.barrier();
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
    });
  }
  EXPECT_EQ(counter, 2 * kRounds * kNproc);
}

TEST(PooledForce, ArenaGenerationIsStableAcrossPooledReentry) {
  // The cheap-re-entry contract behind Force::run's sentry walk skip: a
  // force that allocates nothing new must leave the arena generation
  // untouched, so re-entering the pool never re-walks the placements.
  force::Force f(pool_config());
  auto& counter = f.shared<std::int64_t>("counter");
  const auto program = [&](core::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { counter += 1; });
    ctx.barrier();
  };
  f.run(program);  // first entry may place construct state lazily
  const std::uint64_t gen = f.env().arena().generation();
  f.run(program);
  f.run(program);
  EXPECT_EQ(f.env().arena().generation(), gen)
      << "pooled re-entry must not allocate";
  EXPECT_EQ(counter, 3 * kNproc);
}

TEST(PooledForce, SentryStaysReportFreeAcrossPooledReentry) {
  // A 1:1 pool keeps every member on its own OS thread, so the sentry
  // remains fully observable; pooled re-entry (same worker threads, new
  // run generation) must not manufacture races between entries.
  force::ForceConfig cfg = pool_config();
  cfg.sentry = true;
  force::Force f(cfg);
  auto& counter = f.shared<std::int64_t>("counter");
  for (int round = 0; round < 3; ++round) {
    f.run([&](core::Ctx& ctx) {
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
      // Unlocked writes to disjoint slots after a barrier: ordered, clean.
      auto& slots = ctx.env().arena().get_or_create<
          std::array<std::int64_t, kNproc>>("slots");
      slots[static_cast<std::size_t>(ctx.me0())] = counter;
      ctx.barrier();
    });
  }
  auto* sn = f.env().sentry();
  ASSERT_NE(sn, nullptr);
  EXPECT_EQ(sn->total_reports(), 0u)
      << "pooled re-entry manufactured sentry reports";
  EXPECT_EQ(counter, 3 * kNproc);
}

// --- configuration policy ---------------------------------------------------

TEST(PoolConfig, NmWithSentryIsRejected) {
  force::ForceConfig cfg = pool_config();
  cfg.pool_workers = 2;
  cfg.sentry = true;  // two members share one OS thread: unobservable
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

TEST(PoolConfig, NmWithOsForkIsRejected) {
  force::ForceConfig cfg = fork_pool_config();
  cfg.pool_workers = 2;  // the fork pool keeps one resident child per member
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

// --- Force over a resident fork(2) pool -------------------------------------

TEST(PooledForkForce, ResidentChildrenServeEverySequentialForce) {
  force::Force f(fork_pool_config());
  auto& counter = f.shared<std::int64_t>("counter");
  auto& pids = f.shared<std::array<long, kNproc>>("pids");
  std::array<long, kNproc> first_pids{};
  for (int round = 0; round < 4; ++round) {
    f.run([&](core::Ctx& ctx) {
      pids[static_cast<std::size_t>(ctx.me0())] = static_cast<long>(getpid());
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
    });
    if (round == 0) {
      first_pids = pids;
    } else {
      // The whole point of the pool: the SAME resident children run every
      // force, no fork(2) per entry.
      EXPECT_EQ(pids, first_pids) << "round " << round << " re-forked";
    }
  }
  EXPECT_EQ(counter, 4 * kNproc);
  EXPECT_TRUE(f.env().fork_pool(kNproc).armed());
}

TEST(PooledForkForce, RetirementDoesNotReexecuteTheProgram) {
  // shutdown() wakes the parked children by bumping the arm generation (a
  // bare wake could be slept through). The children must read that new
  // generation as "retire", not as one more armed force: a spurious extra
  // run would duplicate the program's MAP_SHARED side effects at every
  // pool retirement (env destruction, fork_pool width change).
  force::Force f(fork_pool_config());
  auto& counter = f.shared<std::int64_t>("counter");
  const auto program = [&](core::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { counter += 1; });
    ctx.barrier();
  };
  f.run(program);
  f.run(program);
  EXPECT_EQ(counter, 2 * kNproc);
  // Synchronous: returns only after every resident child is reaped, so a
  // duplicated run would already be visible in the shared counter here.
  f.env().fork_pool(kNproc).shutdown();
  EXPECT_EQ(counter, 2 * kNproc)
      << "pool retirement re-executed the pooled program";
}

TEST(PooledForkForce, ADifferentProgramOnAnArmedPoolIsRejected) {
  // Resident children re-execute the closure the pool was armed with (the
  // fork-point stack is COW-frozen), so Force::run pins the program type.
  force::Force f(fork_pool_config());
  auto& ok = f.shared<std::int64_t>("ok");
  f.run([&](core::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { ok += 1; });
    ctx.barrier();
  });
  EXPECT_EQ(ok, kNproc);
  EXPECT_THROW(f.run([&](core::Ctx& ctx) {
                 (void)ok;
                 ctx.barrier();
                 ctx.barrier();
               }),
               force::util::CheckError);
}

TEST(PooledForkDeath, SigkilledPoolChildIsReportedOnceAndThePoolRecovers) {
  force::Force f(fork_pool_config());
  auto& kill_flag = f.shared<std::int64_t>("kill_flag");
  auto& ok = f.shared<std::int64_t>("ok");
  const auto t0 = std::chrono::steady_clock::now();
  // One program for every run (the fork-pool contract); the parent steers
  // the victim through the shared arena, which resident children see live.
  const auto program = [&](core::Ctx& ctx) {
    if (kill_flag != 0 && ctx.me() == 2) {
      raise(SIGKILL);  // dies before arriving at the barrier
    }
    ctx.barrier();
    ctx.critical(FORCE_SITE, [&] { ok += 1; });
    ctx.barrier();
  };

  kill_flag = 0;
  f.run(program);
  EXPECT_EQ(ok, kNproc);

  kill_flag = 1;
  try {
    f.run(program);
    FAIL() << "a SIGKILLed pool child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    // Reported once, with the victim's identity - the survivors' poison
    // collateral must not mask it.
    EXPECT_EQ(e.process(), 2);
    EXPECT_EQ(e.term_signal(), SIGKILL);
    EXPECT_GT(e.pid(), 0);
  }
  EXPECT_EQ(ok, kNproc) << "the poisoned run must not have half-completed";
  EXPECT_FALSE(f.env().fork_pool(kNproc).armed())
      << "a dead team must be retired";

  // The next force transparently re-forks a fresh resident team.
  kill_flag = 0;
  f.run(program);
  EXPECT_EQ(ok, 2 * kNproc);
  EXPECT_TRUE(f.env().fork_pool(kNproc).armed());
  EXPECT_LT(seconds_since(t0), 30.0) << "pooled robust join took too long";
}

// A member SIGKILLed inside a construct leaves its shared state mid-protocol:
// inside a selfsched DOALL body the entry gates and arrival counter are
// wedged (BARWIN held, the survivors' departures never reach zero), and
// before a reduction the accumulator count and the barrier's arrival count
// hold the survivors' contributions. A death while a sibling is parked in
// consume() leaves the other producers' async cells full with values of
// the dead run - E/F lock words on a two-lock machine, tagged cells in site
// state on the HEP. A death inside an askfor body leaves a granted task
// uncompleted and the rest of the tree queued - in the steal deques on
// native, in the central ring on the HEP. The death scrub resets all of it
// by name prefix (every async cell restarts empty), so the next run of the
// same program on a re-forked team completes, matches the sequential
// result and drains every askfor task exactly once.
TEST(PooledForkDeath, DeathMidConstructLeavesTheNextRunClean) {
  constexpr std::int64_t kTrips = 200;
  constexpr std::int64_t kSequential = kTrips * (kTrips + 1) / 2;
  // Askfor tasks are the nodes 1..kNodes of a heap-numbered binary tree,
  // expanded by the workers themselves.
  constexpr std::int64_t kNodes = 255;
  constexpr std::int64_t kNodeSum = kNodes * (kNodes + 1) / 2;
  // Handed-over values carry their run's number above this tag, so a value
  // left over from an earlier run cannot pass for a current one.
  constexpr std::int64_t kRunTag = std::int64_t{1} << 32;
  enum : std::int64_t {
    kNoKill = 0,
    kInDoallBody = 1,
    kBeforeReduce = 2,
    kWhileConsumerParked = 3,
    kInAskforBody = 4
  };
  struct Case {
    const char* machine;
    std::vector<std::int64_t> victim_sites;
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (const Case& c :
       {Case{"native", {kInDoallBody, kBeforeReduce, kWhileConsumerParked,
                        kInAskforBody}},
        Case{"hep", {kWhileConsumerParked, kInAskforBody}}}) {
    force::ForceConfig cfg = fork_pool_config();
    cfg.machine = c.machine;
    force::Force f(cfg);
    auto& kill_at = f.shared<std::int64_t>("kill_at");
    auto& run = f.shared<std::int64_t>("run");
    auto& total = f.shared<std::int64_t>("total");
    auto& handed = f.shared<std::int64_t>("handed");
    auto& nodes = f.shared<std::int64_t>("nodes");
    auto& node_sum = f.shared<std::int64_t>("node_sum");
    const auto program = [&](core::Ctx& ctx) {
      std::int64_t mine = 0;
      ctx.selfsched_do(FORCE_SITE, 1, kTrips, 1, [&](std::int64_t i) {
        // Whoever draws the middle trip dies holding a claimed chunk.
        if (kill_at == kInDoallBody && i == kTrips / 2) raise(SIGKILL);
        mine += i;
      });
      if (kill_at == kBeforeReduce && ctx.me() == 3) raise(SIGKILL);
      ctx.reduce_into<std::int64_t>(FORCE_SITE, mine, total,
                                    [](std::int64_t a, std::int64_t b) {
                                      return a + b;
                                    });
      // Process p > 1 hands its partial sum to process 1 in cell p - 2.
      auto& cells = ctx.async_array<std::int64_t>(FORCE_SITE, kNproc - 1);
      if (ctx.me() == 1) {
        std::int64_t sum = mine;
        for (std::size_t i = 0; i + 1 < kNproc; ++i) {
          sum += cells[i].consume() - run * kRunTag;
        }
        handed = sum;
      } else {
        if (kill_at == kWhileConsumerParked && ctx.me() == 2) {
          // Process 1 is parked in its first consume() by now.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          raise(SIGKILL);
        }
        cells[static_cast<std::size_t>(ctx.me() - 2)].produce(run * kRunTag +
                                                              mine);
      }
      // Tasks carry their run's tag, so a task left over from the dead
      // run cannot pass for a current one.
      auto& af = ctx.askfor<std::int64_t>(FORCE_SITE);
      if (ctx.leader()) af.put(run * kRunTag + 1);
      ctx.barrier();
      std::int64_t my_nodes = 0;
      std::int64_t my_sum = 0;
      af.work([&](std::int64_t& task, core::Askfor<std::int64_t>& self) {
        const std::int64_t node = task - run * kRunTag;
        if (kill_at == kInAskforBody && node == kNodes / 2) raise(SIGKILL);
        for (const std::int64_t child : {2 * node, 2 * node + 1}) {
          if (child <= kNodes) self.put(run * kRunTag + child);
        }
        ++my_nodes;
        my_sum += node;
      });
      const auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
      ctx.reduce_into<std::int64_t>(FORCE_SITE, my_nodes, nodes, plus);
      ctx.reduce_into<std::int64_t>(FORCE_SITE_TAGGED("sum"), my_sum,
                                    node_sum, plus);
      ctx.barrier();
    };

    for (const std::int64_t victim_site : c.victim_sites) {
      kill_at = kNoKill;
      total = 0;
      handed = 0;
      nodes = 0;
      node_sum = 0;
      ++run;
      f.run(program);
      EXPECT_EQ(total, kSequential)
          << c.machine << ": clean run before site " << victim_site;
      EXPECT_EQ(handed, kSequential)
          << c.machine << ": clean run before site " << victim_site;
      EXPECT_EQ(nodes, kNodes)
          << c.machine << ": clean run before site " << victim_site;
      EXPECT_EQ(node_sum, kNodeSum)
          << c.machine << ": clean run before site " << victim_site;

      kill_at = victim_site;
      ++run;
      EXPECT_THROW(f.run(program), md::ProcessDeathError)
          << c.machine << ": site " << victim_site;
      EXPECT_FALSE(f.env().fork_pool(kNproc).armed());

      kill_at = kNoKill;
      total = 0;
      handed = 0;
      nodes = 0;
      node_sum = 0;
      ++run;
      f.run(program);
      EXPECT_EQ(total, kSequential)
          << c.machine << ": run after a death at site " << victim_site;
      EXPECT_EQ(handed, kSequential)
          << c.machine << ": run after a death at site " << victim_site;
      EXPECT_EQ(nodes, kNodes)
          << c.machine << ": run after a death at site " << victim_site;
      EXPECT_EQ(node_sum, kNodeSum)
          << c.machine << ": run after a death at site " << victim_site;
      EXPECT_TRUE(f.env().fork_pool(kNproc).armed());
    }
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "pooled robust join took too long";
}
