// The os-fork process backend: real fork(2) children over a MAP_SHARED
// arena with futex-based process-shared synchronization, and - the part
// that earns its keep - robust join: a child that dies on a signal or
// exits nonzero is detected, reported with its process number and
// last-known construct site, and never wedges the survivors.
//
// Assertions about in-team state are made through the shared arena: a
// child's gtest failure would be invisible (children leave with _Exit),
// so children write results into shared variables and the parent asserts
// after the join.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>
#include <new>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "core/force.hpp"
#include "core/privatevar.hpp"
#include "machdep/hepcell.hpp"
#include "machdep/process.hpp"
#include "machdep/shm.hpp"
#include "resident.hpp"
#include "util/check.hpp"

namespace core = force::core;
namespace md = force::machdep;

namespace {

constexpr int kNproc = 4;

force::ForceConfig fork_config() {
  force::ForceConfig cfg;
  cfg.nproc = kNproc;
  cfg.process_model = "os-fork";
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TEST(ForkBackend, ModelNameAndTeamKind) {
  EXPECT_STREQ(md::process_model_name(md::ProcessModelKind::kOsFork),
               "os-fork");
  force::Force f(fork_config());
  EXPECT_EQ(f.env().process_model(), md::ProcessModel::kOsFork);
  EXPECT_STREQ(f.env().backend().name(), "os-fork");
  EXPECT_TRUE(f.env().arena().process_shared());
  EXPECT_EQ(f.env().arena().backing(), md::ArenaBacking::kSharedMapping);
}

// The core tentpole claim: a write made by one real process (own address
// space) is visible to its siblings through the MAP_SHARED arena, and to
// the parent after the join.
TEST(ForkBackend, SharedArenaVisibleAcrossProcesses) {
  force::Force f(fork_config());
  auto& slots = f.shared<std::array<std::int64_t, kNproc>>("slots");
  auto& cross = f.shared<std::array<std::int64_t, kNproc>>("cross");
  f.run([&](core::Ctx& ctx) {
    const auto me = static_cast<std::size_t>(ctx.me0());
    slots[me] = 100 + ctx.me();
    ctx.barrier();
    // Read a *sibling's* write: proves the pages really are shared, not
    // copy-on-write ghosts.
    cross[me] = slots[(me + 1) % kNproc];
  });
  for (int p = 0; p < kNproc; ++p) {
    EXPECT_EQ(slots[static_cast<std::size_t>(p)], 100 + p + 1);
    EXPECT_EQ(cross[static_cast<std::size_t>(p)], 100 + ((p + 1) % kNproc) + 1);
  }
}

// Children really are separate processes: a write to an ordinary (non-
// arena) global must NOT be visible to siblings or to the parent.
TEST(ForkBackend, PrivateMemoryIsNotShared) {
  static int plain_global = 0;
  force::Force f(fork_config());
  auto& observed = f.shared<std::array<int, kNproc>>("observed");
  f.run([&](core::Ctx& ctx) {
    ctx.barrier();
    const int before = plain_global;
    plain_global = 1000 + ctx.me();  // private to this child
    ctx.barrier();
    observed[static_cast<std::size_t>(ctx.me0())] = before + plain_global;
  });
  EXPECT_EQ(plain_global, 0) << "a child's write leaked into the parent";
  for (int p = 0; p < kNproc; ++p) {
    // Each child saw 0 before its own write, then its own value only.
    EXPECT_EQ(observed[static_cast<std::size_t>(p)], 1000 + p + 1);
  }
}

TEST(ForkBackend, SpawnStatsCountProcesses) {
  force::Force f(fork_config());
  const auto stats = f.run([](core::Ctx&) {});
  EXPECT_EQ(stats.processes, kNproc);
  EXPECT_GT(stats.create_ns, 0);
  EXPECT_GE(stats.join_ns, 0);
}

TEST(ForkBackend, RepeatedRunsReuseTheArenaState) {
  force::Force f(fork_config());
  auto& counter = f.shared<std::int64_t>("counter");
  for (int round = 0; round < 3; ++round) {
    f.run([&](core::Ctx& ctx) {
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
    });
  }
  EXPECT_EQ(counter, 3 * kNproc);
}

// The selfscheduled DOALL runs the thread code under os-fork, so its
// dispatch engine follows the machine and ForceConfig::dispatch exactly as
// on threads: the lock engine keys its process-shared lock word in the
// arena by the site, the lock-free engine has none.
TEST(ForkBackend, DoallDispatchEngineFollowsMachineAndConfig) {
  struct Case {
    const char* machine;
    const char* dispatch;
    bool lock_engine;
  };
  for (const Case& c : {Case{"native", "locked", true},
                        Case{"native", "auto", false},
                        Case{"sequent", "auto", true}}) {
    force::ForceConfig cfg = fork_config();
    cfg.machine = c.machine;
    cfg.dispatch = c.dispatch;
    force::Force f(cfg);
    auto& sum = f.shared<std::int64_t>("sum");
    const core::Site site = FORCE_SITE;
    f.run([&](core::Ctx& ctx) {
      std::int64_t mine = 0;
      ctx.selfsched_do(site, 1, 100, 1, [&](std::int64_t i) { mine += i; });
      ctx.critical(FORCE_SITE, [&] { sum += mine; });
    });
    EXPECT_EQ(sum, 5050) << c.machine << " " << c.dispatch;
    EXPECT_EQ(f.env().arena().contains_name("%lock/doall.dispatch@" +
                                            site.key()),
              c.lock_engine)
        << c.machine << " " << c.dispatch;
  }
}

// The tournament's slots live in process memory, which fork children do
// not share: under os-fork a kTournament request runs the critical idiom
// and must agree with it.
TEST(ForkBackend, TournamentReduceMatchesTheCriticalResult) {
  force::Force f(fork_config());
  auto& results = f.shared<std::array<std::int64_t, 2 * kNproc>>("results");
  f.run([&](core::Ctx& ctx) {
    const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };
    const auto me0 = static_cast<std::size_t>(ctx.me0());
    for (int round = 0; round < 3; ++round) {
      results[me0] = ctx.reduce<std::int64_t>(
          FORCE_SITE, 10 * ctx.me() + round, add,
          core::ReduceStrategy::kCritical);
      results[kNproc + me0] = ctx.reduce<std::int64_t>(
          FORCE_SITE, 10 * ctx.me() + round, add,
          core::ReduceStrategy::kTournament);
    }
  });
  // Round 2: 10 * (1 + 2 + 3 + 4) + 4 * 2.
  for (std::size_t p = 0; p < kNproc; ++p) {
    EXPECT_EQ(results[p], 108) << "critical, process " << p;
    EXPECT_EQ(results[kNproc + p], results[p]) << "tournament, process " << p;
  }
}

// Async variables run the core code under os-fork too, so the scheme
// follows the machine as on threads: a two-lock machine keys the
// variable's E and F lock words in the arena, the HEP keeps one tagged
// cell in site state and allocates no lock. Either way the values cross
// between the processes.
TEST(ForkBackend, AsyncSchemeFollowsMachine) {
  constexpr int kRounds = 25;
  struct Case {
    const char* machine;
    bool hardware;
  };
  for (const Case& c : {Case{"native", false}, Case{"sequent", false},
                        Case{"hep", true}}) {
    force::ForceConfig cfg = fork_config();
    cfg.machine = c.machine;
    force::Force f(cfg);
    auto& hardware = f.shared<std::array<std::int64_t, kNproc>>("hardware");
    auto& final_token = f.shared<std::int64_t>("final_token");
    const core::Site site = FORCE_SITE;
    f.run([&](core::Ctx& ctx) {
      auto& token = ctx.async_var<std::int64_t>(site);
      hardware[static_cast<std::size_t>(ctx.me0())] =
          token.uses_hardware_path() ? 1 : 0;
      // One token passes between all processes: every pass is a consume
      // in one address space of a value produced in another.
      if (ctx.me() == 1) token.produce(0);
      for (int r = 0; r < kRounds; ++r) token.produce(token.consume() + 1);
      ctx.barrier();
      if (ctx.me() == 1) final_token = token.consume();
    });
    EXPECT_EQ(final_token, kNproc * kRounds) << c.machine;
    for (int p = 0; p < kNproc; ++p) {
      EXPECT_EQ(hardware[static_cast<std::size_t>(p)], c.hardware ? 1 : 0)
          << c.machine << " proc " << p;
    }
    const std::string label = "async@" + site.key();
    bool lock_e = false;
    bool lock_f = false;
    bool any_lock = false;
    bool engine_blob = false;
    f.env().arena().for_each_allocation(
        [&](const std::string& name, void*, std::size_t) {
          lock_e = lock_e || name == "%lock/" + label + ".E";
          lock_f = lock_f || name == "%lock/" + label + ".F";
          any_lock = any_lock || name.rfind("%lock/" + label, 0) == 0;
          engine_blob = engine_blob || name.rfind("%async/", 0) == 0;
        });
    EXPECT_FALSE(engine_blob) << c.machine;
    EXPECT_EQ(lock_e, !c.hardware) << c.machine;
    EXPECT_EQ(lock_f, !c.hardware) << c.machine;
    EXPECT_EQ(any_lock, !c.hardware) << c.machine;
  }
}

// A two-lock os-fork async variable takes four arena names (its E, F and
// Void lock words and its site state), so the arena's name table must
// still hold a 1000-cell async array.
TEST(ForkBackend, ThousandCellAsyncArrayRoundTrips) {
  constexpr std::size_t kCells = 1000;
  force::Force f(fork_config());
  auto& sum = f.shared<std::int64_t>("sum");
  f.run([&](core::Ctx& ctx) {
    auto& cells = ctx.async_array<std::int64_t>(FORCE_SITE, kCells);
    if (ctx.me() == 1) {
      for (std::size_t i = 0; i < kCells; ++i) {
        cells[i].produce(static_cast<std::int64_t>(i) + 1);
      }
    } else if (ctx.me() == 2) {
      std::int64_t acc = 0;
      for (std::size_t i = 0; i < kCells; ++i) acc += cells[i].consume();
      sum = acc;
    }
  });
  EXPECT_EQ(sum, static_cast<std::int64_t>(kCells * (kCells + 1) / 2));
}

// Barriers are central-sense over site state: the global barrier and every
// reduction's barrier keep their words under "%site/barrier/...", where the
// death scrub's site-state zeroing re-arms them. No separate barrier state
// exists.
TEST(ForkBackend, SiteBarriersLiveInSiteState) {
  force::Force f(fork_config());
  auto& total = f.shared<std::int64_t>("total");
  f.run([&](core::Ctx& ctx) {
    ctx.barrier();
    ctx.reduce_into<std::int64_t>(FORCE_SITE, ctx.me(), total,
                                  [](std::int64_t a, std::int64_t b) {
                                    return a + b;
                                  });
    ctx.barrier();
  });
  EXPECT_EQ(total, kNproc * (kNproc + 1) / 2);
  EXPECT_STREQ(f.env().global_barrier().name(), "central-sense");
  EXPECT_TRUE(f.env().arena().contains_name("%site/barrier/force/global"));
  int reduce_barriers = 0;
  f.env().arena().for_each_allocation(
      [&](const std::string& name, void*, std::size_t) {
        EXPECT_NE(name.rfind("%barrier/", 0), 0u) << name;
        if (name.rfind("%site/barrier/reduce@", 0) == 0) ++reduce_barriers;
      });
  EXPECT_EQ(reduce_barriers, 1);
}

// The HEP cell is address-free: placed in a MAP_SHARED mapping it hands
// words between a parent and its fork(2) child, each side parking on the
// process-shared futex until the other side's publish wakes it.
TEST(HepCellAcrossFork, ForkedChildConsumesWhatTheParentProduces) {
  md::shm::AnonMapping shared(2 * sizeof(md::HepCell),
                              md::shm::AnonMapping::Sharing::kShared);
  auto* to_child = ::new (shared.data()) md::HepCell;
  auto* to_parent = ::new (shared.data() + sizeof(md::HepCell)) md::HepCell;
  constexpr std::uint64_t kRounds = 40;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      to_parent->produce(2 * to_child->consume());
    }
    _exit(0);
  }
  for (std::uint64_t i = 1; i <= kRounds; ++i) {
    // Every few rounds the child has long been parked when the word comes.
    if (i % 8 == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    to_child->produce(i);
    EXPECT_EQ(to_parent->consume(), 2 * i);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// --- privates and memory: fork(2) does the copying -------------------------

// A private seeded through parent() before the first run reaches every
// child through fork's own copy-on-write image, not a parent-side copy. A
// member's write stays in its own address space: siblings never see it,
// nor does the driver, nor the children of the next respawned run. A
// resident pooled child keeps its own image across runs.
TEST(ForkBackend, PrivateSeedIsInheritedThroughFork) {
  for (const bool pooled : {false, true}) {
    force::ForceConfig cfg = fork_config();
    cfg.team_pool = pooled;
    force::Force f(cfg);
    core::Private<std::int64_t> seed(f.env());
    seed.parent() = 123;
    auto& seen = f.shared<std::array<std::int64_t, kNproc>>("seen");
    auto& after = f.shared<std::array<std::int64_t, kNproc>>("after");
    const auto program = [&](core::Ctx& ctx) {
      const auto me = static_cast<std::size_t>(ctx.me0());
      seen[me] = seed.get(ctx);
      ctx.barrier();
      seed.get(ctx) = 1000 + ctx.me();
      ctx.barrier();
      after[me] = seed.get(ctx);
    };
    for (int run = 0; run < 2; ++run) {
      seen = {};
      after = {};
      const auto stats = f.run(program);
      EXPECT_EQ(stats.bytes_copied, 0u);
      for (int p = 0; p < kNproc; ++p) {
        const auto slot = static_cast<std::size_t>(p);
        const std::int64_t own = 1000 + p + 1;
        const std::int64_t expected_seen = (pooled && run > 0) ? own : 123;
        EXPECT_EQ(seen[slot], expected_seen)
            << "pooled=" << pooled << " run " << run << " proc " << p;
        EXPECT_EQ(after[slot], own)
            << "pooled=" << pooled << " run " << run << " proc " << p;
        EXPECT_EQ(seed.for_process(p), 123)
            << "a child's private write reached the driver";
      }
    }
    EXPECT_EQ(f.lifetime_stats().bytes_copied, 0u);
  }
}

TEST(ForkBackend, ForceConstructionDoesNotTouchALargeArena) {
  force::ForceConfig cfg = fork_config();
  cfg.arena_bytes = force::test_support::kLargeArenaBytes;
  const long long growth =
      force::test_support::force_construction_growth(cfg);
  if (growth < 0) GTEST_SKIP() << "no /proc/self/statm on this host";
  EXPECT_LT(growth, force::test_support::kConstructionGrowthLimit);
}

// --- robust join: death tests ----------------------------------------------

// A child SIGKILLed while its siblings sit in a barrier. The parent must
// detect the death, poison the team so the survivors are released, and
// report the victim's process number and last construct site - all well
// inside the 60 s ctest timeout.
TEST(ForkDeath, SigkillMidBarrierIsReportedAndDoesNotHang) {
  force::Force f(fork_config());
  const auto t0 = std::chrono::steady_clock::now();
  try {
    f.run([](core::Ctx& ctx) {
      if (ctx.me() == 2) {
        raise(SIGKILL);  // dies before arriving
      }
      ctx.barrier();  // siblings park here forever - until poisoned
    });
    FAIL() << "a SIGKILLed child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 2);
    EXPECT_EQ(e.term_signal(), SIGKILL);
    EXPECT_EQ(e.exit_code(), -1);
    EXPECT_GT(e.pid(), 0);
    EXPECT_NE(std::string(e.what()).find("killed by signal"),
              std::string::npos);
    // Survivors were parked in the global barrier when the team died.
    EXPECT_NE(std::string(e.what()).find("construct site"), std::string::npos);
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "robust join took too long";
}

// A child SIGKILLed mid-askfor, while it still owes a complete(): the
// monitor's working count can never drain, so without poison the other
// workers would wait forever.
TEST(ForkDeath, SigkillMidAskforIsReportedAndDoesNotHang) {
  force::Force f(fork_config());
  const auto t0 = std::chrono::steady_clock::now();
  try {
    f.run([](core::Ctx& ctx) {
      auto& af = ctx.askfor<std::int64_t>(FORCE_SITE);
      if (ctx.leader()) {
        for (int i = 0; i < 64; ++i) af.put(i);
      }
      ctx.barrier();
      af.work([&](std::int64_t&, core::Askfor<std::int64_t>&) {
        if (ctx.me() == 3) {
          raise(SIGKILL);  // dies holding a granted, uncompleted task
        }
        // Keep the queue alive long enough that process 3's first ask is
        // certain to be granted a task (64 tasks, ~10 ms each elsewhere).
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      });
    });
    FAIL() << "a SIGKILLed worker must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 3);
    EXPECT_EQ(e.term_signal(), SIGKILL);
    EXPECT_NE(e.site().find("askfor"), std::string::npos) << e.site();
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "robust join took too long";
}

// A seeder overflowing the central ring fails with the site and the
// capacity in the death report; its siblings, parked at the barrier, are
// released by team poison instead of hanging.
TEST(ForkDeath, AskforRingOverflowNamesTheSiteAndDoesNotHang) {
  force::Force f(fork_config());
  const auto t0 = std::chrono::steady_clock::now();
  try {
    f.run([](core::Ctx& ctx) {
      auto& af = ctx.askfor<std::int64_t>(FORCE_SITE_TAGGED("overflow"));
      if (ctx.leader()) {
        for (std::int64_t i = 0; i <= core::AskforCore::kRingCapacity; ++i) {
          af.put(i);
        }
      }
      ctx.barrier();
    });
    FAIL() << "overflowing the askfor ring must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 1);
    // The site: "askfor '<file>:<line>...overflow'".
    EXPECT_NE(e.error_text().find("askfor '"), std::string::npos)
        << e.error_text();
    EXPECT_NE(e.error_text().find("overflow'"), std::string::npos)
        << e.error_text();
    EXPECT_NE(e.error_text().find(
                  std::to_string(core::AskforCore::kRingCapacity)),
              std::string::npos)
        << e.error_text();
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "robust join took too long";
}

// Nonzero exit: a child throwing an ordinary exception leaves with code 1
// and its what() preserved in the team control block.
TEST(ForkDeath, ChildExceptionCarriesMessageAndProcessNumber) {
  force::Force f(fork_config());
  try {
    f.run([](core::Ctx& ctx) {
      if (ctx.me() == 1) {
        throw std::runtime_error("deliberate child failure");
      }
      ctx.barrier();
    });
    FAIL() << "a throwing child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 1);
    EXPECT_EQ(e.term_signal(), 0);
    EXPECT_EQ(e.exit_code(), 1);
    EXPECT_NE(e.error_text().find("deliberate child failure"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("deliberate child failure"),
              std::string::npos);
  }
}

// Only the primary death is reported: the survivors' poison-collateral
// exits (code 103) must not mask or replace the original victim.
TEST(ForkDeath, CollateralPoisonExitsAreNotReportedAsPrimary) {
  force::Force f(fork_config());
  try {
    f.run([](core::Ctx& ctx) {
      if (ctx.me() == 4) raise(SIGKILL);
      ctx.barrier();
    });
    FAIL() << "expected ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 4);
    EXPECT_EQ(e.term_signal(), SIGKILL);
  }
}

// A death does not wedge the *parent*: after discarding the dirty driver
// (arena synchronization state may be mid-protocol when a team dies), a
// fresh Force in the same parent process runs cleanly - the poison word
// of the dead team must not leak into the next.
TEST(ForkDeath, AFreshDriverRunsCleanlyAfterADeath) {
  {
    force::Force dying(fork_config());
    EXPECT_THROW(dying.run([](core::Ctx& ctx) {
                   if (ctx.me() == 2) raise(SIGKILL);
                   ctx.barrier();
                 }),
                 md::ProcessDeathError);
  }
  force::Force f(fork_config());
  auto& ok = f.shared<std::int64_t>("ok");
  f.run([&](core::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { ok += 1; });
    ctx.barrier();
  });
  EXPECT_EQ(ok, kNproc);
}

// --- configuration policy ---------------------------------------------------

TEST(ForkConfig, ExplicitSentryIsRejected) {
  force::ForceConfig cfg = fork_config();
  cfg.sentry = true;
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

TEST(ForkConfig, ExplicitTraceIsRejected) {
  force::ForceConfig cfg = fork_config();
  cfg.trace = true;
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

TEST(ForkConfig, ThreadBarrierAlgorithmFactoryIsRejected) {
  force::Force f(fork_config());
  EXPECT_THROW(f.env().make_barrier(2, "central-sense"),
               force::util::CheckError);
}

TEST(ForkConfig, PcaseAndResolveAreRejected) {
  force::Force f(fork_config());
  EXPECT_THROW(f.run([](core::Ctx& ctx) {
                 (void)ctx.pcase(FORCE_SITE);
               }),
               md::ProcessDeathError);
  EXPECT_THROW(f.run([](core::Ctx& ctx) {
                 (void)ctx.resolve(FORCE_SITE);
               }),
               md::ProcessDeathError);
}
