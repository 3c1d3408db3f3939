// Tests for the Askfor monitor (paper §3.3, [LO83]).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/askfor.hpp"
#include "core/env.hpp"
#include "core/force.hpp"

namespace fc = force::core;

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

TEST(AskforCore, DrainsSeededWork) {
  fc::ForceEnvironment env(test_config(1));
  fc::AskforCore core(env, sizeof(std::size_t));
  for (std::size_t t = 0; t < 5; ++t) core.put(&t);
  std::size_t token = 0;
  std::set<std::size_t> got;
  while (core.ask(&token) == fc::AskforCore::Outcome::kWork) {
    got.insert(token);
    core.complete();
  }
  EXPECT_EQ(got.size(), 5u);
  EXPECT_TRUE(core.ended());
  EXPECT_EQ(core.granted(), 5u);
}

TEST(AskforCore, DrainIsProvisionalProbendIsSticky) {
  for (const char* dispatch : {"auto", "locked"}) {
    fc::ForceEnvironment env(test_config(1, "native", dispatch));
    fc::AskforCore core(env, sizeof(std::size_t));
    std::size_t token = 0;
    // An empty monitor drains immediately...
    EXPECT_EQ(core.ask(&token), fc::AskforCore::Outcome::kDone);
    // ...but a drain is provisional: a seed put behind it re-opens the
    // monitor instead of vanishing (on a hot pooled team the first
    // asker's drained latch can genuinely beat the leader's seed).
    const std::size_t seed = 99;
    core.put(&seed);
    ASSERT_EQ(core.ask(&token), fc::AskforCore::Outcome::kWork) << dispatch;
    EXPECT_EQ(token, 99u);
    core.complete();
    // probend() is final for the episode: later puts drop, as ever.
    core.probend();
    const std::size_t late = 7;
    core.put(&late);
    EXPECT_EQ(core.ask(&token), fc::AskforCore::Outcome::kDone) << dispatch;
  }
}

TEST(AskforCore, CompleteWithoutGrantThrows) {
  fc::ForceEnvironment env(test_config(1));
  fc::AskforCore core(env, sizeof(std::size_t));
  EXPECT_THROW(core.complete(), force::util::CheckError);
}

TEST(AskforCore, WaitsWhileAWorkerMightProduce) {
  // One worker holds a task; a second asker must wait (not get kDone)
  // until the worker either puts more work or completes.
  fc::ForceEnvironment env(test_config(2));
  fc::AskforCore core(env, sizeof(std::size_t));
  const std::size_t first = 1;
  core.put(&first);
  std::size_t token = 0;
  ASSERT_EQ(core.ask(&token), fc::AskforCore::Outcome::kWork);

  std::atomic<bool> second_returned{false};
  std::atomic<int> second_outcome{-1};
  std::jthread asker([&] {
    std::size_t t2 = 0;
    const auto outcome = core.ask(&t2);
    second_outcome = static_cast<int>(outcome);
    second_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_returned.load());  // still waiting: we might put()
  const std::size_t second = 2;
  core.put(&second);                     // we do produce more work
  asker.join();
  EXPECT_EQ(second_outcome.load(),
            static_cast<int>(fc::AskforCore::Outcome::kWork));
  core.complete();   // our task
  core.complete();   // the asker's task (granted, never completed by it)
}

TEST(Askfor, EveryTaskExecutedExactlyOnce) {
  const int np = 4;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<int> monitor(env);
  for (int i = 0; i < 100; ++i) monitor.put(i);
  std::mutex m;
  std::multiset<int> executed;
  on_team(np, [&](int) {
    monitor.work([&](int& task, fc::Askfor<int>&) {
      std::lock_guard<std::mutex> g(m);
      executed.insert(task);
    });
  });
  EXPECT_EQ(executed.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(executed.count(i), 1u) << i;
}

TEST(Askfor, RuntimeGeneratedWorkIsExecuted) {
  // A binary task tree generated at run time: the paper's "request during
  // run time that a new concurrent instance is executed".
  const int np = 4;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<std::pair<int, int>> monitor(env);  // (depth, id)
  monitor.put({0, 1});
  std::atomic<int> leaves{0};
  std::atomic<int> total{0};
  constexpr int kDepth = 6;
  on_team(np, [&](int) {
    monitor.work([&](std::pair<int, int>& task,
                     fc::Askfor<std::pair<int, int>>& self) {
      total.fetch_add(1);
      if (task.first < kDepth) {
        self.put({task.first + 1, task.second * 2});
        self.put({task.first + 1, task.second * 2 + 1});
      } else {
        leaves.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(leaves.load(), 1 << kDepth);
  EXPECT_EQ(total.load(), (1 << (kDepth + 1)) - 1);  // full binary tree
}

TEST(Askfor, WorkReturnsPerProcessCounts) {
  const int np = 3;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<int> monitor(env);
  for (int i = 0; i < 30; ++i) monitor.put(i);
  std::atomic<std::size_t> sum{0};
  on_team(np, [&](int) {
    sum.fetch_add(monitor.work([&](int&, fc::Askfor<int>&) {}));
  });
  EXPECT_EQ(sum.load(), 30u);
}

TEST(Askfor, ProbendStopsTheComputationEarly) {
  // A "search": the first worker to find the needle aborts everyone.
  const int np = 4;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<int> monitor(env);
  for (int i = 0; i < 10000; ++i) monitor.put(i);
  std::atomic<int> executed{0};
  on_team(np, [&](int) {
    monitor.work([&](int& task, fc::Askfor<int>& self) {
      executed.fetch_add(1);
      if (task == 17) self.probend();
    });
  });
  EXPECT_TRUE(monitor.ended());
  EXPECT_LT(executed.load(), 10000);  // the abort actually cut work short
}

TEST(Askfor, ThrowingBodyCompletesItsGrant) {
  const int np = 2;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<int> monitor(env);
  for (int i = 0; i < 10; ++i) monitor.put(i);
  std::atomic<int> throws{0};
  std::atomic<int> executed{0};
  on_team(np, [&](int) {
    for (;;) {
      try {
        monitor.work([&](int& task, fc::Askfor<int>&) {
          executed.fetch_add(1);
          if (task == 5) throw std::runtime_error("bad task");
        });
        break;  // drained
      } catch (const std::runtime_error&) {
        throws.fetch_add(1);  // resume working after the bad task
      }
    }
  });
  EXPECT_EQ(throws.load(), 1);
  EXPECT_EQ(executed.load(), 10);
  EXPECT_TRUE(monitor.ended());
}

// --- steal-heavy: one seeder, many thieves ---------------------------------------

class AskforStealTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AskforStealTest, OneSeederManyThievesExactlyOnce) {
  // The worst case for work stealing: a single root task seeds the whole
  // frontier into ONE worker's deque, so the other seven workers can only
  // make progress by stealing, and every task recursively put()s so the
  // deques keep refilling. Every generated (depth, id) must execute
  // exactly once, on both dispatch engines.
  const int np = 8;
  fc::ForceEnvironment env(test_config(np, "native", GetParam()));
  using Task = std::pair<int, std::uint32_t>;  // (depth, heap id)
  fc::Askfor<Task> monitor(env);
  constexpr int kDepth = 9;
  std::mutex m;
  std::multiset<Task> executed;
  monitor.put({0, 1});  // the root; whichever worker grants it seeds
  on_team(np, [&](int) {
    monitor.work([&](Task& task, fc::Askfor<Task>& self) {
      if (task.first == 0) {
        // The seeder: eight subtree roots, all into the seeder's deque.
        for (std::uint32_t r = 2; r <= 9; ++r) self.put({1, r});
      } else if (task.first < kDepth) {
        self.put({task.first + 1, task.second * 2});
        self.put({task.first + 1, task.second * 2 + 1});
      }
      std::lock_guard<std::mutex> g(m);
      executed.insert(task);
    });
  });
  // The root plus eight binary subtrees spanning depths 1..kDepth, each
  // with 2^kDepth - 1 nodes. Heap ids are unique per depth level, so
  // (depth, id) identifies a task globally.
  const std::size_t expected = 8u * ((1u << kDepth) - 1u) + 1u;
  ASSERT_EQ(executed.size(), expected);
  for (const auto& task : executed) {
    EXPECT_EQ(executed.count(task), 1u)
        << task.first << ":" << task.second;
  }
  EXPECT_EQ(monitor.granted(), expected);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, AskforStealTest,
                         ::testing::Values("auto", "locked"),
                         [](const auto& info) { return info.param; });

TEST(Askfor, WorksOnEveryMachineModel) {
  for (const auto& machine : force::machdep::machine_names()) {
    const int np = 3;
    fc::ForceEnvironment env(test_config(np, machine));
    fc::Askfor<int> monitor(env);
    for (int i = 1; i <= 40; ++i) monitor.put(i);
    std::atomic<std::int64_t> sum{0};
    on_team(np, [&](int) {
      monitor.work([&](int& t, fc::Askfor<int>&) { sum.fetch_add(t); });
    });
    EXPECT_EQ(sum.load(), 820) << machine;
  }
}

TEST(Askfor, AnonymousMonitorsShareNoState) {
  // Two monitors built without a key get distinct anonymous sites, on
  // the thread backend and over the os-fork arena alike.
  for (const char* model : {"machine", "os-fork"}) {
    fc::ForceConfig cfg = test_config(1);
    cfg.process_model = model;
    fc::ForceEnvironment env(cfg);
    fc::Askfor<int> a(env);
    fc::Askfor<int> b(env);
    a.put(1);
    b.put(2);
    std::vector<int> from_a;
    std::vector<int> from_b;
    a.work([&](int& t, fc::Askfor<int>&) { from_a.push_back(t); });
    b.work([&](int& t, fc::Askfor<int>&) { from_b.push_back(t); });
    EXPECT_EQ(from_a, std::vector<int>{1}) << model;
    EXPECT_EQ(from_b, std::vector<int>{2}) << model;
  }
}

TEST(Askfor, RingOverflowNamesTheSiteAndCapacity) {
  // Seeds from an unregistered thread go to the central ring on both
  // engines; one more than it holds is a checked error naming the site
  // and the capacity, and the monitor still drains what it accepted.
  constexpr std::uint32_t kCap = fc::AskforCore::kRingCapacity;
  for (const char* dispatch : {"auto", "locked"}) {
    fc::ForceEnvironment env(test_config(1, "native", dispatch));
    fc::Askfor<std::uint32_t> monitor(env, "overflow-site");
    for (std::uint32_t i = 0; i < kCap; ++i) monitor.put(i);
    try {
      monitor.put(kCap);
      FAIL() << dispatch << ": a full ring must reject the put";
    } catch (const force::util::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'overflow-site'"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(kCap)), std::string::npos) << what;
    }
    std::uint64_t sum = 0;
    EXPECT_EQ(monitor.work([&](std::uint32_t& t, fc::Askfor<std::uint32_t>&) {
      sum += t;
    }), kCap) << dispatch;
    EXPECT_EQ(sum, std::uint64_t{kCap} * (kCap - 1) / 2) << dispatch;
  }
}

namespace {
/// A task that is not trivially copyable and counts its live instances.
struct CountedTask {
  static inline std::atomic<int> live{0};
  int value;
  explicit CountedTask(int v) : value(v) { live.fetch_add(1); }
  CountedTask(const CountedTask& o) : value(o.value) { live.fetch_add(1); }
  CountedTask(CountedTask&& o) noexcept : value(o.value) { live.fetch_add(1); }
  CountedTask& operator=(const CountedTask&) = default;
  ~CountedTask() { live.fetch_sub(1); }
};
}  // namespace

TEST(Askfor, NonTrivialTaskStoreIsReleasedAcrossForceEntries) {
  // A non-trivially-copyable task type lives in a process-local store;
  // each force entry must release the last entry's tasks instead of
  // growing the store forever (respawned and pooled teams alike).
  constexpr int kRuns = 60;
  constexpr int kPerRun = 200;
  for (const bool pooled : {false, true}) {
    fc::ForceConfig cfg = test_config(4);
    cfg.team_pool = pooled;
    force::Force f(cfg);
    std::atomic<std::int64_t> sum{0};
    for (int run = 0; run < kRuns; ++run) {
      sum = 0;
      f.run([&](fc::Ctx& ctx) {
        auto& af = ctx.askfor<CountedTask>(FORCE_SITE);
        if (ctx.leader()) {
          for (int i = 1; i <= kPerRun; ++i) af.put(CountedTask(i));
        }
        ctx.barrier();
        af.work([&](CountedTask& t, fc::Askfor<CountedTask>&) {
          sum.fetch_add(t.value);
        });
      });
      ASSERT_EQ(sum.load(), kPerRun * (kPerRun + 1) / 2)
          << "pooled=" << pooled << " run " << run;
      ASSERT_LE(CountedTask::live.load(), kPerRun)
          << "pooled=" << pooled << " run " << run;
    }
  }
  EXPECT_EQ(CountedTask::live.load(), 0);
}
