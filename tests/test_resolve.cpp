// Tests for Resolve (paper §3.3; "yet unimplemented" there, an implemented
// extension here): partition arithmetic, component assignment, and the
// full construct through the driver.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <set>

#include "core/force.hpp"

namespace fc = force::core;

// --- partition arithmetic -------------------------------------------------------

TEST(ResolvePartition, ProportionalSplit) {
  const auto sizes = fc::resolve_partition(8, {1, 3});
  EXPECT_EQ(sizes, (std::vector<int>{2, 6}));
}

TEST(ResolvePartition, EqualWeights) {
  EXPECT_EQ(fc::resolve_partition(9, {1, 1, 1}),
            (std::vector<int>{3, 3, 3}));
}

TEST(ResolvePartition, EveryComponentGetsAtLeastOne) {
  const auto sizes = fc::resolve_partition(3, {1, 1000, 1000});
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0), 3);
  for (int s : sizes) EXPECT_GE(s, 1);
}

TEST(ResolvePartition, SumsToNpForManyShapes) {
  for (int np = 3; np <= 17; ++np) {
    for (const auto& weights :
         {std::vector<int>{1, 1, 1}, std::vector<int>{5, 2, 3},
          std::vector<int>{1, 10, 1}}) {
      const auto sizes = fc::resolve_partition(np, weights);
      EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0), np);
      for (int s : sizes) EXPECT_GE(s, 1);
    }
  }
}

TEST(ResolvePartition, Deterministic) {
  EXPECT_EQ(fc::resolve_partition(10, {2, 3, 5}),
            fc::resolve_partition(10, {2, 3, 5}));
}

TEST(ResolvePartition, BadInputsThrow) {
  EXPECT_THROW(fc::resolve_partition(1, {1, 1}), force::util::CheckError);
  EXPECT_THROW(fc::resolve_partition(4, {}), force::util::CheckError);
  EXPECT_THROW(fc::resolve_partition(4, {1, 0}), force::util::CheckError);
}

TEST(ResolveAssignment, ConsecutiveRanges) {
  const std::vector<int> sizes{2, 3, 1};
  std::vector<int> components;
  std::vector<int> ranks;
  for (int p = 0; p < 6; ++p) {
    const auto a = fc::assign_component(p, sizes);
    components.push_back(a.component);
    ranks.push_back(a.rank);
    EXPECT_EQ(a.width, sizes[static_cast<std::size_t>(a.component)]);
  }
  EXPECT_EQ(components, (std::vector<int>{0, 0, 1, 1, 1, 2}));
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 0, 1, 2, 0}));
  EXPECT_THROW(fc::assign_component(6, sizes), force::util::CheckError);
}

// --- the full construct ----------------------------------------------------------

TEST(Resolve, ComponentsSeeRemappedMeAndNp) {
  force::Force f({.nproc = 6});
  std::mutex m;
  std::set<std::pair<std::string, int>> seen;  // (component, sub-me0)
  f.run([&](fc::Ctx& ctx) {
    ctx.resolve(FORCE_SITE)
        .component("a", 1,
                   [&](fc::Ctx& sub) {
                     std::lock_guard<std::mutex> g(m);
                     seen.insert({"a", sub.me0()});
                     EXPECT_EQ(sub.np(), 2);
                   })
        .component("b", 2,
                   [&](fc::Ctx& sub) {
                     std::lock_guard<std::mutex> g(m);
                     seen.insert({"b", sub.me0()});
                     EXPECT_EQ(sub.np(), 4);
                   })
        .run();
  });
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_TRUE(seen.contains({"a", 0}));
  EXPECT_TRUE(seen.contains({"a", 1}));
  EXPECT_TRUE(seen.contains({"b", 3}));
}

TEST(Resolve, ComponentBarriersAreComponentLocal) {
  // A barrier inside component "a" must not wait for component "b": give
  // "b" much more work; "a" uses barriers meanwhile and must finish first.
  force::Force f({.nproc = 4});
  std::atomic<bool> a_done{false};
  std::atomic<bool> b_done{false};
  std::atomic<bool> a_finished_first{false};
  f.run([&](fc::Ctx& ctx) {
    ctx.resolve(FORCE_SITE)
        .component("a", 1,
                   [&](fc::Ctx& sub) {
                     for (int i = 0; i < 10; ++i) sub.barrier();
                     a_finished_first.store(!b_done.load());
                     a_done = true;
                   })
        .component("b", 1,
                   [&](fc::Ctx& sub) {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(100));
                     sub.barrier();
                     b_done = true;
                   })
        .run();
  });
  EXPECT_TRUE(a_done.load());
  EXPECT_TRUE(b_done.load());
  EXPECT_TRUE(a_finished_first.load());
}

TEST(Resolve, NestedConstructsInsideComponents) {
  // A selfsched loop and an async variable inside each component: the
  // site namespace must keep the two components' loop state and cells
  // disjoint even though the source lines are the same. Each component
  // hands a tagged value through its cell, so a cell shared between the
  // components would deliver the other component's tag.
  for (const char* machine : {"native", "hep"}) {
    force::Force f({.nproc = 6, .machine = machine});
    auto& sum_a = f.shared<std::int64_t>("sum_a");
    auto& sum_b = f.shared<std::int64_t>("sum_b");
    auto& got_a = f.shared<std::int64_t>("got_a");
    auto& got_b = f.shared<std::int64_t>("got_b");
    constexpr int kHandoffs = 50;
    f.run([&](fc::Ctx& ctx) {
      auto work = [&](fc::Ctx& sub, std::int64_t& acc, std::int64_t& got,
                      std::int64_t tag) {
        std::int64_t local = 0;
        sub.selfsched_do(FORCE_SITE, 1, 100, 1,
                         [&](std::int64_t i) { local += i; });
        sub.critical(FORCE_SITE, [&] { acc += local; });
        auto& cell = sub.async_var<std::int64_t>(FORCE_SITE);
        if (sub.me() == 1) {
          for (int i = 0; i < kHandoffs; ++i) cell.produce(tag);
        } else if (sub.me() == 2) {
          std::int64_t seen = 0;
          for (int i = 0; i < kHandoffs; ++i) seen += cell.consume();
          got = seen;
        }
      };
      ctx.resolve(FORCE_SITE)
          .component("a", 1, [&](fc::Ctx& sub) { work(sub, sum_a, got_a, 1); })
          .component("b", 1,
                     [&](fc::Ctx& sub) { work(sub, sum_b, got_b, 1000); })
          .run();
    });
    EXPECT_EQ(sum_a, 5050) << machine;
    EXPECT_EQ(sum_b, 5050) << machine;
    EXPECT_EQ(got_a, kHandoffs * 1) << machine;
    EXPECT_EQ(got_b, kHandoffs * 1000) << machine;
  }
}

TEST(Resolve, JoinsBeforeContinuing) {
  force::Force f({.nproc = 4});
  std::atomic<int> in_components{0};
  std::atomic<bool> violated{false};
  f.run([&](fc::Ctx& ctx) {
    ctx.resolve(FORCE_SITE)
        .component("fast", 1, [&](fc::Ctx&) { in_components.fetch_add(1); })
        .component("slow", 1,
                   [&](fc::Ctx&) {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(30));
                     in_components.fetch_add(1);
                   })
        .run();
    // After run() every component body has completed on every process.
    if (in_components.load() != ctx.np()) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Resolve, ReusableAcrossEpisodes) {
  force::Force f({.nproc = 4});
  std::atomic<int> runs{0};
  f.run([&](fc::Ctx& ctx) {
    for (int e = 0; e < 5; ++e) {
      ctx.resolve(FORCE_SITE)
          .component("x", 1, [&](fc::Ctx&) { runs.fetch_add(1); })
          .component("y", 1, [&](fc::Ctx&) { runs.fetch_add(1); })
          .run();
    }
  });
  EXPECT_EQ(runs.load(), 5 * 4);
}

TEST(Resolve, DivergentComponentsAreDetectedOrImpossible) {
  // All processes build the same component list (SPMD); a width mismatch
  // against the site state is detected.
  force::Force f({.nproc = 2});
  std::atomic<int> errors{0};
  f.run([&](fc::Ctx& ctx) {
    try {
      auto r = ctx.resolve(FORCE_SITE);
      if (ctx.me0() == 0) {
        r.component("a", 1, [](fc::Ctx&) {}).component("b", 1, [](fc::Ctx&) {});
      } else {
        r.component("a", 3, [](fc::Ctx&) {}).component("b", 1, [](fc::Ctx&) {});
      }
      r.run();
    } catch (const force::util::CheckError&) {
      errors.fetch_add(1);
    }
  });
  // With np=2 both partitions are {1,1}, so this particular divergence is
  // harmless; the construct must either run or flag it - never hang.
  SUCCEED();
}

TEST(Resolve, EmptyResolveThrows) {
  force::Force f({.nproc = 2});
  std::atomic<int> errors{0};
  f.run([&](fc::Ctx& ctx) {
    try {
      ctx.resolve(FORCE_SITE).run();
    } catch (const force::util::CheckError&) {
      errors.fetch_add(1);
    }
  });
  EXPECT_EQ(errors.load(), 2);
}
