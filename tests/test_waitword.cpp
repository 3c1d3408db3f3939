// machdep::WaitWord: the one spin-then-park wait of the runtime. The word
// must hand values between fork(2) children (it parks on the process-shared
// futex), release a parked waiter when the team is poisoned, compare
// episode stamps across the 2^32 wrap, and make a store without sleepers
// free of wake calls.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/barrier.hpp"
#include "core/env.hpp"
#include "machdep/shm.hpp"
#include "machdep/waitword.hpp"

namespace fc = force::core;
namespace md = force::machdep;

namespace {

/// Uninstalls the team poison word however the test leaves.
struct PoisonScope {
  explicit PoisonScope(std::atomic<std::uint32_t>* word) {
    md::shm::set_team_poison(word);
  }
  ~PoisonScope() { md::shm::set_team_poison(nullptr); }
};

}  // namespace

TEST(WaitWordAcrossFork, ParentAndForkedChildPingPong) {
  md::shm::AnonMapping shared(2 * sizeof(md::WaitWord),
                              md::shm::AnonMapping::Sharing::kShared);
  auto* ping = ::new (shared.data()) md::WaitWord;
  auto* pong = ::new (shared.data() + sizeof(md::WaitWord)) md::WaitWord;
  constexpr std::uint32_t kRounds = 40;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    for (std::uint32_t i = 1; i <= kRounds; ++i) {
      const std::uint32_t got =
          ping->wait_until([i](std::uint32_t v) { return v == i; });
      pong->store(2 * got);
    }
    _exit(0);
  }
  for (std::uint32_t i = 1; i <= kRounds; ++i) {
    // Every few rounds the child has long been parked when the word comes.
    if (i % 8 == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ping->store(i);
    EXPECT_EQ(pong->wait_until([i](std::uint32_t v) { return v == 2 * i; }),
              2 * i);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(ping->sleepers.load(), 0u);
  EXPECT_EQ(pong->sleepers.load(), 0u);
}

TEST(WaitWord, ParkedWaiterThrowsOnceTheTeamIsPoisoned) {
  std::atomic<std::uint32_t> poison{0};
  PoisonScope scope(&poison);
  md::WaitWord word;
  std::jthread killer([&] {
    // Long past the spin: the waiter is parked in a futex slice by now.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    poison.store(1);
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(word.wait_until([](std::uint32_t v) { return v != 0; }),
               md::shm::TeamPoisoned);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  // The throw leaves no advertised sleeper behind.
  EXPECT_EQ(word.sleepers.load(), 0u);
}

TEST(WaitWord, EpisodeComparisonsHoldAcrossTheWrap) {
  constexpr std::uint32_t kTop = 0xFFFFFFFFu;
  EXPECT_TRUE(md::episode_reached(5, 5));
  EXPECT_TRUE(md::episode_reached(6, 5));
  EXPECT_FALSE(md::episode_reached(4, 5));
  EXPECT_TRUE(md::episode_reached(0, kTop));  // 2^32 has reached 2^32 - 1
  EXPECT_TRUE(md::episode_reached(3, kTop - 1));
  EXPECT_FALSE(md::episode_reached(kTop, 0));
  EXPECT_FALSE(md::episode_reached(kTop - 1, 1));

  // A waiter for the first episode past the wrap is released by it, not
  // by the last episode before it.
  md::WaitWord word;
  word.value.store(kTop - 1);
  std::jthread storer([&] {
    word.store(kTop);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    word.store(0);
  });
  EXPECT_EQ(word.wait_until([](std::uint32_t v) {
    return md::episode_reached(v, 0);
  }),
            0u);
}

TEST(WaitWord, CentralSenseBarrierEpisodesCrossTheWrap) {
  constexpr int kWidth = 3;
  fc::ForceConfig cfg;
  cfg.nproc = kWidth;
  fc::ForceEnvironment env(cfg);
  fc::CentralSenseBarrier barrier(env, kWidth, "wrap");
  auto& state = env.site_state<fc::CentralSenseBarrier::State>("barrier/wrap");
  state.episode.value.store(0xFFFFFFFEu);
  std::atomic<int> sections{0};
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < kWidth; ++t) {
      team.emplace_back([&, t] {
        for (int e = 0; e < 4; ++e) barrier.arrive(t, [&] { ++sections; });
      });
    }
  }
  EXPECT_EQ(sections.load(), 4);
  EXPECT_EQ(state.episode.load(), 2u);
  EXPECT_EQ(state.count.load(), 0u);
}

TEST(WaitWord, StoreWithNoSleepersLeavesSleepersZero) {
  md::WaitWord word;
  word.store(1);
  EXPECT_EQ(word.sleepers.load(), 0u);
  EXPECT_EQ(word.wait_until([](std::uint32_t v) { return v == 1; }), 1u);
  EXPECT_EQ(word.sleepers.load(), 0u);

  // After a waiter parked and was woken, the count is back to zero too.
  std::jthread storer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    word.store(2);
  });
  word.wait_until([](std::uint32_t v) { return v == 2; });
  storer.join();
  EXPECT_EQ(word.sleepers.load(), 0u);
}
