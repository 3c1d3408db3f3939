// Barriers with barrier sections (paper §3.4, §4.2; algorithms per [AJ87],
// "Comparing Barrier Algorithms").
//
// Force semantics: at a barrier all processes wait for each other; one
// arbitrary process then executes the barrier section while all others
// remain suspended; when it leaves the section, everyone proceeds. A
// barrier must be reusable (programs put them inside sequential loops).
//
// Four algorithms are provided, matching the families [AJ87] compares:
//
//   * paper-lock    - built from generic Force locks only (two turnstiles
//                     and a counter), the shape a lock-only machine uses;
//   * central-sense - one arrival counter + an episode word as the sense;
//   * tree          - binary combining tree arrival, episode-stamped release;
//   * dissemination - log2(P) rounds of pairwise signalling (no natural
//                     champion, so the section costs one extra mini-phase).
//
// All algorithms implement the same interface and all support sections, so
// bench E2 can sweep them under identical workloads. Every wait is on a
// machdep::WaitWord. central-sense keeps its words in site state, so it is
// also the barrier of every site under os-fork (name observers see
// "central-sense" there); the cluster backend brings its own engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machdep/backend.hpp"
#include "machdep/locks.hpp"
#include "machdep/waitword.hpp"

namespace force::core {

class ForceEnvironment;

/// A reusable barrier over a fixed set of `width` processes (0-based ids).
class BarrierAlgorithm {
 public:
  virtual ~BarrierAlgorithm() = default;

  /// Waits for all processes; `section` (may be empty) runs exactly once
  /// per episode, by exactly one process, while the others are suspended.
  virtual void arrive(int proc0, const std::function<void()>& section) = 0;
  void arrive(int proc0) { arrive(proc0, no_section()); }

  /// The canonical empty barrier section. The no-section overload used to
  /// materialize a fresh std::function temporary from nullptr at every
  /// call; all no-section arrivals now share this one empty instance, and
  /// every algorithm routes through run_section()/has_section() below so
  /// the emptiness check lives in exactly one place.
  static const std::function<void()>& no_section();

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual int width() const = 0;

 protected:
  /// Runs `section` iff it has a target; never throws on an empty one.
  static void run_section(const std::function<void()>& section) {
    if (section) section();
  }
  static bool has_section(const std::function<void()>& section) {
    return static_cast<bool>(section);
  }
};

/// The lock-only barrier: mutex lock + two turnstile locks + counter, the
/// construction available on every 1989 machine (cf. the BARWIN / BARWOT /
/// ZZNBAR environment variables in the paper's macro expansion).
class PaperLockBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  PaperLockBarrier(ForceEnvironment& env, int width);
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return "paper-lock"; }
  int width() const override { return width_; }

 private:
  int width_;
  int count_ = 0;  // guarded by *mutex_
  std::unique_ptr<machdep::BasicLock> mutex_;
  std::unique_ptr<machdep::BasicLock> turnstile1_;  // starts locked
  std::unique_ptr<machdep::BasicLock> turnstile2_;  // starts unlocked
};

/// The episode barrier: the width-th arrival runs the section, resets the
/// count and bumps the episode the others wait on, so no process keeps a
/// local sense. Both words are site state ("barrier/<key>"): the barrier
/// spans os-fork children, and a death scrub re-arms it.
class CentralSenseBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  /// An empty `key` makes an anonymous site.
  CentralSenseBarrier(ForceEnvironment& env, int width,
                      const std::string& key);
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return "central-sense"; }
  int width() const override { return width_; }

  /// The barrier's shared words; all-zero is a fresh barrier.
  struct State {
    alignas(64) std::atomic<std::uint32_t> count{0};
    alignas(64) machdep::WaitWord episode;
  };

 private:
  int width_;
  State* state_;
  std::string label_;  // last-known site of a parked os-fork process
};

/// Binary combining tree: arrivals propagate up; the root (champion) runs
/// the section and flips the global sense.
class TreeBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  explicit TreeBarrier(int width);
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return "tree"; }
  int width() const override { return width_; }

 private:
  // One cache line per process: its arrival stamp (read by the parent in
  // the combining tree) and its private episode counter.
  struct alignas(64) Slot {
    machdep::WaitWord arrival;
    std::uint32_t episode = 0;
  };
  int width_;
  std::vector<Slot> slots_;
  machdep::WaitWord release_;
};

/// Dissemination barrier: ceil(log2 P) rounds; process i signals
/// (i + 2^r) mod P each round. Symmetric, no champion: when a section is
/// requested, process 0 runs it behind an extra release flag.
class DisseminationBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  explicit DisseminationBarrier(int width);
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return "dissemination"; }
  int width() const override { return width_; }

 private:
  struct alignas(64) Flag : machdep::WaitWord {};
  struct alignas(64) Episode {
    std::uint32_t value = 0;
  };
  int width_;
  int rounds_;
  std::vector<Flag> flags_;  // flags_[proc * rounds_ + round], episode-stamped
  std::vector<Episode> episode_;  // per-process episode counter
  machdep::WaitWord section_done_;
};

/// Adapter over the backend's keyed BarrierEngine - the cluster's
/// coordinator barrier, for a backend with no shared memory. Core never
/// names the substrate: ForceEnvironment::make_site_barrier asks the
/// backend for an engine and wraps it here.
class EngineBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  EngineBarrier(int width, std::unique_ptr<machdep::BarrierEngine> engine);
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return engine_->name(); }
  int width() const override { return width_; }

 private:
  int width_;
  std::unique_ptr<machdep::BarrierEngine> engine_;
};

/// Names accepted by make_barrier / ForceConfig::barrier_algorithm.
std::vector<std::string> barrier_algorithm_names();

/// Factory; throws on unknown names. `key` is the site of central-sense's
/// state (empty = anonymous).
std::unique_ptr<BarrierAlgorithm> make_barrier_algorithm(
    const std::string& name, ForceEnvironment& env, int width,
    const std::string& key = "");

}  // namespace force::core
