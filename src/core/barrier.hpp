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
// bench E2 can sweep them under identical workloads. Each keeps its words
// in site state at "barrier/<key>" and takes its locks from the
// environment, so it runs unchanged under threads and os-fork, and every
// wait names "barrier '<key>'". Only the cluster brings its own engine.
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
  void arrive(int proc0, const std::function<void()>& section);
  void arrive(int proc0) { arrive(proc0, no_section()); }

  /// The empty barrier section every no-section arrival shares; every
  /// algorithm tests a section through run_section()/has_section() below.
  static const std::function<void()>& no_section();

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] int width() const { return width_; }

 protected:
  /// `site` keys the barrier's state.
  BarrierAlgorithm(int width, std::string site);
  /// One episode for an in-range `proc0`.
  virtual void run_episode(int proc0,
                           const std::function<void()>& section) = 0;

  /// Runs `section` iff it has a target; never throws on an empty one.
  static void run_section(const std::function<void()>& section) {
    if (section) section();
  }
  static bool has_section(const std::function<void()>& section) {
    return static_cast<bool>(section);
  }

  const int width_;
  const std::string site_;
  const std::string label_;  // "barrier '<site>'": a parked process's site
};

/// The lock-only barrier: mutex lock + two turnstile locks + counter, the
/// construction available on every 1989 machine (cf. the BARWIN / BARWOT /
/// ZZNBAR environment variables in the paper's macro expansion).
class PaperLockBarrier final : public BarrierAlgorithm {
 public:
  PaperLockBarrier(ForceEnvironment& env, int width, const std::string& key);
  const char* name() const override { return "paper-lock"; }

 private:
  void run_episode(int proc0, const std::function<void()>& section) override;
  int* count_;  // site state, guarded by *mutex_
  std::unique_ptr<machdep::BasicLock> mutex_;
  std::unique_ptr<machdep::BasicLock> turnstile1_;  // starts locked
  std::unique_ptr<machdep::BasicLock> turnstile2_;  // starts unlocked
};

/// The episode barrier: the width-th arrival runs the section, resets the
/// count and bumps the episode the others wait on, so no process keeps a
/// local sense.
class CentralSenseBarrier final : public BarrierAlgorithm {
 public:
  CentralSenseBarrier(ForceEnvironment& env, int width,
                      const std::string& key);
  const char* name() const override { return "central-sense"; }

  /// The barrier's shared words; all-zero is a fresh barrier.
  struct State {
    alignas(64) std::atomic<std::uint32_t> count{0};
    alignas(64) machdep::WaitWord episode;
  };

 private:
  void run_episode(int proc0, const std::function<void()>& section) override;
  State* state_;
};

/// Binary combining tree: arrivals propagate up; the root (champion) runs
/// the section and publishes the release stamp.
class TreeBarrier final : public BarrierAlgorithm {
 public:
  TreeBarrier(ForceEnvironment& env, int width, const std::string& key);
  const char* name() const override { return "tree"; }

 private:
  void run_episode(int proc0, const std::function<void()>& section) override;
  // The release stamp, then one cache line per process: its arrival stamp
  // (read by the parent in the combining tree) and its episode counter.
  struct State {
    alignas(64) machdep::WaitWord release;
  };
  struct alignas(64) Slot {
    machdep::WaitWord arrival;
    std::uint32_t episode = 0;
  };
  State* state_ = nullptr;
  Slot* slots_ = nullptr;
};

/// Dissemination barrier: ceil(log2 P) rounds; process i signals
/// (i + 2^r) mod P each round. Symmetric, no champion: when a section is
/// requested, process 0 runs it behind an extra release flag.
class DisseminationBarrier final : public BarrierAlgorithm {
 public:
  DisseminationBarrier(ForceEnvironment& env, int width,
                       const std::string& key);
  const char* name() const override { return "dissemination"; }

 private:
  void run_episode(int proc0, const std::function<void()>& section) override;
  // The section's release stamp, then one cache line per word: the
  // episode-stamped flags, flags_[proc * rounds_ + round], and after them
  // each process's episode counter, a line only its owner touches.
  struct State {
    alignas(64) machdep::WaitWord section_done;
  };
  struct alignas(64) Line : machdep::WaitWord {};
  int rounds_;
  State* state_ = nullptr;
  Line* flags_ = nullptr;
  Line* episodes_ = nullptr;
};

/// Adapter over the backend's keyed BarrierEngine - the cluster's
/// coordinator barrier, for a backend with no shared memory. Core never
/// names the substrate: ForceEnvironment::make_site_barrier asks the
/// backend for an engine and wraps it here.
class EngineBarrier final : public BarrierAlgorithm {
 public:
  EngineBarrier(int width, const std::string& key,
                std::unique_ptr<machdep::BarrierEngine> engine);
  const char* name() const override { return engine_->name(); }

 private:
  void run_episode(int proc0, const std::function<void()>& section) override;
  std::unique_ptr<machdep::BarrierEngine> engine_;
};

/// Names accepted by make_barrier_algorithm and the config's algorithm.
std::vector<std::string> barrier_algorithm_names();

/// Factory; throws on unknown names. `key` is the barrier's site (empty =
/// anonymous).
std::unique_ptr<BarrierAlgorithm> make_barrier_algorithm(
    const std::string& name, ForceEnvironment& env, int width,
    const std::string& key = "");

}  // namespace force::core
