#include "core/barrier.hpp"

#include <bit>

#include "core/env.hpp"
#include "util/check.hpp"

namespace force::core {

const std::function<void()>& BarrierAlgorithm::no_section() {
  static const std::function<void()> kEmpty;
  return kEmpty;
}

BarrierAlgorithm::BarrierAlgorithm(int width, std::string site)
    : width_(width), site_(std::move(site)), label_("barrier '" + site_ + "'") {
  FORCE_CHECK(width_ > 0, "barrier width must be positive");
}

void BarrierAlgorithm::arrive(int proc0, const std::function<void()>& section) {
  FORCE_CHECK(proc0 >= 0 && proc0 < width_, "barrier process id out of range");
  run_episode(proc0, section);
}

// ---------------------------------------------------------------------------
// PaperLockBarrier: the reusable two-turnstile barrier built exclusively
// from generic Force locks (binary semaphores) - the construction available
// on every 1989 machine. The barrier section runs in the last arriver,
// which holds the entry mutex, so all other processes are provably parked
// before turnstile 1. The lock labels key the locks' arena words and are
// the site a process parked on one reports, so they name the barrier.
// ---------------------------------------------------------------------------

PaperLockBarrier::PaperLockBarrier(ForceEnvironment& env, int width,
                                   const std::string& key)
    : BarrierAlgorithm(width, env.site_key_or_anonymous(key)),
      count_(&env.site_state<int>("barrier/" + site_)),
      mutex_(env.new_lock(machdep::LockRole::kMutex, label_ + ".mutex")),
      // The phase-1 gate starts closed.
      turnstile1_(env.new_lock(machdep::LockRole::kSemaphore,
                               label_ + ".turnstile1", /*held=*/true)),
      turnstile2_(env.new_lock(machdep::LockRole::kSemaphore,
                               label_ + ".turnstile2")) {}

void PaperLockBarrier::run_episode(int /*proc0*/,
                                   const std::function<void()>& section) {
  // Phase 1: count arrivals; the last arriver re-arms the phase-2 gate,
  // runs the barrier section and opens the phase-1 gate.
  mutex_->acquire();
  if (++*count_ == width_) {
    turnstile2_->acquire();
    run_section(section);
    turnstile1_->release();
  }
  mutex_->release();
  turnstile1_->acquire();  // pass the gate...
  turnstile1_->release();  // ...and hand the baton to the next process

  // Phase 2: count departures; the last process out re-arms the phase-1
  // gate and opens phase 2, making the barrier safely reusable.
  mutex_->acquire();
  if (--*count_ == 0) {
    turnstile1_->acquire();
    turnstile2_->release();
  }
  mutex_->release();
  turnstile2_->acquire();
  turnstile2_->release();
}

// ---------------------------------------------------------------------------
// CentralSenseBarrier
// ---------------------------------------------------------------------------

CentralSenseBarrier::CentralSenseBarrier(ForceEnvironment& env, int width,
                                         const std::string& key)
    : BarrierAlgorithm(width, env.site_key_or_anonymous(key)),
      state_(&env.site_state<State>("barrier/" + site_)) {}

void CentralSenseBarrier::run_episode(int /*proc0*/,
                                      const std::function<void()>& section) {
  State& st = *state_;
  // Read before counting in: this episode cannot end without this arrival.
  const std::uint32_t ep = st.episode.load();
  if (st.count.fetch_add(1, std::memory_order_acq_rel) ==
      static_cast<std::uint32_t>(width_ - 1)) {
    // Champion. The episode store publishes the count reset: a process
    // re-arriving must first see episode != ep.
    run_section(section);
    st.count.store(0, std::memory_order_relaxed);
    st.episode.store(ep + 1);
  } else {
    st.episode.wait_until([ep](std::uint32_t v) { return v != ep; },
                          label_.c_str());
  }
}

// ---------------------------------------------------------------------------
// TreeBarrier: pairwise combining by rank. In round r, ranks that are
// multiples of 2^(r+1) collect the arrival of rank + 2^r; other ranks
// publish their arrival stamp and drop to the release wait. Rank 0 ends up
// the champion, runs the section, and publishes the release stamp.
// ---------------------------------------------------------------------------

TreeBarrier::TreeBarrier(ForceEnvironment& env, int width,
                         const std::string& key)
    : BarrierAlgorithm(width, env.site_key_or_anonymous(key)) {
  state_ = &env.site_state<State>("barrier/" + site_,
                                  static_cast<std::size_t>(width), slots_);
}

void TreeBarrier::run_episode(int proc0,
                              const std::function<void()>& section) {
  Slot& me = slots_[proc0];
  const std::uint32_t ep = ++me.episode;

  for (int r = 0; (1 << r) < width_; ++r) {
    const int span = 1 << (r + 1);
    if (proc0 % span == 0) {
      const int child = proc0 + (1 << r);
      if (child < width_) {
        slots_[child].arrival.wait_episode(ep, label_.c_str());
      }
    } else {
      // Subtree fully combined (rounds 0..r-1 won); report and stop.
      me.arrival.store(ep);
      break;
    }
  }

  if (proc0 == 0) {
    run_section(section);
    state_->release.store(ep);
  } else {
    state_->release.wait_episode(ep, label_.c_str());
  }
}

// ---------------------------------------------------------------------------
// DisseminationBarrier
// ---------------------------------------------------------------------------

DisseminationBarrier::DisseminationBarrier(ForceEnvironment& env, int width,
                                           const std::string& key)
    : BarrierAlgorithm(width, env.site_key_or_anonymous(key)),
      rounds_(width > 1 ? std::bit_width(static_cast<unsigned>(width - 1))
                        : 0) {
  const auto lines = static_cast<std::size_t>(width * rounds_);
  state_ = &env.site_state<State>("barrier/" + site_,
                                  lines + static_cast<std::size_t>(width),
                                  flags_);
  episodes_ = flags_ + lines;
}

void DisseminationBarrier::run_episode(int proc0,
                                       const std::function<void()>& section) {
  std::atomic<std::uint32_t>& mine = episodes_[proc0].value;
  const std::uint32_t ep = mine.load(std::memory_order_relaxed) + 1;
  mine.store(ep, std::memory_order_relaxed);

  for (int r = 0; r < rounds_; ++r) {
    const int dest = (proc0 + (1 << r)) % width_;
    flags_[dest * rounds_ + r].store(ep);
    flags_[proc0 * rounds_ + r].wait_episode(ep, label_.c_str());
  }

  if (has_section(section)) {
    // No natural champion: rank 0 runs the section behind one extra flag.
    if (proc0 == 0) {
      section();
      state_->section_done.store(ep);
    } else {
      state_->section_done.wait_episode(ep, label_.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// EngineBarrier
// ---------------------------------------------------------------------------

EngineBarrier::EngineBarrier(int width, const std::string& key,
                             std::unique_ptr<machdep::BarrierEngine> engine)
    : BarrierAlgorithm(width, key), engine_(std::move(engine)) {
  FORCE_CHECK(engine_ != nullptr, "EngineBarrier needs a barrier engine");
}

void EngineBarrier::run_episode(int proc0,
                                const std::function<void()>& section) {
  engine_->arrive(proc0, has_section(section) ? &section : nullptr);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::vector<std::string> barrier_algorithm_names() {
  return {"paper-lock", "central-sense", "tree", "dissemination"};
}

std::unique_ptr<BarrierAlgorithm> make_barrier_algorithm(
    const std::string& name, ForceEnvironment& env, int width,
    const std::string& key) {
  if (name == "paper-lock")
    return std::make_unique<PaperLockBarrier>(env, width, key);
  if (name == "central-sense")
    return std::make_unique<CentralSenseBarrier>(env, width, key);
  if (name == "tree") return std::make_unique<TreeBarrier>(env, width, key);
  if (name == "dissemination")
    return std::make_unique<DisseminationBarrier>(env, width, key);
  FORCE_CHECK(false, "unknown barrier algorithm: " + name);
}

}  // namespace force::core
