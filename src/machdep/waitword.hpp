// The runtime's one waiting policy (perfbook's "spin, then block"): spin,
// then park_on() - a team-poison check and one bounded slice on the
// process-shared futex, so a word works between threads and between fork(2)
// children alike. An N:M pooled member yields its continuation instead of
// sleeping: the store it waits for may belong to a sibling on its worker.
//
// WaitWord is that policy over one 32-bit word plus a sleeper count, so a
// store wakes only when somebody is parked. All-zero bytes are a fresh
// word: it can live in construct site state (the MAP_SHARED arena). A wait
// on the word's own value uses store()/wait_until(); a wait on a condition
// kept elsewhere (an eventcount: the askfor monitor's idle askers) uses
// notify()/await().
#pragma once

#include <atomic>
#include <cstdint>

#include "machdep/fiber.hpp"
#include "machdep/locks.hpp"

namespace force::machdep {

/// The spin before every park: cpu_relax() pauses, then member_yield()s.
/// Sixteen yields outlast a barrier episode's skew on a loaded team, where
/// four sent most tree and dissemination waits to the futex (~10 us each).
inline constexpr int kSpinRelax = 12;
inline constexpr int kSpinYield = 16;

/// Pauses for spin round `round`; false once the caller should park.
inline bool spin_pause(int round) {
  if (round >= kSpinRelax + kSpinYield) return false;
  if (round < kSpinRelax) {
    cpu_relax();
  } else {
    member_yield();
  }
  return true;
}

/// The park step of every blocking wait: throws shm::TeamPoisoned when the
/// team is poisoned; a fiber yields; otherwise sleeps one bounded futex
/// slice on `word` while it holds `seen`. Callers re-check on return.
void park_on(std::atomic<std::uint32_t>& word, std::uint32_t seen);

/// Records `site` as the calling process's last-known construct site, the
/// one an os-fork death report names (a no-op on the other backends).
void note_site(const char* site);

/// Wrap-safe: true when episode stamp `v` has reached episode `ep`.
constexpr bool episode_reached(std::uint32_t v, std::uint32_t ep) {
  return static_cast<std::int32_t>(v - ep) >= 0;
}

struct WaitWord {
  std::atomic<std::uint32_t> value{0};
  std::atomic<std::uint32_t> sleepers{0};  ///< waiters that may be parked

  [[nodiscard]] std::uint32_t load() const {
    return value.load(std::memory_order_acquire);
  }

  /// Publishes `v`, waking the parked waiters if there are any.
  void store(std::uint32_t v);

  /// Wakes the waiters of await() after their condition became true; only
  /// a fence and a load when nobody is parked.
  void notify();

  /// Waits until `ready()` holds. A waiter about to park counts itself a
  /// sleeper first and then re-checks `ready()`, so a store() or notify()
  /// that raced the check either sees the sleeper or is seen by it.
  /// `site` (may be null) is noted as the process's last-known site.
  template <typename Ready>
  void await(Ready ready, const char* site = nullptr) {
    for (int round = 0; !ready(); ++round) {
      if (spin_pause(round)) continue;
      if (on_fiber()) {  // yields: no wake to ask for
        park_on(value, value.load(std::memory_order_acquire));
        continue;
      }
      const std::uint32_t seen = value.load(std::memory_order_seq_cst);
      const Sleeper sleeper(*this, site);
      if (!ready()) park_on(value, seen);
    }
  }

  /// Waits until `pred(value)` holds; returns the value that satisfied it.
  template <typename Pred>
  std::uint32_t wait_until(Pred pred, const char* site = nullptr) {
    std::uint32_t v = 0;
    await([&] { return pred(v = load()); }, site);
    return v;
  }

  /// Waits until the stamp has reached episode `ep`.
  void wait_episode(std::uint32_t ep, const char* site = nullptr) {
    wait_until([ep](std::uint32_t v) { return episode_reached(v, ep); },
               site);
  }

 private:
  /// Counts one parking waiter for its scope (also when park_on throws).
  struct Sleeper {
    Sleeper(WaitWord& w, const char* site);
    ~Sleeper();
    Sleeper(const Sleeper&) = delete;
    Sleeper& operator=(const Sleeper&) = delete;
    WaitWord& word;
  };
};

}  // namespace force::machdep
