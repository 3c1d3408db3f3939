#include "machdep/hepcell.hpp"

#include "machdep/fiber.hpp"
#include "machdep/locks.hpp"
#include "machdep/shm.hpp"

namespace force::machdep {

namespace {
std::atomic<std::uint64_t> g_hep_waits{0};

/// A blocked access pauses this many times, then yields this many times,
/// before it parks: the spin libstdc++'s atomic wait makes before its
/// futex, so a handoff between two running threads rarely sleeps.
constexpr int kSpinRelax = 12;
constexpr int kSpinYield = 4;
}  // namespace

HepCell::HepCell(std::uint64_t initial_value)
    : state_(kFull), value_(initial_value) {}

std::uint32_t HepCell::await_and_seize(std::uint32_t from) {
  // First guess: the cell is in `from` and nobody is parked. A failed CAS
  // reloads `s` with the actual word.
  std::uint32_t s = from == kStable ? kEmpty : from;
  for (int spin = 0;; ++spin) {
    const std::uint32_t now = s & kStateMask;
    if (from == kStable ? now != kBusy : now == from) {
      const std::uint32_t busy = kBusy | (s & kWaiters);
      if (state_.compare_exchange_weak(s, busy, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return busy;
      }
      continue;
    }
    if (spin < kSpinRelax) {
      cpu_relax();
    } else {
      if (spin == kSpinRelax) {
        g_hep_waits.fetch_add(1, std::memory_order_relaxed);
      }
      // A busy word is never marked or slept on: its owner alone writes
      // it, so the publish that ends the window needs no atomic
      // read-modify-write to see the mark. The window is a few stores, so
      // a waiter yields until it ends (a dead owner poisons the team). An
      // N:M pooled member never parks either: the access it waits for may
      // be scheduled on this very worker thread.
      if (now == kBusy || spin < kSpinRelax + kSpinYield || on_fiber()) {
        shm::check_poison();
        member_yield();
      } else {
        park(s);
      }
    }
    s = state_.load(std::memory_order_relaxed);
  }
}

void HepCell::park(std::uint32_t seen) {
  // Mark before parking. The mark-setting CAS fails if the state moved,
  // and then the caller re-checks instead of sleeping.
  if ((seen & kWaiters) == 0 &&
      !state_.compare_exchange_strong(seen, seen | kWaiters,
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
    return;
  }
  shm::check_poison();
  shm::futex_wait(&state_, seen | kWaiters);
}

std::uint32_t HepCell::try_seize(std::uint32_t from) {
  std::uint32_t s = state_.load(std::memory_order_relaxed);
  while ((s & kStateMask) == from) {
    const std::uint32_t busy = kBusy | (s & kWaiters);
    if (state_.compare_exchange_weak(s, busy, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return busy;
    }
  }
  return 0;
}

void HepCell::publish(std::uint32_t to, std::uint32_t busy) {
  state_.store(to, std::memory_order_release);
  if ((busy & kWaiters) != 0) shm::futex_wake(&state_, -1);
}

void HepCell::produce(std::uint64_t value) {
  const std::uint32_t busy = await_and_seize(kEmpty);
  value_ = value;
  publish(kFull, busy);
}

std::uint64_t HepCell::consume() {
  const std::uint32_t busy = await_and_seize(kFull);
  const std::uint64_t v = value_;
  publish(kEmpty, busy);
  return v;
}

std::uint64_t HepCell::copy() const {
  auto* self = const_cast<HepCell*>(this);
  const std::uint32_t busy = self->await_and_seize(kFull);
  const std::uint64_t v = value_;
  self->publish(kFull, busy);
  return v;
}

void HepCell::make_empty() {
  // Void must succeed from any state: wait out a busy window only.
  publish(kEmpty, await_and_seize(kStable));
}

void HepCell::make_full(std::uint64_t value) {
  const std::uint32_t busy = await_and_seize(kStable);
  value_ = value;
  publish(kFull, busy);
}

bool HepCell::try_produce(std::uint64_t value) {
  const std::uint32_t busy = try_seize(kEmpty);
  if (busy == 0) return false;
  value_ = value;
  publish(kFull, busy);
  return true;
}

bool HepCell::try_consume(std::uint64_t* out) {
  const std::uint32_t busy = try_seize(kFull);
  if (busy == 0) return false;
  *out = value_;
  publish(kEmpty, busy);
  return true;
}

bool HepCell::is_full() const {
  return (state_.load(std::memory_order_acquire) & kStateMask) == kFull;
}

std::uint64_t HepCell::total_waits() {
  return g_hep_waits.load(std::memory_order_relaxed);
}

void HepCell::reset_wait_counter() {
  g_hep_waits.store(0, std::memory_order_relaxed);
}

}  // namespace force::machdep
