#include "machdep/shm.hpp"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "machdep/waitword.hpp"
#include "util/check.hpp"

#ifdef __linux__
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#else
#include <sys/mman.h>
#endif

namespace force::machdep::shm {

// --- futex layer -----------------------------------------------------------

void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                std::int64_t timeout_ns) {
#ifdef __linux__
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  // No FUTEX_PRIVATE_FLAG: the queue must be keyed by the shared page so
  // waiters and wakers in different address spaces find each other.
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAIT,
          expected, timeout_ns > 0 ? &ts : nullptr, nullptr, 0);
#else
  // Portable fallback: bounded sleep-poll. Correct (callers re-check) but
  // slower to wake; the Linux container never takes this path.
  const std::int64_t slice_ns = std::min<std::int64_t>(timeout_ns, 1'000'000);
  if (word->load(std::memory_order_acquire) == expected) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(slice_ns));
  }
#endif
}

void futex_wake(std::atomic<std::uint32_t>* word, int count) {
#ifdef __linux__
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
          count < 0 ? INT32_MAX : count, nullptr, nullptr, 0);
#else
  (void)word;
  (void)count;  // sleep-poll waiters wake by themselves
#endif
}

// --- team poison / site slot -----------------------------------------------

namespace {
// One fork team per process at a time (the Force's one-driver model), and
// forked children are single-threaded, so plain globals suffice. They are
// atomics anyway so thread-mode unit tests of these primitives stay clean.
std::atomic<std::atomic<std::uint32_t>*> g_poison{nullptr};
std::atomic<char*> g_site_slot{nullptr};
std::atomic<std::size_t> g_site_cap{0};
}  // namespace

void set_team_poison(std::atomic<std::uint32_t>* word) {
  g_poison.store(word, std::memory_order_release);
}

void check_poison() {
  std::atomic<std::uint32_t>* w = g_poison.load(std::memory_order_acquire);
  if (w != nullptr && w->load(std::memory_order_acquire) != 0) {
    throw TeamPoisoned();
  }
}

void set_site_slot(char* slot, std::size_t capacity) {
  g_site_slot.store(slot, std::memory_order_release);
  g_site_cap.store(capacity, std::memory_order_release);
}

void note_site(const char* label) {
  char* slot = g_site_slot.load(std::memory_order_acquire);
  if (slot == nullptr || label == nullptr) return;
  const std::size_t cap = g_site_cap.load(std::memory_order_acquire);
  if (cap == 0) return;
  // Best-effort: torn reads by the parent can only garble the *text* of a
  // diagnostic, never correctness, and the buffer stays NUL-terminated.
  std::strncpy(slot, label, cap - 1);
  slot[cap - 1] = '\0';
}

// --- anonymous mappings ----------------------------------------------------

AnonMapping::AnonMapping(std::size_t bytes, Sharing sharing) : bytes_(bytes) {
  if (bytes == 0) return;
  const int flags = MAP_ANONYMOUS |
                    (sharing == Sharing::kShared ? MAP_SHARED : MAP_PRIVATE);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, -1, 0);
  FORCE_CHECK(p != MAP_FAILED, "anonymous mmap failed for " +
                                   std::to_string(bytes) + " bytes");
  // Demand-zero pages: a valid initial state for every shm state struct in
  // this file, and for every buffer the runtime wants zeroed.
  data_ = static_cast<std::byte*>(p);
}

AnonMapping::~AnonMapping() {
  if (data_ != nullptr) ::munmap(data_, bytes_);
}

AnonMapping::AnonMapping(AnonMapping&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)) {}

AnonMapping& AnonMapping::operator=(AnonMapping&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, bytes_);
    data_ = std::exchange(other.data_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

// --- process-shared lock ---------------------------------------------------

void shm_lock_acquire(ShmLockState& s) {
  for (int round = 0;; ++round) {
    if (s.word.load(std::memory_order_relaxed) == 0 &&
        shm_lock_try_acquire(s)) {
      return;
    }
    if (!spin_pause(round)) break;
  }
  // Still contended: advertise a waiter (state 2) and park. Acquiring via
  // the exchange leaves the word at 2, so the eventual release always
  // wakes - one spurious wake per contention burst, never a lost one.
  while (s.word.exchange(2, std::memory_order_acquire) != 0) {
    park_on(s.word, 2);
  }
}

bool shm_lock_try_acquire(ShmLockState& s) {
  std::uint32_t c = 0;
  return s.word.compare_exchange_strong(c, 1, std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

void shm_lock_release(ShmLockState& s) {
  // Binary-semaphore contract: any process may release. Releasing an
  // unlocked lock is a caller bug; the exchange makes it harmless here.
  if (s.word.exchange(0, std::memory_order_release) == 2) {
    futex_wake(&s.word, 1);
  }
}

}  // namespace force::machdep::shm
