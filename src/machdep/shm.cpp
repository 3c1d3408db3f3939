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

// --- process-shared askfor monitor -----------------------------------------

std::size_t shm_askfor_bytes(std::uint32_t capacity, std::uint32_t stride) {
  return sizeof(ShmAskforState) +
         static_cast<std::size_t>(capacity) * stride;
}

namespace {
std::byte* ring_base(ShmAskforState& a) {
  return reinterpret_cast<std::byte*>(&a + 1);
}

std::byte* ring_slot(ShmAskforState& a, std::uint32_t index) {
  return ring_base(a) + static_cast<std::size_t>(index % a.capacity) * a.stride;
}

void bump_version(ShmAskforState& a) {
  a.version.fetch_add(1, std::memory_order_release);
  futex_wake(&a.version, -1);
}
}  // namespace

void shm_askfor_init(void* blob, std::uint32_t capacity,
                     std::uint32_t stride) {
  FORCE_CHECK(capacity > 0 && stride > 0, "askfor ring needs a shape");
  auto* a = ::new (blob) ShmAskforState();
  a->capacity = capacity;
  a->stride = stride;
}

void shm_askfor_rearm(ShmAskforState& a, std::uint32_t gen) {
  if (a.seen_gen.load(std::memory_order_acquire) == gen) return;
  shm_lock_acquire(a.monitor);
  if (a.seen_gen.load(std::memory_order_relaxed) != gen) {
    // Fresh force entry on a reused site: clear the previous episode. Any
    // tokens still queued belonged to a probend()ed computation; the
    // stamp is the last write so racing first-ops of the same generation
    // see a fully reset ring.
    a.head = 0;
    a.tail = 0;
    a.working = 0;
    a.ended = 0;
    a.seen_gen.store(gen, std::memory_order_release);
  }
  shm_lock_release(a.monitor);
}

void shm_askfor_put(ShmAskforState& a, const void* task) {
  shm_lock_acquire(a.monitor);
  if (a.ended == kShmAskforProbend) {  // explicitly ended: dropped, as ever
    shm_lock_release(a.monitor);
    return;
  }
  // A drain is provisional: with the seed put() inside the force (only the
  // leader puts, everyone works), a sibling's first ask can find the ring
  // empty with nobody working and latch "drained" before the seed lands -
  // on a parked pool every member wakes hot at once, so the race is live,
  // not theoretical. The seed must never be lost: re-open the ring. The
  // raced siblings may already have left their work() loop; they just sit
  // at the next barrier while the remaining members (at least the seeder
  // itself) drain the work - fewer hands, same answer.
  if (a.ended == kShmAskforDrained) a.ended = 0;
  const bool full = a.tail - a.head >= a.capacity;
  if (full) {
    shm_lock_release(a.monitor);
    FORCE_CHECK(false,
                "os-fork askfor ring overflow; reduce fan-out or enlarge "
                "the per-site task capacity");
  }
  std::memcpy(ring_slot(a, a.tail), task, a.stride);
  ++a.tail;
  shm_lock_release(a.monitor);
  bump_version(a);
}

bool shm_askfor_ask(ShmAskforState& a, void* out, const char* label) {
  note_site(label);
  for (;;) {
    check_poison();
    shm_lock_acquire(a.monitor);
    if (a.ended != 0) {
      shm_lock_release(a.monitor);
      return false;
    }
    if (a.head != a.tail) {
      std::memcpy(out, ring_slot(a, a.head), a.stride);
      ++a.head;
      ++a.working;
      a.granted.fetch_add(1, std::memory_order_relaxed);
      shm_lock_release(a.monitor);
      return true;
    }
    if (a.working == 0) {
      // Drained: no tokens anywhere and nobody who could put() more.
      // Latch the end so every parked process leaves too.
      a.ended = kShmAskforDrained;
      shm_lock_release(a.monitor);
      bump_version(a);
      return false;
    }
    // No work *right now*, but a working process may still put() more:
    // sleep on the version word until something changes.
    const std::uint32_t v = a.version.load(std::memory_order_acquire);
    shm_lock_release(a.monitor);
    park_on(a.version, v);
  }
}

void shm_askfor_complete(ShmAskforState& a) {
  shm_lock_acquire(a.monitor);
  --a.working;
  const bool drained = a.working == 0 && a.head == a.tail;
  shm_lock_release(a.monitor);
  // Wake parked askers so the drained case latches promptly (put() has
  // already bumped the version for the new-work case).
  if (drained) bump_version(a);
}

void shm_askfor_probend(ShmAskforState& a) {
  shm_lock_acquire(a.monitor);
  a.ended = kShmAskforProbend;
  shm_lock_release(a.monitor);
  bump_version(a);
}

bool shm_askfor_ended(const ShmAskforState& a) {
  auto& m = const_cast<ShmAskforState&>(a);
  shm_lock_acquire(m.monitor);
  const bool e = m.ended != 0;
  shm_lock_release(m.monitor);
  return e;
}

}  // namespace force::machdep::shm
