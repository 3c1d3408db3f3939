// Process-shared synchronization primitives for the kOsFork backend.
//
// The thread-emulated process models can lean on std::mutex and on
// std::atomic::wait, but neither survives a real fork(): std::mutex is
// undefined across address spaces and libstdc++'s atomic wait uses a
// per-process proxy table, so a waiter in one process is invisible to a
// notifier in another. Everything here works on *address-free* atomic
// words that live in a MAP_SHARED mapping, woken with raw futex syscalls
// on Linux (FUTEX_WAIT / FUTEX_WAKE without the PRIVATE flag, so the wait
// queue is keyed by physical page) and with a bounded sleep-poll fallback
// elsewhere.
//
// Liveness contract: every blocking wait is *bounded* (one futex slice at
// a time, machdep::park_on) and re-checks the installed team-poison word
// between slices. When the parent reaps a dead child it poisons the team;
// survivors parked in any primitive here throw TeamPoisoned within one
// slice instead of waiting forever on a peer that no longer exists. This
// is the "never deadlocks the survivors" half of the robust-join design.
//
// All state structs are trivially destructible PODs so they can live in
// the SharedArena (which reclaims storage as raw bytes) and be addressed
// by name from every process. Constructs need no struct here: the core
// keeps barriers, async variables and askfor monitors in site state over
// WaitWords, HEP cells or ShmLocks.
//
// AnonMapping, the demand-zero anonymous mapping under the arena, the
// private segments and the fiber stacks, lives here too: its shared flavour
// is what makes the arena visible across fork().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "machdep/locks.hpp"

namespace force::machdep::shm {

/// One bounded wait slice; poison is re-checked at this period.
constexpr std::int64_t kWaitSliceNs = 10'000'000;  // 10 ms

// --- futex layer -----------------------------------------------------------

static_assert(sizeof(std::atomic<std::uint32_t>) == 4,
              "futex words must be exactly 32 bits");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shared-memory words must be address-free atomics");

/// Sleeps until `*word != expected` is *likely* (spurious wakeups allowed;
/// callers always re-check), for at most `timeout_ns`. Cross-process: the
/// kernel keys the wait queue by the physical page behind `word`.
void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                std::int64_t timeout_ns = kWaitSliceNs);

/// Wakes up to `count` waiters (`count < 0` means all).
void futex_wake(std::atomic<std::uint32_t>* word, int count);

// --- team poison -----------------------------------------------------------

/// Thrown out of any shm wait when the team has been poisoned (a sibling
/// process died). Forked children translate it into a quiet collateral
/// exit; the parent reports only the primary death.
class TeamPoisoned : public std::runtime_error {
 public:
  TeamPoisoned() : std::runtime_error(
      "force team poisoned: a sibling process died") {}
};

/// Installs the team-wide poison word (in the control mapping) for the
/// duration of a fork run; `nullptr` uninstalls. Not thread-safe against
/// concurrent runs - one fork team per process at a time, which is the
/// Force's one-driver model anyway.
void set_team_poison(std::atomic<std::uint32_t>* word);

/// Throws TeamPoisoned when a poison word is installed and set; called
/// between wait slices by every blocking wait (machdep::park_on).
void check_poison();

// --- last-known construct site ---------------------------------------------

/// Installs the calling process's site slot (a char buffer inside the
/// team control mapping). Blocking primitives record the label of the
/// construct they are waiting at, so the parent can name the last-known
/// construct site of a process that died.
void set_site_slot(char* slot, std::size_t capacity);

/// Records `label` in the installed slot (no-op when none is installed).
void note_site(const char* label);

// --- anonymous mappings ----------------------------------------------------

/// RAII over one anonymous mmap region. Its pages are demand-zero: the
/// kernel maps a zeroed page on first touch, so a buffer that must start
/// zeroed costs nothing until it is used, and fork(2) copies the page
/// tables of only the pages that were touched. Runtime-owned buffers that
/// start zeroed (arena storage, private segments, fiber stacks) use this
/// instead of value-initialised heap memory.
///
///   * kPrivate - MAP_PRIVATE: ordinary process memory; a forked child
///                gets its own copy-on-write image.
///   * kShared  - MAP_SHARED: created before fork(); parent and children
///                then address the same pages at the same virtual address.
///                The pages live until the last process unmaps them.
///
/// A zero-byte mapping is empty (data() is null). Movable, not copyable.
class AnonMapping {
 public:
  enum class Sharing { kPrivate, kShared };

  AnonMapping() = default;
  AnonMapping(std::size_t bytes, Sharing sharing);
  ~AnonMapping();

  AnonMapping(AnonMapping&& other) noexcept;
  AnonMapping& operator=(AnonMapping&& other) noexcept;
  AnonMapping(const AnonMapping&) = delete;
  AnonMapping& operator=(const AnonMapping&) = delete;

  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return bytes_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
};

// --- process-shared lock ---------------------------------------------------

/// The futex word of one process-shared binary semaphore.
/// 0 = free, 1 = held (no waiters advertised), 2 = held + waiters.
/// `initial` is the state the lock was declared with (0 free, 1 held);
/// death recovery puts the word back to it.
struct ShmLockState {
  explicit ShmLockState(std::uint32_t held = 0) : word(held), initial(held) {}
  std::atomic<std::uint32_t> word;
  std::uint32_t initial;
};

void shm_lock_acquire(ShmLockState& s);
bool shm_lock_try_acquire(ShmLockState& s);
void shm_lock_release(ShmLockState& s);

/// BasicLock façade over an arena-resident ShmLockState, so the generic
/// lock engine (critical sections, named locks, monitors) works across
/// address spaces without the constructs changing. The wrapper object is
/// per-process; only the state word is shared. Cross-process release is
/// legal, as the Force lock contract requires.
class ShmLock final : public BasicLock {
 public:
  ShmLock(ShmLockState* state, std::string label)
      : state_(state), label_(std::move(label)) {}

  void acquire() override {
    note_site(label_.c_str());
    shm_lock_acquire(*state_);
  }
  bool try_acquire() override { return shm_lock_try_acquire(*state_); }
  void release() override { shm_lock_release(*state_); }
  const char* mechanism() const override { return "futex-shared"; }

  [[nodiscard]] const std::string& label() const { return label_; }

 private:
  ShmLockState* state_;
  std::string label_;
};

}  // namespace force::machdep::shm
