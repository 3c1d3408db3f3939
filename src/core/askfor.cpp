#include "core/askfor.hpp"

#include "core/env.hpp"
#include "core/sentry.hpp"
#include "machdep/fiber.hpp"
#include "machdep/waitword.hpp"

namespace force::core {

namespace {

/// One pending/working unit in the packed inflight counter: pending in
/// the low 32 bits, working in the high 32. A grant adds kGrantDelta -
/// pending-1 and working+1 in a single atomic RMW.
constexpr std::uint64_t kWorkingOne = std::uint64_t{1} << 32;
constexpr std::uint64_t kGrantDelta = kWorkingOne - 1;

/// Shared::latch values. A drain is provisional - put() racing behind it
/// re-opens the monitor, so a seed put from inside the force (the leader
/// puts, everyone works) is never silently lost when a sibling's first ask
/// latched "drained" first - while a probend is final for the force entry
/// and later put()s are dropped, as ever.
constexpr std::uint32_t kOpen = 0;
constexpr std::uint32_t kDrained = 1;
constexpr std::uint32_t kProbend = 2;

/// The calling thread's current worker binding. One binding per thread is
/// enough: a thread runs one work() loop at a time, and nested monitors
/// (a body driving a second Askfor) save and restore it via WorkerSlot.
struct TlsBinding {
  const void* core = nullptr;
  int slot = -1;
};
thread_local TlsBinding tls_binding;

}  // namespace

/// The monitor's shared header; all-zero bytes are a fresh monitor.
/// head, tail and working are guarded by the monitor lock (atomics only so
/// idle askers may peek at them); the rest is read lock-free.
struct AskforCore::Shared {
  std::atomic<std::uint32_t> head;     ///< central ring, monotonic
  std::atomic<std::uint32_t> tail;
  std::atomic<std::int32_t> working;   ///< lock engine only
  std::atomic<std::uint32_t> latch;    ///< kOpen, kDrained or kProbend
  /// Force-entry generation this monitor was last (re-)armed for.
  std::atomic<std::uint32_t> generation;
  std::atomic<std::uint64_t> granted;  ///< grants not tallied in a slot
  /// Fast path: tasks queued anywhere (low 32 bits) and tasks being
  /// executed (high 32 bits), packed so one load decides termination
  /// race-free: a grant moves one unit from pending to working in a
  /// single atomic add, so no interleaving can show "0 pending, 0
  /// working" while work is alive.
  alignas(64) std::atomic<std::uint64_t> inflight;
  /// Idle askers park here; put, the last complete, probend and the
  /// drained latch notify it.
  alignas(64) machdep::WaitWord idle;
};

/// One worker slot of the fast path: its steal deque, its holder flag and
/// its grant tally. The owner tallies grants with a relaxed increment on
/// its own cache line instead of two shared fetch-adds per grant; the
/// tally is cumulative and granted() sums it, while the env-stats delta
/// is flushed when the slot is released.
struct alignas(64) AskforCore::Slot {
  machdep::StealDeque deque;
  alignas(64) std::atomic<std::uint32_t> taken;
  std::atomic<std::uint64_t> grants;
  std::uint64_t reported;  ///< touched only by the slot holder
};

AskforCore::AskforCore(ForceEnvironment& env, std::size_t task_bytes,
                       const std::string& key)
    : env_(env),
      site_(env.site_key_or_anonymous(key)),
      label_("askfor '" + site_ + "'"),
      bytes_(task_bytes),
      nslots_(env.lock_free_dispatch() ? env.nproc() : 0),
      monitor_(env.new_lock(machdep::LockRole::kMutex, "askfor/" + site_)) {
  FORCE_CHECK(task_bytes > 0, "askfor task records need a size");
  const std::size_t words = machdep::record_words(bytes_);
  const std::size_t nslots = static_cast<std::size_t>(nslots_);
  const std::size_t ring_words = kRingCapacity * words;
  const std::size_t slots_at = sizeof(Shared);
  const std::size_t ring_at = slots_at + nslots * sizeof(Slot);
  const std::size_t bytes =
      ring_at + (ring_words + nslots * machdep::StealDeque::kCapacity * words) *
                    sizeof(machdep::RecordWord);
  auto* base = static_cast<std::byte*>(env.backend().site_state(
      "askfor/" + site_, bytes, alignof(Slot)));
  shared_ = reinterpret_cast<Shared*>(base);
  slots_ = reinterpret_cast<Slot*>(base + slots_at);
  ring_ = reinterpret_cast<machdep::RecordWord*>(base + ring_at);
  deque_cells_ = ring_ + ring_words;
}

AskforCore::~AskforCore() = default;

// ---------------------------------------------------------------------------
// Worker-slot registration (fast path only; a no-op shell otherwise).
// ---------------------------------------------------------------------------

AskforCore::WorkerSlot::WorkerSlot(AskforCore& core)
    : core_(core),
      // Never bind a deque to an N:M pooled member: two members share one
      // OS thread, so a thread_local slot binding would be clobbered (and
      // dangle) across continuation switches. Slotless workers are the
      // documented fallback - central ring plus stealing, same semantics.
      slot_(machdep::on_fiber() ? -1 : core.grab_slot()),
      saved_core_(tls_binding.core),
      saved_slot_(tls_binding.slot) {
  tls_binding.core = &core_;
  tls_binding.slot = slot_;
}

AskforCore::WorkerSlot::~WorkerSlot() {
  tls_binding.core = saved_core_;
  tls_binding.slot = saved_slot_;
  core_.release_slot(slot_);
}

int AskforCore::current_slot() const {
  return tls_binding.core == this ? tls_binding.slot : -1;
}

int AskforCore::grab_slot() {
  for (int i = 0; i < nslots_; ++i) {
    std::uint32_t expected = 0;
    if (slots_[i].taken.compare_exchange_strong(expected, 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
      return i;
    }
  }
  // More concurrent workers than nproc slots (or the lock engine): work
  // slotless (correct, just steals instead of owning a deque).
  return -1;
}

void AskforCore::release_slot(int slot) {
  if (slot < 0) return;
  // Flush this slot's grant tally into the env stats (the tally itself is
  // cumulative; granted() sums it live). The release/acquire pair on
  // `taken` hands `reported` to the next holder.
  Slot& s = slots_[slot];
  const std::uint64_t grants = s.grants.load(std::memory_order_relaxed);
  env_.stats().askfor_grants.fetch_add(grants - s.reported,
                                       std::memory_order_relaxed);
  s.reported = grants;
  // The deque stays with the site, not the slot holder: tasks left
  // behind (e.g. a body threw mid-episode) remain stealable, and the next
  // holder of the slot simply inherits them.
  s.taken.store(0, std::memory_order_release);
}

machdep::StealDeque::Cells AskforCore::cells(int slot) const {
  return {deque_cells_ + static_cast<std::size_t>(slot) *
                             machdep::StealDeque::kCapacity *
                             machdep::record_words(bytes_),
          bytes_};
}

// ---------------------------------------------------------------------------
// The central ring (monitor held).
// ---------------------------------------------------------------------------

machdep::RecordWord* AskforCore::ring_cell(std::uint32_t index) const {
  return ring_ + (index % kRingCapacity) * machdep::record_words(bytes_);
}

void AskforCore::put_central(const void* task) {
  Shared& s = *shared_;
  monitor_->acquire();
  const std::uint32_t tail = s.tail.load(std::memory_order_relaxed);
  const bool dropped = s.latch.load(std::memory_order_relaxed) == kProbend;
  const bool full =
      !dropped &&
      tail - s.head.load(std::memory_order_relaxed) >= kRingCapacity;
  if (!dropped && !full) {
    // A drained latch that beat this put is provisional: with the seed
    // put inside the force (the leader puts, everyone works), a sibling's
    // first ask can find the ring empty with nobody working and latch
    // "drained" first - on a parked pool every member wakes hot at once,
    // so the race is live, not theoretical. The seed must never be lost:
    // re-open. Workers that already left their work() loop just sit at
    // the next barrier while the remaining members (at least the seeder
    // itself) drain the work - fewer hands, same answer. A probend stays
    // final: those tasks drop, as ever.
    s.latch.store(kOpen, std::memory_order_relaxed);
    machdep::store_record(ring_cell(tail), bytes_, task);
    s.tail.store(tail + 1, std::memory_order_release);
  } else if (lock_free()) {
    s.inflight.fetch_sub(1, std::memory_order_acq_rel);  // never queued
  }
  monitor_->release();
  FORCE_CHECK(!full, label_ + ": more than " + std::to_string(kRingCapacity) +
                         " tasks queued in its central ring (the capacity "
                         "of every askfor site); put fewer tasks up front "
                         "or let workers put the rest");
}

bool AskforCore::ring_pop(void* task) {
  const std::uint32_t head = shared_->head.load(std::memory_order_relaxed);
  if (head == shared_->tail.load(std::memory_order_relaxed)) return false;
  machdep::load_record(ring_cell(head), bytes_, task);
  shared_->head.store(head + 1, std::memory_order_release);
  return true;
}

// ---------------------------------------------------------------------------
// put / ask / complete - engine dispatch.
// ---------------------------------------------------------------------------

void AskforCore::put(const void* task) {
  if (Sentry* sn = env_.sentry()) sn->fuzz();
  Shared& s = *shared_;
  if (lock_free()) {
    if (s.latch.load(std::memory_order_acquire) == kProbend) return;
    // Count the task *before* it becomes visible so termination detection
    // can never see an empty system while a task is mid-publish.
    s.inflight.fetch_add(1, std::memory_order_acq_rel);
    if (s.latch.load(std::memory_order_acquire) != kOpen) {
      // Drained latch raced ahead of this seed (see put_central): re-open
      // under the monitor. The latch cannot re-fire once the fetch_add
      // has landed - its double-check reads inflight under the monitor -
      // and ask_fast re-opens too when it sees tasks behind the latch, so
      // the seed survives either side of the race.
      monitor_->acquire();
      if (s.latch.load(std::memory_order_relaxed) == kProbend) {
        s.inflight.fetch_sub(1, std::memory_order_acq_rel);
        monitor_->release();
        return;
      }
      s.latch.store(kOpen, std::memory_order_release);
      monitor_->release();
    }
  }
  // Lock engine, unregistered thread, or a full deque: the central ring
  // (the lock engine's whole put is this one monitor pass).
  const int slot = current_slot();
  if (slot < 0 || !slots_[slot].deque.push(cells(slot), task)) {
    put_central(task);
  }
  s.idle.notify();
}

AskforCore::Outcome AskforCore::ask(void* task) {
  FORCE_CHECK(task != nullptr, "ask needs an output record");
  // A process that dies holding the task it is granted now is reported
  // at this site.
  machdep::note_site(label_.c_str());
  return lock_free() ? ask_fast(task) : ask_locked(task);
}

bool AskforCore::worth_asking() const {
  const Shared& s = *shared_;
  if (s.latch.load(std::memory_order_acquire) != kOpen ||
      s.tail.load(std::memory_order_acquire) !=
          s.head.load(std::memory_order_acquire)) {
    return true;
  }
  if (!lock_free()) return s.working.load(std::memory_order_acquire) == 0;
  if (s.inflight.load(std::memory_order_acquire) == 0) return true;
  for (int i = 0; i < nslots_; ++i) {
    if (slots_[i].deque.size_hint() > 0) return true;
  }
  return false;
}

void AskforCore::grant_fast(int slot) {
  shared_->inflight.fetch_add(kGrantDelta, std::memory_order_acq_rel);
  if (slot >= 0) {
    // Exclusive cache line: a relaxed increment, not a shared fetch-add.
    std::atomic<std::uint64_t>& grants = slots_[slot].grants;
    grants.store(grants.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    return;
  }
  shared_->granted.fetch_add(1, std::memory_order_relaxed);
  env_.stats().askfor_grants.fetch_add(1, std::memory_order_relaxed);
}

AskforCore::Outcome AskforCore::ask_fast(void* task) {
  Shared& s = *shared_;
  const int slot = current_slot();
  Sentry* sn = env_.sentry();
  // Registered lazily, on the first unproductive pass: the watchdog then
  // sees "blocked in Askfor termination wait" if the loop never ends.
  std::optional<Sentry::WaitScope> wait;
  for (;;) {
    if (sn != nullptr) sn->fuzz();
    if (const std::uint32_t latch = s.latch.load(std::memory_order_acquire);
        latch != kOpen) {
      if (latch == kProbend ||
          s.inflight.load(std::memory_order_acquire) == 0) {
        return Outcome::kDone;
      }
      // Live tasks behind a drained latch: a seed was published right
      // after the latch fired (put() re-opens, but this asker may observe
      // the latch first). Re-open under the monitor and keep serving.
      monitor_->acquire();
      if (s.latch.load(std::memory_order_relaxed) == kDrained &&
          s.inflight.load(std::memory_order_acquire) != 0) {
        s.latch.store(kOpen, std::memory_order_release);
      }
      monitor_->release();
      continue;
    }
    // 1. Own deque, newest first (cache-warm, depth-first on task trees).
    if (slot >= 0 && slots_[slot].deque.pop(cells(slot), task)) {
      grant_fast(slot);
      return Outcome::kWork;
    }
    // 2. Steal from the other workers, oldest first.
    for (int i = 0; i < nslots_; ++i) {
      const int victim = slot >= 0 ? (slot + 1 + i) % nslots_ : i;
      if (victim == slot) continue;
      if (slots_[victim].deque.steal(cells(victim), task)) {
        grant_fast(slot);
        return Outcome::kWork;
      }
    }
    // 3. The central (slow-path) ring, only when it looks nonempty.
    if (s.tail.load(std::memory_order_acquire) !=
        s.head.load(std::memory_order_acquire)) {
      monitor_->acquire();
      const bool got = ring_pop(task);
      monitor_->release();
      if (got) {
        grant_fast(slot);
        return Outcome::kWork;
      }
    }
    // 4. Termination: one load of the packed counter is authoritative -
    //    no task pending anywhere and nobody who could create one.
    if (s.inflight.load(std::memory_order_acquire) == 0) {
      // Latch the decision under the monitor so every process agrees
      // (and so a racing probend cannot interleave half-way).
      monitor_->acquire();
      bool done = s.latch.load(std::memory_order_relaxed) != kOpen;
      if (!done && s.inflight.load(std::memory_order_acquire) == 0 &&
          s.tail.load(std::memory_order_relaxed) ==
              s.head.load(std::memory_order_relaxed)) {
        s.latch.store(kDrained, std::memory_order_release);
        done = true;
      }
      monitor_->release();
      if (done) {
        s.idle.notify();
        return Outcome::kDone;
      }
      continue;
    }
    // Work may still appear: spin, then park until something changes.
    if (sn != nullptr && !wait.has_value()) {
      wait.emplace(sn, Sentry::WaitKind::kAskfor, this, "askfor");
    }
    s.idle.await([this] { return worth_asking(); }, label_.c_str());
  }
}

AskforCore::Outcome AskforCore::ask_locked(void* task) {
  Shared& s = *shared_;
  Sentry* sn = env_.sentry();
  std::optional<Sentry::WaitScope> wait;
  for (;;) {
    monitor_->acquire();
    if (s.latch.load(std::memory_order_relaxed) != kOpen) {
      monitor_->release();
      return Outcome::kDone;
    }
    if (ring_pop(task)) {
      s.working.store(s.working.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
      s.granted.fetch_add(1, std::memory_order_relaxed);
      env_.stats().askfor_grants.fetch_add(1, std::memory_order_relaxed);
      monitor_->release();
      return Outcome::kWork;
    }
    if (s.working.load(std::memory_order_relaxed) == 0) {
      // No work queued and nobody who could create any: the computation
      // has drained. Latch the end so every process agrees.
      s.latch.store(kDrained, std::memory_order_relaxed);
      monitor_->release();
      s.idle.notify();
      return Outcome::kDone;
    }
    // Work may still appear: release the monitor, spin, then park until
    // a put, the last complete or a probend.
    monitor_->release();
    if (sn != nullptr && !wait.has_value()) {
      wait.emplace(sn, Sentry::WaitKind::kAskfor, this, "askfor");
    }
    s.idle.await([this] { return worth_asking(); }, label_.c_str());
  }
}

AskforCore::Outcome AskforCore::next(void* task) {
  FORCE_CHECK(task != nullptr, "next needs an output record");
  const int slot = current_slot();
  if (slot >= 0 &&
      shared_->latch.load(std::memory_order_acquire) == kOpen &&
      slots_[slot].deque.pop(cells(slot), task)) {
    // The common case on task trees: finish one task, start its child.
    // complete() (working-1) and grant (pending-1, working+1) fuse into
    // pending-1 - one RMW, and the working count never transiently
    // drops, so termination detection only gets *more* conservative.
    // No underflow: the popped task was counted pending by put().
    shared_->inflight.fetch_sub(1, std::memory_order_acq_rel);
    std::atomic<std::uint64_t>& grants = slots_[slot].grants;
    grants.store(grants.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    return Outcome::kWork;
  }
  // Own deque empty (or lock engine / no slot): the plain two-step path.
  complete();
  return ask(task);
}

void AskforCore::complete() {
  Shared& s = *shared_;
  if (lock_free()) {
    const std::uint64_t old =
        s.inflight.fetch_sub(kWorkingOne, std::memory_order_acq_rel);
    if ((old >> 32) == 0) {
      s.inflight.fetch_add(kWorkingOne, std::memory_order_acq_rel);
      FORCE_CHECK(false, "complete() without a granted task");
    }
    // The last task finished: wake the idle askers to latch the drain.
    if (old == kWorkingOne) s.idle.notify();
    return;
  }
  monitor_->acquire();
  const std::int32_t working = s.working.load(std::memory_order_relaxed);
  if (working <= 0) {
    monitor_->release();
    FORCE_CHECK(false, "complete() without a granted task");
  }
  s.working.store(working - 1, std::memory_order_relaxed);
  monitor_->release();
  if (working == 1) s.idle.notify();
}

void AskforCore::rearm_for(std::uint32_t gen) {
  Shared& s = *shared_;
  if (s.generation.load(std::memory_order_acquire) == gen) return;
  monitor_->acquire();
  if (s.generation.load(std::memory_order_relaxed) != gen) {
    // Fresh force entry on a reused site: clear the previous episode.
    // Tasks still queued belonged to a probend()ed computation - drop
    // them from the central ring and the deques (safe: the caller is at
    // an episode boundary, so no worker touches them concurrently). The
    // generation stamp is the last write, so racing first-ops of the same
    // entry see either the old generation (and reset themselves,
    // idempotently, under the monitor) or a fully reset monitor.
    s.head.store(0, std::memory_order_relaxed);
    s.tail.store(0, std::memory_order_relaxed);
    s.working.store(0, std::memory_order_relaxed);
    for (int i = 0; i < nslots_; ++i) slots_[i].deque.reset();
    s.inflight.store(0, std::memory_order_release);
    s.latch.store(kOpen, std::memory_order_release);
    s.generation.store(gen, std::memory_order_release);
  }
  monitor_->release();
}

void AskforCore::probend() {
  monitor_->acquire();
  shared_->latch.store(kProbend, std::memory_order_release);
  shared_->head.store(shared_->tail.load(std::memory_order_relaxed),
                      std::memory_order_release);
  monitor_->release();
  shared_->idle.notify();
}

bool AskforCore::ended() const {
  if (lock_free()) {
    return shared_->latch.load(std::memory_order_acquire) != kOpen;
  }
  monitor_->acquire();
  const bool e = shared_->latch.load(std::memory_order_relaxed) != kOpen;
  monitor_->release();
  return e;
}

std::size_t AskforCore::granted() const {
  if (lock_free()) {
    std::size_t g = shared_->granted.load(std::memory_order_acquire);
    for (int i = 0; i < nslots_; ++i) {
      g += slots_[i].grants.load(std::memory_order_relaxed);
    }
    return g;
  }
  monitor_->acquire();
  const std::size_t g = shared_->granted.load(std::memory_order_relaxed);
  monitor_->release();
  return g;
}

}  // namespace force::core
