// Emulation of the Denelcor HEP's tagged memory.
//
// On the HEP every memory cell carried a hardware full/empty access-state
// bit; a read-and-set-empty or write-and-set-full retried in hardware until
// the state allowed it. The paper (§4.1.3, §4.2) leans on this: on the HEP
// an asynchronous variable needs no extra locks, while every other machine
// builds full/empty out of two locks.
//
// We emulate one tagged 64-bit cell with an atomic state word. A transient
// BUSY state makes the value transfer atomic with the state transition,
// exactly as the hardware made them a single memory operation.
//
// The cell is address-free plain data: all-zero bytes are an empty cell,
// and it works wherever it lives - on a thread's stack, in construct site
// state, or in a MAP_SHARED mapping addressed by several fork(2) children.
// A blocked access spins, then parks on the state word with the runtime's
// park step (machdep::park_on: bounded, poison-checked slices on the
// process-shared futex; an N:M pooled member yields its worker instead).
// A parked waiter first sets a mark bit in the state word, and a publish
// makes the wake syscall only when it sees that bit, so an uncontended
// transfer makes none. Only an empty or full word is marked: the seize
// carries the mark into the busy word, and a waiter that finds the cell
// busy yields until the owner's publish, which therefore needs no atomic
// read-modify-write.
#pragma once

#include <atomic>
#include <cstdint>

namespace force::machdep {

/// One HEP tagged memory cell holding a 64-bit word.
class HepCell {
 public:
  /// Cells start empty, like Force async variables after Void.
  HepCell() = default;
  explicit HepCell(std::uint64_t initial_value);  // starts full

  HepCell(const HepCell&) = delete;
  HepCell& operator=(const HepCell&) = delete;

  /// Write-when-empty, leave full. Blocks while the cell is full.
  void produce(std::uint64_t value);
  /// Read-when-full, leave empty. Blocks while the cell is empty.
  std::uint64_t consume();
  /// Read-when-full, leave full (the Force `Copy` access).
  std::uint64_t copy() const;
  /// Force the state to empty regardless of the current state (Force Void).
  void make_empty();
  /// Force the state to full with the given value (used to init locks).
  void make_full(std::uint64_t value);

  /// Non-blocking variants; return false if the state forbids the access.
  bool try_produce(std::uint64_t value);
  bool try_consume(std::uint64_t* out);

  /// True if the cell is full at this instant (Force's state test).
  [[nodiscard]] bool is_full() const;

  // --- low-level protocol --------------------------------------------------
  // The Force runtime stores payloads wider than one word next to the cell;
  // these expose the busy-window protocol so such a payload can be moved
  // exactly while the hardware would have held the cell reserved.
  // Every seize_* must be paired with a publish_*.

  /// Blocks until the cell is empty, leaving it reserved (busy).
  void seize_empty() { await_and_seize(kEmpty); }
  /// Blocks until the cell is full, leaving it reserved (busy).
  void seize_full() { await_and_seize(kFull); }
  /// Ends a reservation, declaring the cell full.
  void publish_full() { publish(kFull, busy_word()); }
  /// Ends a reservation, declaring the cell empty.
  void publish_empty() { publish(kEmpty, busy_word()); }
  /// Non-blocking seize; true on success (cell now busy).
  bool try_seize_empty() { return try_seize(kEmpty) != 0; }
  bool try_seize_full() { return try_seize(kFull) != 0; }

  /// Total number of blocking waits across all cells (process-wide); a
  /// cheap proxy for how often the hardware retry queue would have engaged.
  static std::uint64_t total_waits();
  static void reset_wait_counter();

 private:
  // The low two bits of the state word hold the access state; kWaiters
  // marks that a waiter is (about to be) parked on the word.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kFull = 1;
  static constexpr std::uint32_t kBusy = 2;
  static constexpr std::uint32_t kStable = 3;  ///< "empty or full" (Void)
  static constexpr std::uint32_t kStateMask = 3;
  static constexpr std::uint32_t kWaiters = 4;

  /// Takes the cell from `from` (or from either stable state, for kStable)
  /// to busy, waiting while it is elsewhere, and returns the busy word it
  /// stored. The mark bit is kept, so the publish that ends the window
  /// still wakes the parked waiters.
  std::uint32_t await_and_seize(std::uint32_t from);
  /// Non-blocking seize: the busy word stored, or 0 if the state forbids.
  std::uint32_t try_seize(std::uint32_t from);
  /// Marks the state word and sleeps one bounded futex slice on it, unless
  /// the word has moved past `seen`.
  void park(std::uint32_t seen);
  /// The word of a seized cell. Waiters mark only empty or full words, so
  /// it is the busy word the seize stored until the publish.
  [[nodiscard]] std::uint32_t busy_word() const {
    return state_.load(std::memory_order_relaxed);
  }
  /// Ends the busy window `busy` in state `to`, waking parked waiters if
  /// it is marked.
  void publish(std::uint32_t to, std::uint32_t busy);

  std::atomic<std::uint32_t> state_{kEmpty};
  std::uint64_t value_ = 0;  // guarded by the kBusy transition protocol
};

}  // namespace force::machdep
