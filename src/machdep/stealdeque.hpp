// Bounded Chase-Lev work-stealing deque (machine-dependent layer).
//
// This is the second lock-free structure gated on
// MachineSpec::hardware_atomic_rmw (the first is DispatchCounter): a
// single-owner double-ended queue where the owner pushes and pops at the
// bottom (LIFO, cache-warm) and any number of thieves steal from the top
// (FIFO, oldest task first). The Askfor monitor uses one per worker as its
// dispatch fast path; the monitor's generic lock remains the slow path for
// seeding, overflow and termination, so lock-only machines never reach
// this file.
//
// The memory ordering follows Le, Pop, Cohen & Zappa Nardelli, "Correct
// and Efficient Work-Stealing for Weak Memory Models" (PPoPP 2013). The
// deque is deliberately *bounded*: a full push returns false and the
// caller routes the record to the monitor's central ring instead - no
// allocation, no buffer growth race, and a natural backpressure valve.
//
// The deque carries fixed-size records (a task's own bytes), not pointers,
// so it works across fork(2) children. It is only its two indices; the
// caller keeps its kCapacity record cells, so deque and cells can live in
// construct site state, where all-zero bytes are an empty deque. A thief
// copies a record out before its claiming CAS and may race the owner
// overwriting it; cells are atomic words, so a lost race reads a stale
// record that the failed CAS then discards.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace force::machdep {

/// One word of a record cell.
using RecordWord = std::atomic<std::uint64_t>;

/// Words one record of `bytes` bytes occupies.
constexpr std::size_t record_words(std::size_t bytes) {
  return (bytes + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);
}

/// Copies `bytes` bytes into a record cell, one relaxed word at a time.
inline void store_record(RecordWord* cell, std::size_t bytes,
                         const void* src) {
  const auto* p = static_cast<const unsigned char*>(src);
  for (std::size_t off = 0; off < bytes; off += sizeof(std::uint64_t)) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + off, std::min(sizeof w, bytes - off));
    cell[off / sizeof w].store(w, std::memory_order_relaxed);
  }
}

/// Copies a record cell's `bytes` bytes out, one relaxed word at a time.
inline void load_record(const RecordWord* cell, std::size_t bytes,
                        void* dst) {
  auto* p = static_cast<unsigned char*>(dst);
  for (std::size_t off = 0; off < bytes; off += sizeof(std::uint64_t)) {
    const std::uint64_t w = cell[off / sizeof w].load(std::memory_order_relaxed);
    std::memcpy(p + off, &w, std::min(sizeof w, bytes - off));
  }
}

class StealDeque {
 public:
  /// Capacity must be a power of two (index masking).
  static constexpr std::size_t kCapacity = 1024;

  /// The cells of one deque whose records are `bytes` bytes: kCapacity
  /// records of record_words(bytes) words. Every call on one deque passes
  /// the same cells and size.
  struct Cells {
    RecordWord* words;
    std::size_t bytes;
    [[nodiscard]] RecordWord* at(std::int64_t i) const {
      return words + (static_cast<std::size_t>(i) & (kCapacity - 1)) *
                         record_words(bytes);
    }
  };

  /// Owner only. False when full (caller falls back to the central ring).
  bool push(Cells c, const void* record) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
    store_record(c.at(b), c.bytes, record);
    // The record stores must be visible before the new bottom is.
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
    return true;
  }

  /// Owner only: LIFO pop. False when empty (`record` is then unspecified).
  bool pop(Cells c, void* record) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    // The bottom decrement must be ordered before the top read, or an
    // owner and a thief could both take the last element.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t <= b) {
      load_record(c.at(b), c.bytes, record);
      if (t == b) {
        // Last element: race the thieves for it via top.
        const bool won = top_.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return won;
      }
      return true;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return false;
  }

  /// Any thread: FIFO steal. False when empty or when the CAS lost a race
  /// (callers treat both as "try elsewhere"; `record` is then unspecified).
  bool steal(Cells c, void* record) {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    load_record(c.at(t), c.bytes, record);
    return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
  }

  /// Racy size hint (diagnostics and fast empty checks only).
  [[nodiscard]] std::int64_t size_hint() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

  /// Empties the deque. Only while nobody else touches it.
  void reset() {
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(0, std::memory_order_relaxed);
  }

 private:
  // top and bottom on their own cache lines: thieves hammer top, the
  // owner hammers bottom.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

}  // namespace force::machdep
