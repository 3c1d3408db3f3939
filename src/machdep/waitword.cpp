#include "machdep/waitword.hpp"

#include "machdep/shm.hpp"

namespace force::machdep {

void park_on(std::atomic<std::uint32_t>& word, std::uint32_t seen) {
  shm::check_poison();
  if (on_fiber()) {
    member_yield();
  } else {
    shm::futex_wait(&word, seen);
  }
}

void note_site(const char* site) { shm::note_site(site); }

// The sleeper handshake is seq_cst on both sides: either the writer sees
// the waiter's advertisement, or the waiter's re-check sees the write.

void WaitWord::store(std::uint32_t v) {
  value.store(v, std::memory_order_seq_cst);
  if (sleepers.load(std::memory_order_seq_cst) != 0) {
    shm::futex_wake(&value, -1);
  }
}

void WaitWord::notify() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers.load(std::memory_order_relaxed) != 0) {
    value.fetch_add(1, std::memory_order_seq_cst);
    shm::futex_wake(&value, -1);
  }
}

WaitWord::Sleeper::Sleeper(WaitWord& w, const char* site) : word(w) {
  shm::note_site(site);
  word.sleepers.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

WaitWord::Sleeper::~Sleeper() {
  word.sleepers.fetch_sub(1, std::memory_order_seq_cst);
}

}  // namespace force::machdep
