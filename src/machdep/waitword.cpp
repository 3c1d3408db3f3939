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

// The sleeper handshake is seq_cst on both sides: either store() sees the
// waiter's advertisement, or the waiter's re-check sees the stored value.

void WaitWord::store(std::uint32_t v) {
  value.store(v, std::memory_order_seq_cst);
  if (sleepers.load(std::memory_order_seq_cst) != 0) {
    shm::futex_wake(&value, -1);
  }
}

void WaitWord::sleep(std::uint32_t seen, const char* site) {
  shm::note_site(site);
  if (on_fiber()) return park_on(value, seen);  // yields: no wake to ask for
  sleepers.fetch_add(1, std::memory_order_seq_cst);
  struct Leave {  // also when park_on throws
    std::atomic<std::uint32_t>& n;
    ~Leave() { n.fetch_sub(1, std::memory_order_seq_cst); }
  } leave{sleepers};
  if (value.load(std::memory_order_seq_cst) == seen) park_on(value, seen);
}

}  // namespace force::machdep
