// Resident-set probe for the demand-zero memory tests: constructing a Force
// must not touch the arena or private segments it reserves. Linux only
// (reads /proc/self/statm); elsewhere the probe reports "unavailable".
#pragma once

#include <unistd.h>

#include <cstddef>
#include <fstream>

#include "core/force.hpp"

namespace force::test_support {

/// Resident bytes of this process, or -1 when /proc/self/statm is absent.
inline long long resident_bytes() {
  std::ifstream in("/proc/self/statm");
  long long size_pages = 0;
  long long resident_pages = 0;
  if (!(in >> size_pages >> resident_pages)) return -1;
  return resident_pages * static_cast<long long>(::sysconf(_SC_PAGESIZE));
}

/// Resident-set growth caused by constructing (not running) a Force with
/// `cfg`, measured while it is alive; -1 when the probe is unavailable.
inline long long force_construction_growth(const ForceConfig& cfg) {
  const long long before = resident_bytes();
  if (before < 0) return -1;
  Force f(cfg);
  return resident_bytes() - before;
}

/// Growth bound for a 256 MiB arena: construction may touch guard pages,
/// metadata and bookkeeping, never the reserved storage itself.
inline constexpr long long kConstructionGrowthLimit = 16ll << 20;
inline constexpr std::size_t kLargeArenaBytes = 256u << 20;

}  // namespace force::test_support
