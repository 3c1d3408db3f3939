// Resolve: partitioning the force into components (paper §3.3).
//
// "A yet unimplemented concept is Resolve, which would partition the set
// of processes into subsets executing different parallel code sections."
// The paper leaves Resolve as future work; this reproduction implements it
// as a documented extension (DESIGN.md §1).
//
// Each component declares a weight; the force is split proportionally
// (largest-remainder apportionment, every component gets at least one
// process). Within a component, processes get a sub-context with remapped
// me/np, a component-sized barrier, and a namespaced construct-site space,
// so every Force construct works unchanged inside a component. Unify at
// the end: Resolve concludes with a full-force barrier.
//
// The builder lives in force.hpp (it hands out sub-contexts); this header
// holds the partitioning arithmetic and the shared per-site state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/barrier.hpp"

namespace force::core {

class ForceEnvironment;

/// Splits `np` processes over components proportionally to `weights`
/// (all positive). Requires np >= weights.size(); every component receives
/// at least one process. Returns per-component process counts summing to
/// np, stable under permutation of equal remainders (deterministic).
std::vector<int> resolve_partition(int np, const std::vector<int>& weights);

/// Maps a process rank to (component, rank-within-component) given the
/// partition sizes (components own consecutive rank ranges).
struct ComponentAssignment {
  int component = 0;
  int rank = 0;   ///< 0-based rank within the component
  int width = 0;  ///< component size
};
ComponentAssignment assign_component(int proc0,
                                     const std::vector<int>& sizes);

/// Shared state of one Resolve site: the per-component barriers plus the
/// join barrier, created once by the first arriving process and keyed
/// under the site's `key`.
class ResolveState {
 public:
  ResolveState(ForceEnvironment& env, const std::vector<int>& sizes,
               const std::string& key);

  [[nodiscard]] const std::vector<int>& sizes() const { return sizes_; }
  [[nodiscard]] BarrierAlgorithm& component_barrier(int component);
  [[nodiscard]] BarrierAlgorithm& join_barrier() { return *join_; }

 private:
  std::vector<int> sizes_;
  std::vector<std::unique_ptr<BarrierAlgorithm>> component_barriers_;
  std::unique_ptr<BarrierAlgorithm> join_;
};

}  // namespace force::core
