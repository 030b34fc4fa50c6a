// The dG oracle of the complete-communication-graph baselines (centralized,
// pointer forwarding): one value type, DistOracle, with two alternatives.
//
//  * ImplicitDist: the closed form ImplicitTopology::distance() of a
//    structured family (graph/implicit.hpp), with no graph and no table. The
//    complete family is Section 5's setup: one unit between distinct nodes.
//  * ApspDist: an AllPairs table over a materialized graph, for the
//    irregular families.
//
// Every baseline entry point takes a `const DistOracle&` and calls
// std::visit once per run; the drivers template over the alternative, so
// the per-message draw is a direct, inlinable call. Both alternatives map
// distinct nodes to >= 1 unit, which is the floor the sharded engine folds
// into its lookahead (kTicksPerUnit).
#pragma once

#include <variant>

#include "graph/implicit.hpp"
#include "graph/shortest_paths.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// Closed-form oracle of a structured family.
struct ImplicitDist {
  ImplicitTopology topo;
  Time operator()(NodeId u, NodeId v) const { return units_to_ticks(topo.distance(u, v)); }
};

/// dG-based oracle over an AllPairs table (must outlive the oracle). The
/// table fills the rows the draws touch, thread-safely, so sharded lanes may
/// share one oracle.
struct ApspDist {
  const AllPairs* apsp = nullptr;
  Time operator()(NodeId u, NodeId v) const { return units_to_ticks(apsp->dist(u, v)); }
};

using DistOracle = std::variant<ImplicitDist, ApspDist>;

/// Section 5's complete graph on n nodes.
inline ImplicitDist complete_dist(NodeId n) {
  return ImplicitDist{ImplicitTopology{.family = ImplicitFamily::kComplete, .n = n}};
}

}  // namespace arrowdq
