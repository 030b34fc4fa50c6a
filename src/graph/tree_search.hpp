// Randomized local search for low-stretch spanning trees.
//
// Choosing the spanning tree is the knob the paper's Section 1.1 highlights:
// Demmer-Herlihy suggest an MST, Peleg-Reshef a minimum communication
// spanning tree, and Emek-Peleg approximate the minimum max-stretch tree.
// Exact minimum-stretch spanning trees are NP-hard, so we provide a
// practical edge-swap local search: starting from a seed tree, repeatedly
// try replacing a tree edge by a non-tree edge (the swap must reconnect the
// two components) and keep the swap if it improves the objective.
//
// Objectives: maximum stretch (Definition 3.1) or average stretch (the
// Peleg-Reshef expected-overhead view).
#pragma once

#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/tree.hpp"
#include "support/random.hpp"

namespace arrowdq {

enum class StretchObjective { kMax, kAverage };

struct TreeSearchOptions {
  StretchObjective objective = StretchObjective::kAverage;
  int max_iterations = 200;   // candidate swaps examined
  int patience = 60;          // stop after this many non-improving swaps
};

struct TreeSearchResult {
  Tree tree;
  double initial_objective = 0.0;
  double final_objective = 0.0;
  int improving_swaps = 0;
  int examined_swaps = 0;
};

/// Improve `seed` by randomized edge swaps against graph g. One AllPairs
/// table of g fills its rows during the first evaluation (O(n m log n)) and
/// serves the rest; each candidate evaluation is O(n^2), so keep n in the
/// hundreds.
TreeSearchResult improve_tree_stretch(const Graph& g, const Tree& seed,
                                      const TreeSearchOptions& options, Rng& rng);

}  // namespace arrowdq
