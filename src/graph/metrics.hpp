// Quality metrics of a (graph, spanning tree) pair.
//
// Definition 3.1: stretch s = max over node pairs of dT(u, v) / dG(u, v).
// Both s and the tree diameter D appear in the paper's competitive ratio
// O(s log D), so every benchmark reports them next to measured costs.
#pragma once

#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/tree.hpp"
#include "support/random.hpp"

namespace arrowdq {

struct StretchReport {
  double max_stretch = 1.0;   // Definition 3.1
  double avg_stretch = 1.0;   // mean over node pairs (Peleg-Reshef overhead)
  NodeId worst_u = kNoNode;   // pair achieving max_stretch
  NodeId worst_v = kNoNode;
};

/// Exact stretch over all pairs (O(n^2) once every AllPairs row is filled).
/// Reuses a caller's AllPairs table, and the rows it has filled, if supplied.
StretchReport stretch_exact(const Graph& g, const Tree& t);
StretchReport stretch_exact(const AllPairs& apsp, const Tree& t);

/// Sampled stretch for large graphs: `samples` random pairs.
StretchReport stretch_sampled(const Graph& g, const Tree& t, int samples, Rng& rng);

/// Summary of the (G, T) pair printed at the top of each benchmark.
struct TreeQuality {
  NodeId nodes = 0;
  Weight graph_diameter = 0;
  Weight tree_diameter = 0;
  double stretch = 1.0;
  Weight tree_weight = 0;
};

TreeQuality tree_quality(const Graph& g, const Tree& t);

}  // namespace arrowdq
