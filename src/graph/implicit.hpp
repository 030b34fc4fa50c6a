// Implicit topologies: the structured families (complete, path, ring, grid,
// torus, hypercube) admit closed forms for everything a protocol driver
// reads — graph distance, neighbor enumeration, and the canonical
// shortest-path-tree parent — so a million-node run needs no stored Graph
// adjacency, no O(n^2) APSP table, and no Dijkstra pass. This is the scale
// path: per-node state drops to the driver's own arrays, and topology
// queries become a handful of arithmetic ops.
//
// Exactness contract: every closed form here reproduces the materialized
// pipeline bit-for-bit.
//  * distance() equals the AllPairs distance on the generated graph
//    (tests/scale_test.cpp); the baselines draw dG from it through
//    ImplicitDist (baseline/dist.hpp).
//  * tree_parent() reproduces shortest_path_tree()'s Dijkstra parent. With
//    unit weights and the heap tie-broken by ascending node id, Dijkstra
//    sets parent[v] to the minimum-id neighbor of v one hop closer to the
//    root: nodes at distance d-1 are popped in ascending id order, the
//    first adjacent one strictly improves v's tentative distance and the
//    rest offer an equal distance which never replaces the parent. Each
//    family below evaluates that min-id rule directly.
//  * The balanced-binary overlay on the complete family is parent = (v-1)/2
//    (root 0), matching balanced_binary_overlay().
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/tree.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

enum class ImplicitFamily : std::uint8_t {
  kComplete,
  kPath,
  kRing,
  kGrid,
  kTorus,
  kHypercube,
};

struct ImplicitTopology {
  ImplicitFamily family = ImplicitFamily::kComplete;
  NodeId n = 0;
  NodeId rows = 0, cols = 0;  // kGrid / kTorus (n = rows * cols)
  NodeId root = 0;
  /// kComplete only: Section 5's balanced binary overlay instead of the
  /// star-shaped shortest-path tree. Requires root == 0, matching
  /// balanced_binary_overlay().
  bool balanced_binary = false;

  NodeId node_count() const { return n; }
  NodeId tree_root() const { return root; }

  /// Graph distance dG(u, v) in abstract units (unit edge weights).
  Weight distance(NodeId u, NodeId v) const {
    switch (family) {
      case ImplicitFamily::kComplete:
        return u == v ? 0 : 1;
      case ImplicitFamily::kPath:
        return static_cast<Weight>(u < v ? v - u : u - v);
      case ImplicitFamily::kRing: {
        const NodeId d = u < v ? v - u : u - v;
        return static_cast<Weight>(d < n - d ? d : n - d);
      }
      case ImplicitFamily::kGrid:
        return axis_delta(u / cols, v / cols) + axis_delta(u % cols, v % cols);
      case ImplicitFamily::kTorus:
        return wrap_delta(u / cols, v / cols, rows) + wrap_delta(u % cols, v % cols, cols);
      case ImplicitFamily::kHypercube:
        return static_cast<Weight>(std::popcount(static_cast<std::uint32_t>(u ^ v)));
    }
    ARROWDQ_ASSERT_MSG(false, "unknown implicit family");
    return 0;
  }

  NodeId degree(NodeId v) const {
    switch (family) {
      case ImplicitFamily::kComplete:
        return n - 1;
      case ImplicitFamily::kPath:
        return n == 1 ? 0 : ((v == 0 || v == n - 1) ? 1 : 2);
      case ImplicitFamily::kRing:
        return 2;
      case ImplicitFamily::kGrid: {
        NodeId d = 0;
        const NodeId r = v / cols, c = v % cols;
        d += (r > 0) + (r < rows - 1);
        d += (c > 0) + (c < cols - 1);
        return d;
      }
      case ImplicitFamily::kTorus:
        return 4;  // generator requires rows, cols >= 3
      case ImplicitFamily::kHypercube:
        return static_cast<NodeId>(std::popcount(static_cast<std::uint32_t>(n - 1)));
    }
    ARROWDQ_ASSERT_MSG(false, "unknown implicit family");
    return 0;
  }

  /// Invoke `fn(NodeId)` for every graph neighbor of v.
  template <typename Fn>
  void for_each_neighbor(NodeId v, Fn&& fn) const {
    switch (family) {
      case ImplicitFamily::kComplete:
        for (NodeId w = 0; w < n; ++w)
          if (w != v) fn(w);
        return;
      case ImplicitFamily::kPath:
        if (v > 0) fn(v - 1);
        if (v < n - 1) fn(v + 1);
        return;
      case ImplicitFamily::kRing:
        fn((v + n - 1) % n);
        fn((v + 1) % n);
        return;
      case ImplicitFamily::kGrid: {
        const NodeId r = v / cols, c = v % cols;
        if (r > 0) fn(v - cols);
        if (c > 0) fn(v - 1);
        if (c < cols - 1) fn(v + 1);
        if (r < rows - 1) fn(v + cols);
        return;
      }
      case ImplicitFamily::kTorus: {
        const NodeId r = v / cols, c = v % cols;
        fn(((r + rows - 1) % rows) * cols + c);
        fn(r * cols + (c + cols - 1) % cols);
        fn(r * cols + (c + 1) % cols);
        fn(((r + 1) % rows) * cols + c);
        return;
      }
      case ImplicitFamily::kHypercube:
        for (NodeId bit = 1; bit < n; bit <<= 1) fn(v ^ bit);
        return;
    }
    ARROWDQ_ASSERT_MSG(false, "unknown implicit family");
  }

  /// Materialized adjacency list of v (tests / non-hot-path callers).
  std::vector<NodeId> neighbors(NodeId v) const;

  /// The canonical spanning-tree parent of v (kNoNode at the root): the
  /// minimum-id neighbor one hop closer to the root, i.e. exactly what
  /// shortest_path_tree()'s Dijkstra records (see the header comment), or
  /// (v-1)/2 under the balanced-binary overlay.
  NodeId tree_parent(NodeId v) const {
    if (v == root) return kNoNode;
    switch (family) {
      case ImplicitFamily::kComplete:
        // Overlay: heap-shaped binary tree. Shortest-path tree: the only
        // node at distance 0 is the root itself.
        return balanced_binary ? (v - 1) / 2 : root;
      case ImplicitFamily::kPath:
        return v < root ? v + 1 : v - 1;
      case ImplicitFamily::kRing: {
        const NodeId cw = (v - root + n) % n;
        const NodeId down = (v + n - 1) % n;
        const NodeId up = (v + 1) % n;
        if (2 * cw < n) return down;
        if (2 * cw > n) return up;
        return down < up ? down : up;  // antipode on an even ring: tie
      }
      case ImplicitFamily::kGrid: {
        // Candidates in ascending id order: up (v-cols), left (v-1),
        // right (v+1), down (v+cols); take the first that moves toward
        // the root in its axis.
        const NodeId rv = v / cols, cv = v % cols;
        const NodeId rr = root / cols, cr = root % cols;
        if (rv > rr) return v - cols;
        if (cv > cr) return v - 1;
        if (cv < cr) return v + 1;
        return v + cols;
      }
      case ImplicitFamily::kTorus: {
        // Wrap-around makes the axis directions id-order dependent; scan
        // the four neighbors for the minimum id at distance d-1.
        const Weight d = distance(v, root);
        NodeId best = kNoNode;
        for_each_neighbor(v, [&](NodeId w) {
          if (distance(w, root) == d - 1 && (best == kNoNode || w < best)) best = w;
        });
        return best;
      }
      case ImplicitFamily::kHypercube: {
        // Closer neighbors flip a set bit of mask = v ^ root. Flipping a
        // bit where v is 1 gives w = v - 2^b (minimized by the highest
        // such bit); if v is 0 on every mask bit, the best is v + 2^b for
        // the lowest mask bit.
        const auto mask = static_cast<std::uint32_t>(v ^ root);
        const auto down = mask & static_cast<std::uint32_t>(v);
        if (down != 0) return v ^ static_cast<NodeId>(std::bit_floor(down));
        return v ^ static_cast<NodeId>(mask & (~mask + 1));
      }
    }
    ARROWDQ_ASSERT_MSG(false, "unknown implicit family");
    return kNoNode;
  }

  /// Build the canonical Tree explicitly — O(n) parent computation with no
  /// Graph and no Dijkstra pass (the Tree's own lifting tables still cost
  /// O(n log n)). Used where a driver needs a real Tree (arrow one-shot,
  /// token passing, crash recovery) but the graph itself can stay implicit.
  Tree materialize_tree() const;

 private:
  static Weight axis_delta(NodeId a, NodeId b) {
    return static_cast<Weight>(a < b ? b - a : a - b);
  }
  static Weight wrap_delta(NodeId a, NodeId b, NodeId extent) {
    const NodeId d = a < b ? b - a : a - b;
    return static_cast<Weight>(d < extent - d ? d : extent - d);
  }
};

/// Graph-shaped index over an implicit topology's canonical spanning tree:
/// just enough of Graph's interface (node_count / dir_edge_count /
/// find_edge) for Network to run on tree edges without any stored
/// adjacency. Directed-edge ids are assigned per child c: 2c for c->parent,
/// 2c+1 for parent->c — dense, stable, and O(1), so the FIFO clamp keeps
/// its flat-array form.
struct ImplicitTreeIndex {
  ImplicitTopology topo;

  NodeId node_count() const { return topo.n; }
  std::size_t dir_edge_count() const { return 2 * static_cast<std::size_t>(topo.n); }
  DirEdgeRef find_edge(NodeId from, NodeId to) const {
    if (topo.tree_parent(from) == to) return DirEdgeRef{2 * from, 1};
    if (topo.tree_parent(to) == from) return DirEdgeRef{2 * to + 1, 1};
    return DirEdgeRef{};
  }
};

}  // namespace arrowdq
