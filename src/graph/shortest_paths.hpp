// Single-source and all-pairs shortest paths on the network graph.
//
// Distances are in whole time units (Weight). The analysis uses dG for the
// optimal offline algorithm's message latencies and dT (tree distances,
// provided by Tree) for the arrow protocol.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

inline constexpr Weight kUnreachable = -1;

/// Dijkstra from source; returns distances (kUnreachable where no path).
std::vector<Weight> sssp(const Graph& g, NodeId source);

/// Dijkstra from source, also emitting the shortest-path parent of each node
/// (kNoNode for the source / unreachable nodes).
std::vector<Weight> sssp_with_parents(const Graph& g, NodeId source,
                                      std::vector<NodeId>& parents);

/// Unweighted BFS hop counts (ignores weights).
std::vector<Weight> bfs_hops(const Graph& g, NodeId source);

/// All-pairs shortest paths, one Dijkstra row at a time on demand.
///
/// The constructor copies the adjacency into a flat CSR and computes nothing
/// else; row u (dG(u, ·)) is allocated and filled the first time a query
/// needs it. dist(u, v) serves from row u when that row is filled and
/// otherwise from row v, filling it first if needed. The graph is
/// undirected, so either row holds the exact value, and a caller that only
/// asks for distances to one node (the centralized baseline) fills one row.
///
/// Safe to share across threads: rows are filled under a lock and published
/// with release/acquire, so concurrent const queries are race-free.
class AllPairs {
 public:
  explicit AllPairs(const Graph& g);
  AllPairs(AllPairs&&) noexcept;
  AllPairs& operator=(AllPairs&&) noexcept;
  ~AllPairs();

  Weight dist(NodeId u, NodeId v) const {
    ARROWDQ_ASSERT(u >= 0 && u < n_);
    ARROWDQ_ASSERT(v >= 0 && v < n_);
    if (const Weight* r = ready_[static_cast<std::size_t>(u)].load(std::memory_order_acquire))
      return r[v];
    return filled_row(v)[u];
  }
  /// dG(u, ·), filling the row first if needed.
  std::span<const Weight> row(NodeId u) const;
  NodeId node_count() const { return n_; }
  /// Number of rows filled so far.
  NodeId rows_filled() const;

  /// Maximum finite pairwise distance (graph diameter); asserts connectivity.
  Weight diameter() const;
  /// Minimum over u of max over v of dist (graph radius).
  Weight radius() const;
  /// A node achieving the radius (a center of the graph).
  NodeId center() const;

 private:
  struct Fill;  // the lock, the owned rows and the Dijkstra scratch

  const Weight* filled_row(NodeId u) const;

  NodeId n_ = 0;
  std::vector<std::size_t> offsets_;  // CSR: node v's arcs are [offsets_[v], offsets_[v + 1])
  std::vector<HalfEdge> arcs_;
  std::unique_ptr<std::atomic<const Weight*>[]> ready_;  // nullptr until row u is filled
  std::unique_ptr<Fill> fill_;
};

}  // namespace arrowdq
