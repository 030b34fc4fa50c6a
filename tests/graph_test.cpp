#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "exp/experiment.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/spanning_tree.hpp"
#include "graph/tree.hpp"
#include "graph/union_find.hpp"
#include "support/random.hpp"

namespace arrowdq {
namespace {

TEST(Graph, AddEdgeAndNeighbors) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_weight(1, 2), 3);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.total_weight(), 5);
}

TEST(Graph, ConnectivityAndTreeness) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.is_tree());
  g.add_edge(0, 3);
  EXPECT_FALSE(g.is_tree());
}

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  uf.unite(2, 3);
  uf.unite(0, 3);
  EXPECT_EQ(uf.set_count(), 2);
  EXPECT_TRUE(uf.same(1, 2));
}

TEST(ShortestPaths, PathGraphDistances) {
  Graph g = make_path(5);
  auto d = sssp(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[static_cast<std::size_t>(v)], v);
}

TEST(ShortestPaths, WeightedVsHops) {
  Graph g(3);
  g.add_edge(0, 1, 10);
  g.add_edge(1, 2, 10);
  g.add_edge(0, 2, 25);
  auto d = sssp(g, 0);
  EXPECT_EQ(d[2], 20);  // via node 1
  auto h = bfs_hops(g, 0);
  EXPECT_EQ(h[2], 1);  // direct edge is fewer hops
}

TEST(ShortestPaths, DisconnectedIsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  auto d = sssp(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(AllPairsTest, DiameterRadiusCenter) {
  Graph g = make_path(7);
  AllPairs ap(g);
  EXPECT_EQ(ap.diameter(), 6);
  EXPECT_EQ(ap.radius(), 3);
  EXPECT_EQ(ap.center(), 3);
  EXPECT_EQ(ap.dist(2, 5), 3);
}

// The lazy table against an eager per-source reference: the binary-heap
// sssp_with_parents (an independent kernel) and plain sssp, row by row. The
// fresh table is queried column-major first, so early lookups take the
// "row u not filled, serve from row v" branch.
void expect_matches_eager(const Graph& g, const char* what) {
  const NodeId n = g.node_count();
  std::vector<std::vector<Weight>> ref;
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> parents;
    ref.push_back(sssp_with_parents(g, u, parents));
    ASSERT_EQ(sssp(g, u), ref.back()) << what << " source " << u;
  }
  AllPairs ap(g);
  EXPECT_EQ(ap.rows_filled(), 0) << what;
  for (NodeId v = n - 1; v >= 0; --v)
    for (NodeId u = 0; u < n; ++u)
      ASSERT_EQ(ap.dist(u, v), ref[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)])
          << what << " pair " << u << "," << v;
  for (NodeId u = 0; u < n; ++u) {
    const auto row = ap.row(u);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), ref[static_cast<std::size_t>(u)].begin(),
                           ref[static_cast<std::size_t>(u)].end()))
        << what << " row " << u;
  }
  EXPECT_EQ(ap.rows_filled(), n) << what;
}

TEST(AllPairsTest, LazyTableMatchesEagerReference) {
  expect_matches_eager(TopologySpec::random_tree(150, /*seed=*/4).build_graph(), "randtree");
  expect_matches_eager(TopologySpec::geometric(160, /*seed=*/6).build_graph(), "geometric");
  // Weights up to 2^40 units exercise the radix heap's high buckets.
  expect_matches_eager(
      TopologySpec::weighted_tree(140, /*seed=*/8, Weight{1} << 40).build_graph(), "wtree");
  Rng rng(12);
  expect_matches_eager(make_erdos_renyi(90, 0.08, rng), "erdos-renyi");
}

TEST(AllPairsTest, DisconnectedRowsHoldUnreachable) {
  // Components {0, 1, 2}, {3, 4} and the isolated node 5.
  Graph g(6);
  g.add_edge(0, 1, 4);
  g.add_edge(1, 2, 1);
  g.add_edge(3, 4, Weight{1} << 40);
  expect_matches_eager(g, "disconnected");
  AllPairs ap(g);
  EXPECT_EQ(ap.dist(0, 2), 5);
  EXPECT_EQ(ap.dist(4, 3), Weight{1} << 40);
  EXPECT_EQ(ap.dist(0, 3), kUnreachable);
  EXPECT_EQ(ap.dist(5, 5), 0);
  for (Weight d : ap.row(5)) EXPECT_EQ(d, d == 0 ? 0 : kUnreachable);
}

TEST(AllPairsTest, RowsFillOnDemand) {
  AllPairs ap(make_path(12));
  EXPECT_EQ(ap.node_count(), 12);
  EXPECT_EQ(ap.rows_filled(), 0) << "the constructor computes no row";
  EXPECT_EQ(ap.dist(3, 7), 4);  // row 3 empty: fills row 7
  EXPECT_EQ(ap.rows_filled(), 1);
  EXPECT_EQ(ap.dist(7, 3), 4);  // served from row 7
  EXPECT_EQ(ap.dist(2, 7), 5);  // row 2 empty, row 7 filled
  EXPECT_EQ(ap.rows_filled(), 1);
  EXPECT_EQ(ap.dist(3, 9), 6);  // neither row filled: fills row 9
  EXPECT_EQ(ap.rows_filled(), 2);
  EXPECT_EQ(ap.row(0)[11], 11);
  EXPECT_EQ(ap.rows_filled(), 3);

  // A moved table keeps its filled rows.
  AllPairs moved = std::move(ap);
  EXPECT_EQ(moved.rows_filled(), 3);
  EXPECT_EQ(moved.dist(11, 0), 11);
}

// Values taken from the eager table this one replaced.
TEST(AllPairsTest, DiameterRadiusCenterPinned) {
  struct Pin {
    TopologySpec spec;
    Weight diameter, radius;
    NodeId center;
  };
  const Pin pins[] = {
      {TopologySpec::geometric(512, /*seed=*/3), 23, 12, 29},
      {TopologySpec::random_tree(200, /*seed=*/5), 51, 26, 68},
      {TopologySpec::weighted_tree(300, /*seed=*/7, Weight{1} << 40), 33229959923792,
       16737945660028, 160},
      {TopologySpec::geometric(128, /*seed=*/11, 0.2, 1000), 1398, 745, 77},
  };
  for (const Pin& p : pins) {
    AllPairs ap(p.spec.build_graph());
    EXPECT_EQ(ap.diameter(), p.diameter) << p.spec.family_name();
    EXPECT_EQ(ap.radius(), p.radius) << p.spec.family_name();
    EXPECT_EQ(ap.center(), p.center) << p.spec.family_name();
  }
}

TEST(Generators, NodeAndEdgeCounts) {
  EXPECT_EQ(make_path(6).edge_count(), 5u);
  EXPECT_EQ(make_ring(6).edge_count(), 6u);
  EXPECT_EQ(make_star(6).edge_count(), 5u);
  EXPECT_EQ(make_complete(6).edge_count(), 15u);
  EXPECT_EQ(make_grid(3, 4).node_count(), 12);
  EXPECT_EQ(make_grid(3, 4).edge_count(), 3u * 3u + 2u * 4u);
  EXPECT_EQ(make_torus(3, 3).edge_count(), 18u);
  EXPECT_EQ(make_balanced_kary_tree(15, 2).edge_count(), 14u);
  EXPECT_EQ(make_caterpillar(4, 2).node_count(), 12);
}

TEST(Generators, AllConnected) {
  Rng rng(1);
  EXPECT_TRUE(make_path(9).is_connected());
  EXPECT_TRUE(make_ring(9).is_connected());
  EXPECT_TRUE(make_grid(4, 5).is_connected());
  EXPECT_TRUE(make_torus(4, 4).is_connected());
  EXPECT_TRUE(make_balanced_kary_tree(31).is_connected());
  EXPECT_TRUE(make_erdos_renyi(40, 0.15, rng).is_connected());
  EXPECT_TRUE(make_random_geometric(40, 0.3, rng).is_connected());
  EXPECT_TRUE(make_random_tree(40, rng).is_connected());
  EXPECT_TRUE(make_lollipop(5, 6).is_connected());
}

TEST(Generators, HypercubeStructure) {
  Graph g = make_hypercube(4);
  EXPECT_EQ(g.node_count(), 16);
  EXPECT_EQ(g.edge_count(), 32u);  // d * 2^(d-1)
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4);
  AllPairs ap(g);
  EXPECT_EQ(ap.diameter(), 4);          // Hamming diameter = d
  EXPECT_EQ(ap.dist(0b0000, 0b1011), 3);  // Hamming distance
  Graph g0 = make_hypercube(0);
  EXPECT_EQ(g0.node_count(), 1);
  EXPECT_TRUE(make_hypercube(5).is_connected());
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(2);
  for (NodeId n : {1, 2, 3, 5, 17, 64}) {
    Graph g = make_random_tree(n, rng);
    EXPECT_TRUE(g.is_tree()) << "n=" << n;
  }
}

TEST(Generators, BalancedBinaryDepth) {
  Graph g = make_balanced_kary_tree(15, 2);
  auto d = bfs_hops(g, 0);
  EXPECT_EQ(*std::max_element(d.begin(), d.end()), 3);  // 15 nodes -> depth 3
}

TEST(Generators, LollipopShape) {
  Graph g = make_lollipop(4, 3);
  EXPECT_EQ(g.node_count(), 7);
  EXPECT_EQ(g.edge_count(), 6u + 3u);
  AllPairs ap(g);
  EXPECT_EQ(ap.dist(0, 6), 1 + 3);  // across the clique then down the tail
}

TEST(TreeTest, FromParentsAndDistances) {
  // Root 0 with children {1, 2}; node 3 hangs off node 1.
  Tree t = Tree::from_parents({kNoNode, 0, 0, 1}, 0);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.depth(3), 2);
  EXPECT_EQ(t.distance(3, 2), 3);
  EXPECT_EQ(t.distance(1, 2), 2);
  EXPECT_EQ(t.distance(0, 0), 0);
  EXPECT_EQ(t.lca(3, 2), 0);
  EXPECT_EQ(t.lca(3, 1), 1);
  EXPECT_EQ(t.hop_distance(3, 2), 3);
}

TEST(TreeTest, WeightedDistances) {
  Tree t({kNoNode, 0, 1}, {1, 5, 7}, 0);
  EXPECT_EQ(t.dist_to_root(2), 12);
  EXPECT_EQ(t.distance(0, 2), 12);
  EXPECT_EQ(t.distance(1, 2), 7);
  EXPECT_EQ(t.weight_to_parent(2), 7);
}

TEST(TreeTest, PathExtraction) {
  Tree t = Tree::from_parents({kNoNode, 0, 0, 1, 1, 2}, 0);
  auto p = t.path(3, 5);
  std::vector<NodeId> expected{3, 1, 0, 2, 5};
  EXPECT_EQ(p, expected);
  auto p2 = t.path(3, 3);
  EXPECT_EQ(p2, std::vector<NodeId>{3});
  auto p3 = t.path(3, 4);
  std::vector<NodeId> expected3{3, 1, 4};
  EXPECT_EQ(p3, expected3);
}

TEST(TreeTest, NextHopMatchesPathOnRandomTrees) {
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 101 + 9);
    Graph g = make_random_tree(25 + 5 * seed, rng);
    Tree t = shortest_path_tree(g, seed % 3);
    for (NodeId u = 0; u < t.node_count(); ++u) {
      for (NodeId v = 0; v < t.node_count(); ++v) {
        if (u == v) continue;
        EXPECT_EQ(t.next_hop(u, v), t.path(u, v)[1]) << u << "->" << v;
      }
    }
  }
}

TEST(TreeTest, DiameterOfPathTree) {
  Graph g = make_path(10);
  Tree t = shortest_path_tree(g, 4);
  EXPECT_EQ(t.diameter(), 9);
  auto [a, b] = t.diameter_endpoints();
  EXPECT_EQ(t.distance(a, b), 9);
}

TEST(TreeTest, RerootedPreservesDistances) {
  Rng rng(3);
  Graph g = make_random_tree(30, rng);
  Tree t = shortest_path_tree(g, 0);
  Tree r = t.rerooted(17);
  EXPECT_EQ(r.root(), 17);
  for (NodeId u = 0; u < 30; ++u)
    for (NodeId v = 0; v < 30; ++v) EXPECT_EQ(t.distance(u, v), r.distance(u, v));
}

TEST(TreeTest, NeighborsAndDegree) {
  Tree t = Tree::from_parents({kNoNode, 0, 0, 1}, 0);
  auto nb0 = t.neighbors(0);
  EXPECT_EQ(nb0.size(), 2u);
  EXPECT_EQ(t.degree(0), 2);
  EXPECT_EQ(t.degree(1), 2);  // parent + one child
  EXPECT_EQ(t.degree(3), 1);
  auto nb1 = t.neighbors(1);
  EXPECT_EQ(nb1.front(), 0);  // parent first
}

TEST(TreeTest, AsGraphRoundTrip) {
  Graph g = make_grid(3, 3);
  Tree t = shortest_path_tree(g, 0);
  Graph tg = t.as_graph();
  EXPECT_TRUE(tg.is_tree());
  EXPECT_EQ(tg.edge_count(), 8u);
}

TEST(SpanningTree, SptDistancesMatchSssp) {
  Graph g = make_grid(4, 4);
  Tree t = shortest_path_tree(g, 5);
  auto d = sssp(g, 5);
  for (NodeId v = 0; v < g.node_count(); ++v)
    EXPECT_EQ(t.dist_to_root(v), d[static_cast<std::size_t>(v)]);
}

TEST(SpanningTree, MstWeightsAgreeAcrossAlgorithms) {
  Rng rng(4);
  for (int it = 0; it < 5; ++it) {
    Graph g = make_random_geometric(25, 0.4, rng);
    Tree k = kruskal_mst(g, 0);
    Tree p = prim_mst(g, 0);
    EXPECT_EQ(k.as_graph().total_weight(), p.as_graph().total_weight());
  }
}

TEST(SpanningTree, MstIsMinimumOnSmallGraph) {
  // Triangle with weights 1, 2, 3 -> MST weight 3.
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(0, 2, 3);
  EXPECT_EQ(kruskal_mst(g, 0).as_graph().total_weight(), 3);
  EXPECT_EQ(prim_mst(g, 2).as_graph().total_weight(), 3);
}

TEST(SpanningTree, BalancedBinaryOverlayDepth) {
  Graph g = make_complete(15);
  Tree t = balanced_binary_overlay(g);
  NodeId max_depth = 0;
  for (NodeId v = 0; v < 15; ++v) max_depth = std::max(max_depth, t.depth(v));
  EXPECT_EQ(max_depth, 3);
}

TEST(SpanningTree, RandomSpanningTreeIsSpanning) {
  Rng rng(5);
  Graph g = make_grid(5, 5);
  Tree t = random_spanning_tree(g, 0, rng);
  EXPECT_TRUE(t.as_graph().is_tree());
  EXPECT_EQ(t.node_count(), 25);
}

TEST(SpanningTree, MedianSptRootMinimizesDistanceSum) {
  Graph g = make_path(9);
  Tree t = median_spt(g);
  EXPECT_EQ(t.root(), 4);  // middle of the path
}

TEST(Metrics, StretchOfSptOnTreeIsOne) {
  Rng rng(6);
  Graph g = make_random_tree(20, rng);
  Tree t = shortest_path_tree(g, 0);
  auto rep = stretch_exact(g, t);
  EXPECT_DOUBLE_EQ(rep.max_stretch, 1.0);
  EXPECT_DOUBLE_EQ(rep.avg_stretch, 1.0);
}

TEST(Metrics, StretchOfStarTreeOnRing) {
  // Ring of 8; SPT from 0 has stretch: the edge {3,4} or {4,5} side —
  // adjacent ring nodes can end up distance up to 2*floor(n/2) - 1 apart
  // ... just verify it is > 1 and matches a hand value for n = 4.
  Graph g4 = make_ring(4);
  Tree t4 = shortest_path_tree(g4, 0);
  auto rep = stretch_exact(g4, t4);
  EXPECT_GT(rep.max_stretch, 1.0);
  EXPECT_LE(rep.max_stretch, 3.0);
}

TEST(Metrics, SampledStretchNeverExceedsExact) {
  Rng rng(8);
  Graph g = make_grid(5, 5);
  Tree t = shortest_path_tree(g, 0);
  auto exact = stretch_exact(g, t);
  Rng rng2(9);
  auto sampled = stretch_sampled(g, t, 300, rng2);
  EXPECT_LE(sampled.max_stretch, exact.max_stretch + 1e-12);
  EXPECT_GE(sampled.max_stretch, 1.0);
}

TEST(Metrics, TreeQualityReport) {
  Graph g = make_complete(8);
  Tree t = balanced_binary_overlay(g);
  auto q = tree_quality(g, t);
  EXPECT_EQ(q.nodes, 8);
  EXPECT_EQ(q.graph_diameter, 1);
  EXPECT_EQ(q.tree_diameter, t.diameter());
  EXPECT_GE(q.stretch, static_cast<double>(q.tree_diameter));  // dG = 1 everywhere
}

TEST(Metrics, GridSptStretchExactValue) {
  // On a 2x2 grid (a 4-cycle), SPT from corner 0 gives stretch 3 for the
  // opposite pair of adjacent nodes.
  Graph g = make_grid(2, 2);
  Tree t = shortest_path_tree(g, 0);
  auto rep = stretch_exact(g, t);
  EXPECT_DOUBLE_EQ(rep.max_stretch, 3.0);
}

}  // namespace
}  // namespace arrowdq
