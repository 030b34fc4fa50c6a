// Scale-path invariants: closed-form distance oracles, implicit topologies,
// and the compact closed-loop driver.
//
// The contract under test is exactness, not approximation:
//  * every closed-form oracle returns bit-identical ticks to the APSP table
//    it replaces, over all pairs;
//  * implicit adjacency enumerates exactly the materialized generator's
//    edges;
//  * implicit tree parents reproduce shortest_path_tree()'s min-id Dijkstra
//    parents for every root, so the implicit tier is indistinguishable from
//    the materialized one;
//  * the implicit closed-loop driver (CompactSimulator's 32-byte slots,
//    32-bit round counters, on-the-fly edge ids) is tick-identical to the
//    materialized driver (64-byte slots, 64-bit counters) — the compact
//    memory path changes cost, never results;
//  * resolve() really skips the O(n^2) APSP and the Graph for structured
//    families, and the validation layer refuses absurd materializations.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arrow/closed_loop.hpp"
#include "baseline/dist.hpp"
#include "exp/experiment.hpp"
#include "exp/registry.hpp"
#include "graph/generators.hpp"
#include "graph/implicit.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/spanning_tree.hpp"
#include "testutil.hpp"

namespace arrowdq {
namespace {

// --- closed-form oracles vs APSP -------------------------------------------

template <typename Oracle>
void expect_oracle_matches_apsp(const Graph& g, Oracle oracle) {
  AllPairs apsp(g);
  ApspDist ref{&apsp};
  const NodeId n = g.node_count();
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = 0; v < n; ++v)
      ASSERT_EQ(oracle(u, v), ref(u, v)) << oracle.name() << " dist(" << u << ", " << v << ")";
}

TEST(ClosedFormOracles, PathMatchesApspBitIdentical) {
  expect_oracle_matches_apsp(make_path(129), PathDist{});
}

TEST(ClosedFormOracles, RingMatchesApspBitIdentical) {
  expect_oracle_matches_apsp(make_ring(97), RingDist{97});
  expect_oracle_matches_apsp(make_ring(96), RingDist{96});  // even n: antipode tie
}

TEST(ClosedFormOracles, GridMatchesApspBitIdentical) {
  expect_oracle_matches_apsp(make_grid(7, 19), GridDist{19});  // non-square
  expect_oracle_matches_apsp(make_grid(16, 8), GridDist{8});
  expect_oracle_matches_apsp(make_grid(1, 24), GridDist{24});  // degenerate row
}

TEST(ClosedFormOracles, TorusMatchesApspBitIdentical) {
  expect_oracle_matches_apsp(make_torus(5, 11), TorusDist{5, 11});  // non-square
  expect_oracle_matches_apsp(make_torus(8, 8), TorusDist{8, 8});
}

TEST(ClosedFormOracles, HypercubeMatchesApspBitIdentical) {
  expect_oracle_matches_apsp(make_hypercube(9), HypercubeDist{});  // n = 512
}

TEST(ClosedFormOracles, StaticDispatchRecognizesOracles) {
  // with_static_dist must route each closed-form oracle to its typed slot:
  // wrapping one in a DistTicksFn and dispatching must reproduce its values.
  AllPairs apsp(make_torus(4, 5));
  TorusDist torus{4, 5};
  DistTicksFn fn = torus;
  for (NodeId u = 0; u < 20; ++u)
    for (NodeId v = 0; v < 20; ++v)
      EXPECT_EQ(fn(u, v), ApspDist{&apsp}(u, v)) << u << "," << v;
}

// --- implicit adjacency vs materialized generators --------------------------

ImplicitTopology implicit_for(const TopologySpec& t) {
  ImplicitTopology topo;
  switch (t.family) {
    case TopologySpec::Family::kComplete:
      topo.family = ImplicitFamily::kComplete;
      break;
    case TopologySpec::Family::kPath:
      topo.family = ImplicitFamily::kPath;
      break;
    case TopologySpec::Family::kRing:
      topo.family = ImplicitFamily::kRing;
      break;
    case TopologySpec::Family::kGrid:
      topo.family = ImplicitFamily::kGrid;
      break;
    case TopologySpec::Family::kTorus:
      topo.family = ImplicitFamily::kTorus;
      break;
    case TopologySpec::Family::kHypercube:
      topo.family = ImplicitFamily::kHypercube;
      break;
    default:
      ADD_FAILURE() << "family has no implicit form";
  }
  topo.n = t.nodes;
  topo.rows = t.rows;
  topo.cols = t.cols;
  topo.root = t.root;
  return topo;
}

std::vector<TopologySpec> structured_specs() {
  return {TopologySpec::complete(17), TopologySpec::path(33),   TopologySpec::ring(29),
          TopologySpec::grid(6, 7),   TopologySpec::torus(4, 5), TopologySpec::hypercube(5)};
}

TEST(ImplicitTopology, NeighborsMatchMaterializedAdjacency) {
  for (const TopologySpec& spec : structured_specs()) {
    const Graph g = spec.build_graph();
    const ImplicitTopology topo = implicit_for(spec);
    ASSERT_EQ(topo.node_count(), g.node_count()) << spec.family_name();
    for (NodeId v = 0; v < g.node_count(); ++v) {
      std::vector<NodeId> expected;
      for (const HalfEdge& h : g.neighbors(v)) expected.push_back(h.to);
      std::sort(expected.begin(), expected.end());
      std::vector<NodeId> got = topo.neighbors(v);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << spec.family_name() << " node " << v;
      EXPECT_EQ(topo.degree(v), static_cast<NodeId>(expected.size()))
          << spec.family_name() << " node " << v;
    }
  }
}

TEST(ImplicitTopology, DistancesMatchApsp) {
  for (const TopologySpec& spec : structured_specs()) {
    const Graph g = spec.build_graph();
    AllPairs apsp(g);
    const ImplicitTopology topo = implicit_for(spec);
    for (NodeId u = 0; u < g.node_count(); ++u)
      for (NodeId v = 0; v < g.node_count(); ++v)
        ASSERT_EQ(units_to_ticks(topo.distance(u, v)), ApspDist{&apsp}(u, v))
            << spec.family_name() << " dist(" << u << ", " << v << ")";
  }
}

// --- implicit tree parents vs min-id Dijkstra -------------------------------

TEST(ImplicitTopology, TreeParentsMatchShortestPathTree) {
  for (const TopologySpec& spec : structured_specs()) {
    const Graph g = spec.build_graph();
    for (NodeId root : {NodeId{0}, NodeId{1}, static_cast<NodeId>(g.node_count() - 1),
                        static_cast<NodeId>(g.node_count() / 2)}) {
      const Tree ref = shortest_path_tree(g, root);
      ImplicitTopology topo = implicit_for(spec);
      topo.root = root;
      for (NodeId v = 0; v < g.node_count(); ++v)
        ASSERT_EQ(topo.tree_parent(v), ref.parent(v))
            << spec.family_name() << " root " << root << " node " << v;
      const Tree made = topo.materialize_tree();
      ASSERT_EQ(made.root(), ref.root()) << spec.family_name() << " root " << root;
      for (NodeId v = 0; v < g.node_count(); ++v)
        ASSERT_EQ(made.parent(v), ref.parent(v))
            << spec.family_name() << " root " << root << " node " << v;
    }
  }
}

TEST(ImplicitTopology, BalancedBinaryOverlayMatches) {
  const Graph g = make_complete(30);
  const Tree ref = balanced_binary_overlay(g, 0);
  ImplicitTopology topo;
  topo.family = ImplicitFamily::kComplete;
  topo.n = 30;
  topo.root = 0;
  topo.balanced_binary = true;
  const Tree made = topo.materialize_tree();
  for (NodeId v = 0; v < 30; ++v) {
    EXPECT_EQ(topo.tree_parent(v), ref.parent(v)) << v;
    EXPECT_EQ(made.parent(v), ref.parent(v)) << v;
  }
}

// --- implicit closed loop vs materialized driver ----------------------------

// Also the 32-bit-vs-64-bit equivalence test: the implicit driver runs on
// CompactSimulator (32-byte event slots) with int32 per-node round counters,
// the materialized one on the default Simulator with int64 counters. Every
// metric must match exactly.
void expect_loops_identical(const ImplicitTopology& topo, const LatencySpec& lat,
                            const ClosedLoopConfig& cfg, const char* what) {
  const Tree tree = topo.materialize_tree();
  auto m_mat = lat.make();
  auto m_imp = lat.make();
  const ClosedLoopResult a = run_arrow_closed_loop(tree, *m_mat, cfg);
  const ClosedLoopResult b = run_arrow_closed_loop_implicit(topo, *m_imp, cfg);
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.total_requests, b.total_requests) << what;
  EXPECT_EQ(a.tree_messages, b.tree_messages) << what;
  EXPECT_EQ(a.notify_messages, b.notify_messages) << what;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << what;
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated) << what;
  EXPECT_DOUBLE_EQ(a.avg_hops_per_request, b.avg_hops_per_request) << what;
  EXPECT_DOUBLE_EQ(a.avg_round_latency_units, b.avg_round_latency_units) << what;
}

TEST(ImplicitClosedLoop, TickIdenticalToMaterializedHypercube) {
  ImplicitTopology topo;
  topo.family = ImplicitFamily::kHypercube;
  topo.n = 1024;
  ClosedLoopConfig cfg;
  cfg.requests_per_node = 5;
  expect_loops_identical(topo, LatencySpec::synchronous(), cfg, "hypercube sync");
  cfg.service_time = kTicksPerUnit / 16;
  expect_loops_identical(topo, LatencySpec::synchronous(), cfg, "hypercube sync+service");
  expect_loops_identical(topo, LatencySpec::uniform_async(/*seed=*/7, 0.1), cfg,
                         "hypercube uniform+service");
}

TEST(ImplicitClosedLoop, TickIdenticalToMaterializedTorus) {
  ImplicitTopology topo;
  topo.family = ImplicitFamily::kTorus;
  topo.n = 256;
  topo.rows = 16;
  topo.cols = 16;
  topo.root = 37;  // off-origin root exercises the wrap-parent closed form
  ClosedLoopConfig cfg;
  cfg.requests_per_node = 7;
  cfg.service_time = kTicksPerUnit / 16;
  expect_loops_identical(topo, LatencySpec::truncated_exp(/*seed=*/3, 0.3), cfg, "torus exp");
}

TEST(ImplicitClosedLoop, TickIdenticalUnderMessageFaults) {
  // Crash recovery is materialized-only, but message-level faults must ride
  // the implicit path unchanged.
  ImplicitTopology topo;
  topo.family = ImplicitFamily::kRing;
  topo.n = 128;
  ClosedLoopConfig cfg;
  cfg.requests_per_node = 6;
  cfg.fault = FaultSpec::loss(0.05);
  cfg.fault.seed = 11;
  expect_loops_identical(topo, LatencySpec::uniform_async(/*seed=*/5, 0.1), cfg, "ring loss");
}

// --- resolve() scale decisions ----------------------------------------------

TEST(ScaleResolve, StructuredBaselineSkipsApspAndGraph) {
  Experiment e;
  e.protocol = ProtocolSpec::centralized(0, kTicksPerUnit / 16);
  e.topology = TopologySpec::torus(8, 8);
  e.rounds = 5;
  const exp_detail::Resolved r = exp_detail::resolve(e);
  EXPECT_FALSE(r.apsp.has_value()) << "torus must use the closed-form oracle, not APSP";
  EXPECT_EQ(r.graph.node_count(), 0) << "no Graph should be materialized";
  EXPECT_EQ(r.n, 64);
  EXPECT_EQ(r.dist, exp_detail::DistOracle::kTorus);
}

TEST(ScaleResolve, IrregularBaselineStillBuildsApsp) {
  Experiment e;
  e.protocol = ProtocolSpec::centralized();
  e.topology = TopologySpec::geometric(48, /*seed=*/3);
  e.rounds = 5;
  const exp_detail::Resolved r = exp_detail::resolve(e);
  EXPECT_TRUE(r.apsp.has_value());
  EXPECT_EQ(r.dist, exp_detail::DistOracle::kApsp);
  EXPECT_EQ(r.n, 48);
}

// The irregular-family table fills only the rows a run reads: the
// centralized driver reads dG(., center) alone, forwarding at most one row
// per node.
TEST(ScaleResolve, BaselinesFillOnlyTheRowsTheyRead) {
  const auto rows_after_run = [](Experiment e) {
    const exp_detail::Resolved r = exp_detail::resolve(e);
    EXPECT_EQ(r.apsp->rows_filled(), 0) << "resolve() must not compute rows";
    exp_detail::kDriverRegistry[static_cast<std::size_t>(e.protocol.kind)](e, r);
    return r.apsp->rows_filled();
  };
  Experiment e;
  e.topology = TopologySpec::geometric(512, /*seed=*/3);
  e.latency = LatencySpec::uniform_async(/*seed=*/5, 0.2);
  e.protocol = ProtocolSpec::centralized(/*center=*/17);
  e.rounds = 3;
  EXPECT_EQ(rows_after_run(e), 1) << "centralized closed loop";
  e.rounds = 0;
  e.workload = WorkloadSpec::poisson(400, 2.0, /*seed=*/9);
  EXPECT_EQ(rows_after_run(e), 1) << "centralized one-shot";

  e.protocol = ProtocolSpec::pointer_forwarding(ForwardingMode::kReverseToSender);
  const NodeId one_shot_rows = rows_after_run(e);
  EXPECT_GE(one_shot_rows, 1);
  EXPECT_LE(one_shot_rows, 512);
  e.rounds = 3;
  const NodeId loop_rows = rows_after_run(e);
  EXPECT_GE(loop_rows, 1);
  EXPECT_LE(loop_rows, 512);
}

TEST(ScaleResolve, ImplicitLoopFlagSetWithoutCrash) {
  Experiment e;
  e.protocol = ProtocolSpec::arrow_closed_loop();
  e.topology = TopologySpec::hypercube(6);
  e.rounds = 3;
  exp_detail::Resolved r = exp_detail::resolve(e);
  EXPECT_TRUE(r.implicit_loop);
  ASSERT_TRUE(r.implicit.has_value());
  EXPECT_EQ(r.graph.node_count(), 0);
  EXPECT_EQ(r.tree.node_count(), 1) << "implicit loop keeps the placeholder tree";

  // A crash schedule needs the recovery wave's real Tree: still no Graph,
  // but the tree is materialized from the closed form and the implicit
  // driver is bypassed.
  e.fault = FaultSpec::crash(1);
  r = exp_detail::resolve(e);
  EXPECT_FALSE(r.implicit_loop);
  EXPECT_EQ(r.graph.node_count(), 0);
  EXPECT_EQ(r.tree.node_count(), 64);
}

TEST(ScaleResolve, AnalysisForcesMaterialization) {
  Experiment e;
  e.protocol = ProtocolSpec::arrow_one_shot();
  e.topology = TopologySpec::torus(4, 4);
  e.keep_outcome = true;
  e.analyze = true;
  const exp_detail::Resolved r = exp_detail::resolve(e);
  EXPECT_EQ(r.graph.node_count(), 16) << "analyze_competitive walks the real graph";
  EXPECT_FALSE(r.implicit_loop);
}

TEST(ScaleResolve, ImplicitExperimentMatchesMaterializedExperiment) {
  // End to end through run_experiment: an arrow-loop cell on a structured
  // family (implicit path) must report the same numbers as the identical
  // cell forced onto the materialized path via a custom topology.
  Experiment e;
  e.protocol = ProtocolSpec::arrow_closed_loop(kTicksPerUnit / 16);
  e.topology = TopologySpec::ring(64);
  e.latency = LatencySpec::uniform_async(/*seed=*/9, 0.1);
  e.rounds = 10;
  const RunResult implicit_run = run_experiment(e);

  Experiment m = e;
  const Graph g = TopologySpec::ring(64).build_graph();
  m.topology = TopologySpec::custom(g, shortest_path_tree(g, 0));
  const RunResult materialized_run = run_experiment(m);

  EXPECT_EQ(implicit_run.makespan, materialized_run.makespan);
  EXPECT_EQ(implicit_run.total_requests, materialized_run.total_requests);
  EXPECT_EQ(implicit_run.messages, materialized_run.messages);
  EXPECT_EQ(implicit_run.total_hops, materialized_run.total_hops);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(implicit_run.peak_rss_bytes, 0u);
#endif
}

// --- validation guards ------------------------------------------------------

TEST(ScaleValidation, StructuralErrorsAreDiagnosed) {
  TopologySpec grid = TopologySpec::grid(4, 4);
  grid.nodes = 17;  // no longer rows * cols
  EXPECT_TRUE(grid.validate().has_value());

  TopologySpec ring = TopologySpec::ring(2);
  EXPECT_TRUE(ring.validate().has_value());

  EXPECT_TRUE(TopologySpec::hypercube(29).validate().has_value()) << "past the 2^28 id cap";

  TopologySpec torus = TopologySpec::torus(3, 3);
  torus.root = 9;
  EXPECT_TRUE(torus.validate().has_value()) << "root out of range";

  EXPECT_FALSE(TopologySpec::torus(3, 3).validate().has_value());
  EXPECT_FALSE(TopologySpec::hypercube(20).validate().has_value());
}

TEST(ScaleValidation, AbsurdMaterializationsAreRefused) {
  // Baseline on an irregular family past the APSP cap.
  Experiment apsp_bomb;
  apsp_bomb.protocol = ProtocolSpec::centralized();
  apsp_bomb.topology = TopologySpec::random_tree(100000, /*seed=*/1);
  apsp_bomb.rounds = 1;
  EXPECT_TRUE(validate_experiment(apsp_bomb).has_value());

  // Geometric at n = 10^6 would materialize ~10^11 edges.
  Experiment geo_bomb;
  geo_bomb.protocol = ProtocolSpec::arrow_closed_loop();
  geo_bomb.topology = TopologySpec::geometric(1000000, /*seed=*/1);
  geo_bomb.rounds = 1;
  EXPECT_TRUE(validate_experiment(geo_bomb).has_value());

  // The same n on a structured family rides the implicit tier: accepted.
  Experiment big_ok;
  big_ok.protocol = ProtocolSpec::arrow_closed_loop();
  big_ok.topology = TopologySpec::hypercube(20);
  big_ok.rounds = 1;
  EXPECT_FALSE(validate_experiment(big_ok).has_value());

  // Baselines on complete graphs never materialize either.
  Experiment complete_ok;
  complete_ok.protocol = ProtocolSpec::centralized();
  complete_ok.topology = TopologySpec::complete(1 << 20);
  complete_ok.rounds = 1;
  EXPECT_FALSE(validate_experiment(complete_ok).has_value());
}

// --- ring family end to end -------------------------------------------------

TEST(RingFamily, GeneratorAndExperimentAgree) {
  const Graph g = TopologySpec::ring(12).build_graph();
  EXPECT_EQ(g.node_count(), 12);
  EXPECT_EQ(g.edge_count(), 12u);
  for (NodeId v = 0; v < 12; ++v) EXPECT_EQ(g.degree(v), 2) << v;
  EXPECT_STREQ(TopologySpec::ring(12).family_name(), "ring");

  Experiment e;
  e.protocol = ProtocolSpec::arrow_closed_loop();
  e.topology = TopologySpec::ring(12);
  e.rounds = 4;
  const RunResult r = run_experiment(e);
  EXPECT_EQ(r.total_requests, 48);
  EXPECT_GT(r.makespan, 0);
}

}  // namespace
}  // namespace arrowdq
