// Unit and behavioural tests of the arrow protocol engine, including the
// worked examples of Figures 1-6.
#include <gtest/gtest.h>

#include <algorithm>

#include "arrow/arrow.hpp"
#include "arrow/invariants.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/latency.hpp"
#include "support/random.hpp"
#include "testutil.hpp"
#include "workload/workloads.hpp"

namespace arrowdq {
namespace {

using testutil::path_tree;

TEST(Arrow, EmptyRequestSet) {
  Tree t = path_tree(4);
  RequestSet rs(0, {});
  auto out = run_arrow(t, rs);
  EXPECT_TRUE(out.is_complete());
  EXPECT_EQ(out.order(), std::vector<RequestId>{0});
}

TEST(Arrow, SingleRequestPaysTreeDistanceToRoot) {
  Tree t = path_tree(6);
  auto rs = RequestSet::from_units(0, {{5, 0}});
  auto out = run_arrow(t, rs);
  const auto& c = out.completion(1);
  EXPECT_EQ(c.predecessor, kRootRequest);
  EXPECT_EQ(c.completed_at, units_to_ticks(5));
  EXPECT_EQ(c.hops, 5);
  EXPECT_EQ(c.distance, 5);
}

TEST(Arrow, RequestFromRootCompletesLocally) {
  Tree t = path_tree(6);
  auto rs = RequestSet::from_units(0, {{0, 0}});
  auto out = run_arrow(t, rs);
  const auto& c = out.completion(1);
  EXPECT_EQ(c.predecessor, kRootRequest);
  EXPECT_EQ(c.completed_at, 0);
  EXPECT_EQ(c.hops, 0);
}

TEST(Arrow, SequentialCaseLatencyEqualsTreeDistanceBetweenConsecutive) {
  // Demmer-Herlihy: when requests are spaced farther apart than the tree
  // diameter, each request's latency is exactly dT to its predecessor.
  Tree t = path_tree(8);
  auto rs = RequestSet::from_units(0, {{7, 0}, {2, 20}, {5, 40}});
  auto out = run_arrow(t, rs);
  EXPECT_EQ(out.order(), (std::vector<RequestId>{0, 1, 2, 3}));
  EXPECT_EQ(out.completion(1).completed_at - rs.by_id(1).time, units_to_ticks(7));
  EXPECT_EQ(out.completion(2).completed_at - rs.by_id(2).time, units_to_ticks(5));
  EXPECT_EQ(out.completion(3).completed_at - rs.by_id(3).time, units_to_ticks(3));
}

TEST(Arrow, SameNodeRepeatedRequestsQueueLocally) {
  Tree t = path_tree(4);
  auto rs = RequestSet::from_units(0, {{3, 0}, {3, 10}, {3, 20}});
  auto out = run_arrow(t, rs);
  EXPECT_EQ(out.order(), (std::vector<RequestId>{0, 1, 2, 3}));
  // Second and third requests complete locally with zero hops.
  EXPECT_EQ(out.completion(2).hops, 0);
  EXPECT_EQ(out.completion(3).hops, 0);
  EXPECT_EQ(out.completion(2).completed_at, rs.by_id(2).time);
}

TEST(Arrow, ConcurrentRequestsDeflect) {
  // Figure 6's scenario: root v in the middle, x and y request concurrently.
  //   path: x(0) - u(1) - v(2) ... with y also adjacent to u.
  //   star-ish tree: v root; u child of v; x, y children of u.
  Tree t = Tree::from_parents({1, 2, kNoNode, 1}, 2);  // 0=x, 1=u, 2=v(root), 3=y
  auto rs = RequestSet::from_units(2, {{0, 0}, {3, 0}});
  auto out = run_arrow(t, rs);
  auto order = out.order();
  // Both orders are legal depending on tie-break; the deflected request is
  // queued behind the other, and exactly one of them paid the full path.
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], kRootRequest);
  RequestId first = order[1], second = order[2];
  EXPECT_EQ(out.completion(first).predecessor, kRootRequest);
  EXPECT_EQ(out.completion(second).predecessor, first);
  // The deflected message traveled x->u->y (2 hops), not to the root.
  EXPECT_EQ(out.completion(second).hops, 2);
  EXPECT_EQ(out.completion(first).hops, 2);
}

TEST(Arrow, QuiescentStateHasUniqueSinkAtLastRequester) {
  Rng rng(42);
  Graph g = make_grid(5, 5);
  Tree t = shortest_path_tree(g, 0);
  auto rs = poisson_uniform(25, 0, 30, 0.7, rng);
  SynchronousLatency sync;
  ArrowEngine engine(t, sync);
  auto out = engine.run(rs);
  out.validate(rs);
  auto order = out.order();
  NodeId last_node = rs.by_id(order.back()).node;
  EXPECT_EQ(engine.sink_node(), last_node);
  EXPECT_TRUE(links_form_in_tree(engine.links(), t));
}

TEST(Arrow, MessageCountEqualsTotalHops) {
  Rng rng(7);
  Graph g = make_grid(4, 4);
  Tree t = shortest_path_tree(g, 3);
  auto rs = one_shot_all(16, 3);
  SynchronousLatency sync;
  ArrowEngine engine(t, sync);
  auto out = engine.run(rs);
  EXPECT_EQ(engine.messages_sent(), static_cast<std::uint64_t>(out.total_hops()));
}

TEST(Arrow, MakespanIsTheLastCompletion) {
  // Fault-free, the run's last event records a completion, so the engine's
  // makespan is the latest completion time.
  Rng rng(11);
  Graph g = make_grid(4, 5);
  Tree t = shortest_path_tree(g, 2);
  auto rs = poisson_uniform(20, 2, 25, 1.5, rng);
  SynchronousLatency sync;
  ArrowEngine engine(t, sync);
  auto out = engine.run(rs);
  Time last = 0;
  for (RequestId id = 1; id <= out.request_count(); ++id)
    last = std::max(last, out.completion(id).completed_at);
  EXPECT_GT(last, 0);
  EXPECT_EQ(engine.makespan(), last);
}

TEST(Arrow, LatencyEqualsTreeDistanceToPredecessor) {
  // Equation (1): cA(ri, rj) = dT(vi, vj) in the synchronous model, for all
  // requests, concurrent or not.
  Rng rng(11);
  Graph g = make_grid(4, 5);
  Tree t = shortest_path_tree(g, 0);
  auto rs = poisson_uniform(20, 0, 40, 2.0, rng);
  auto out = run_arrow(t, rs);
  for (RequestId id = 1; id <= rs.size(); ++id) {
    const auto& c = out.completion(id);
    Weight d = t.distance(rs.by_id(id).node, rs.by_id(c.predecessor).node);
    EXPECT_EQ(c.completed_at - rs.by_id(id).time, units_to_ticks(d)) << "request " << id;
    EXPECT_EQ(c.distance, d);
  }
}

TEST(Arrow, WorksWhenTreeRootDiffersFromRequestRoot) {
  Graph g = make_grid(3, 3);
  Tree t = shortest_path_tree(g, 8);  // rooted elsewhere
  auto rs = RequestSet::from_units(4, {{0, 0}, {7, 3}});
  auto out = run_arrow(t, rs);  // initial sink must be node 4
  out.validate(rs);
  EXPECT_EQ(out.completion(1).distance, t.distance(0, 4));
}

TEST(Arrow, WeightedTreeUsesWeightedLatency) {
  Graph g(3);
  g.add_edge(0, 1, 4);
  g.add_edge(1, 2, 9);
  Tree t = shortest_path_tree(g, 0);
  auto rs = RequestSet::from_units(0, {{2, 0}});
  auto out = run_arrow(t, rs);
  EXPECT_EQ(out.completion(1).completed_at, units_to_ticks(13));
  EXPECT_EQ(out.completion(1).hops, 2);
  EXPECT_EQ(out.completion(1).distance, 13);
}

TEST(Arrow, BurstOnStarSerializesThroughCenter) {
  Graph g = make_star(6);
  Tree t = shortest_path_tree(g, 0);
  auto rs = one_shot_burst({1, 2, 3, 4, 5}, 0);
  auto out = run_arrow(t, rs);
  out.validate(rs);
  // All five requests are 1 hop from the root; exactly one wins the root,
  // the rest chain behind one another with distance 2 (leaf-center-leaf).
  auto order = out.order();
  EXPECT_EQ(out.completion(order[1]).distance, 1);
  for (std::size_t i = 2; i < order.size(); ++i)
    EXPECT_EQ(out.completion(order[i]).distance, 2);
}

TEST(Arrow, DeterministicAcrossRuns) {
  Rng rng(3);
  Graph g = make_grid(4, 4);
  Tree t = shortest_path_tree(g, 0);
  auto rs = poisson_uniform(16, 0, 25, 1.5, rng);
  auto a = run_arrow(t, rs);
  auto b = run_arrow(t, rs);
  EXPECT_EQ(a.order(), b.order());
  EXPECT_EQ(a.total_latency(rs), b.total_latency(rs));
  EXPECT_EQ(a.total_hops(), b.total_hops());
}

TEST(Arrow, HighContentionHasLowHopsPerRequest) {
  // The Section 5 observation: under contention, neighbouring requests in
  // the queue are close on the tree, so hops per request stay small.
  Graph g = make_complete(16);
  Tree t = balanced_binary_overlay(g);
  Rng rng(5);
  auto rs = bursty(16, 0, 20, 16, 1, rng);  // 20 bursts of 16 concurrent
  auto out = run_arrow(t, rs);
  double hops_per_req = static_cast<double>(out.total_hops()) / rs.size();
  EXPECT_LT(hops_per_req, 2.0);
}

using LatencyFactory = std::unique_ptr<LatencyModel> (*)();

class ArrowLatencyModels : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<LatencyModel> make() const {
    switch (GetParam()) {
      case 0: return make_synchronous();
      case 1: return make_scaled(0.5);
      case 2: return make_uniform_async(17);
      default: return make_truncated_exp(23);
    }
  }
};

TEST_P(ArrowLatencyModels, OutcomeValidOnAllModels) {
  Rng rng(29);
  Graph g = make_grid(5, 4);
  Tree t = shortest_path_tree(g, 0);
  auto rs = poisson_uniform(20, 0, 35, 1.0, rng);
  auto lat = make();
  auto out = run_arrow(t, rs, *lat);
  out.validate(rs);
  EXPECT_TRUE(out.is_complete());
}

TEST_P(ArrowLatencyModels, AsyncLatencyNeverExceedsSynchronous) {
  // Section 3.8: with all message delays <= 1 unit per unit weight, the
  // latency of a request is at most dT to its predecessor.
  Rng rng(31);
  Graph g = make_grid(4, 4);
  Tree t = shortest_path_tree(g, 0);
  auto rs = poisson_uniform(16, 0, 30, 1.2, rng);
  auto lat = make();
  auto out = run_arrow(t, rs, *lat);
  for (RequestId id = 1; id <= rs.size(); ++id) {
    const auto& c = out.completion(id);
    Weight d = t.distance(rs.by_id(id).node, rs.by_id(c.predecessor).node);
    EXPECT_LE(c.completed_at - rs.by_id(id).time, units_to_ticks(d)) << "request " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ArrowLatencyModels, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace arrowdq
