// Large-scale randomized stress: hundreds of requests on graphs of a few
// hundred nodes, across latency models and workload mixes. Catches rare
// concurrency interleavings the small property sweeps cannot reach. Every
// run re-validates the full outcome (permutation order, unique
// predecessors, causality), the quiescent pointer invariants, and the
// NN characterization.
#include <gtest/gtest.h>

#include "analysis/async_nn.hpp"
#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "arrow/invariants.hpp"
#include "baseline/centralized.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/latency.hpp"
#include "support/random.hpp"
#include "workload/workloads.hpp"

namespace arrowdq {
namespace {

class ArrowStress : public ::testing::TestWithParam<int> {};

TEST_P(ArrowStress, LargeMixedWorkloadFullValidation) {
  int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 0x9E3779B9ULL + 0xBADC0DE);

  Graph g;
  switch (seed % 5) {
    case 0: g = make_grid(12, 12); break;
    case 1: g = make_hypercube(7); break;
    case 2: g = make_random_tree(180, rng); break;
    case 3: g = make_torus(10, 12); break;
    default: g = make_random_geometric(120, 0.18, rng); break;
  }
  auto root = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(g.node_count())));
  Tree t = (seed % 2 == 0) ? shortest_path_tree(g, root) : kruskal_mst(g, root);

  // Mixed workload: a burst, a Poisson stream, and repeated-node chatter,
  // all merged into one request set.
  Rng wrng = rng.split();
  std::vector<std::pair<NodeId, Time>> items;
  for (int i = 0; i < 60; ++i)
    items.emplace_back(static_cast<NodeId>(wrng.next_below(
                           static_cast<std::uint64_t>(g.node_count()))),
                       0);
  double t_units = 0.0;
  for (int i = 0; i < 250; ++i) {
    t_units += wrng.next_exponential(2.0);
    items.emplace_back(static_cast<NodeId>(wrng.next_below(
                           static_cast<std::uint64_t>(g.node_count()))),
                       static_cast<Time>(t_units * kTicksPerUnit));
  }
  NodeId chatterbox = static_cast<NodeId>(wrng.next_below(
      static_cast<std::uint64_t>(g.node_count())));
  for (int i = 0; i < 40; ++i)
    items.emplace_back(chatterbox, static_cast<Time>(i) * kTicksPerUnit / 4);
  RequestSet reqs(root, std::move(items));

  std::unique_ptr<LatencyModel> lat;
  switch (seed % 3) {
    case 0: lat = make_synchronous(); break;
    case 1: lat = make_uniform_async(static_cast<std::uint64_t>(seed) + 1, 0.02); break;
    default: lat = make_truncated_exp(static_cast<std::uint64_t>(seed) + 2, 0.4); break;
  }

  ArrowEngine engine(t, *lat);
  auto out = engine.run(reqs);
  out.validate(reqs);
  EXPECT_TRUE(links_form_in_tree(engine.links(), t));
  EXPECT_EQ(engine.sink_node(), reqs.by_id(out.order().back()).node);

  // Latency of every request bounded by dT to its predecessor.
  for (RequestId id = 1; id <= reqs.size(); ++id) {
    const auto& c = out.completion(id);
    Weight d = t.distance(reqs.by_id(id).node, reqs.by_id(c.predecessor).node);
    EXPECT_LE(c.completed_at - reqs.by_id(id).time, units_to_ticks(d));
    EXPECT_EQ(c.distance, d);  // direct-path property at scale
  }

  // NN characterization (the async variant covers the synchronous case).
  auto rep = check_async_nn(t, reqs, out);
  EXPECT_TRUE(rep.is_nn) << "seed " << seed << " violations " << rep.violations;
  EXPECT_TRUE(rep.chain_holds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrowStress, ::testing::Range(0, 10));

TEST(BaselineStress, PointerForwardingHeavyConcurrency) {
  // 400 requests, half fully concurrent, on 96 nodes: both pointer rules
  // must terminate and produce valid orders.
  const NodeId n = 96;
  Rng rng(1);
  std::vector<std::pair<NodeId, Weight>> items;
  for (int i = 0; i < 200; ++i)
    items.emplace_back(static_cast<NodeId>(rng.next_below(n)), 0);
  for (int i = 0; i < 200; ++i)
    items.emplace_back(static_cast<NodeId>(rng.next_below(n)), i / 4);
  auto reqs = RequestSet::from_units(0, items);
  for (auto mode : {ForwardingMode::kCompressToRequester, ForwardingMode::kReverseToSender}) {
    PointerForwardingConfig cfg;
    cfg.mode = mode;
    auto out = run_pointer_forwarding(n, reqs, complete_dist(n), cfg);
    out.validate(reqs);
  }
}

TEST(BaselineStress, CentralizedHeavyConcurrency) {
  const NodeId n = 96;
  Rng rng(2);
  auto reqs = one_shot_all(n, 0);
  CentralizedConfig cfg{0, kTicksPerUnit / 8};
  auto out = run_centralized(n, reqs, complete_dist(n), cfg);
  out.validate(reqs);
  // Service serializes the center: the last completion is at least
  // (n-1) service intervals after the first.
  auto order = out.order();
  Time first = out.completion(order[1]).completed_at;
  Time last = out.completion(order.back()).completed_at;
  EXPECT_GE(last - first, (n - 2) * (kTicksPerUnit / 8));
}

TEST(ClosedLoopStress, LongRunOnModerateCluster) {
  Graph g = make_complete(48);
  Tree t = balanced_binary_overlay(g);
  SynchronousLatency sync;
  ClosedLoopConfig cfg;
  cfg.requests_per_node = 5000;
  cfg.service_time = kTicksPerUnit / 16;
  auto res = run_arrow_closed_loop(t, sync, cfg);
  EXPECT_EQ(res.total_requests, 48 * 5000);
  EXPECT_LT(res.avg_hops_per_request, 1.0);
  EXPECT_GT(res.makespan, 0);
}

}  // namespace
}  // namespace arrowdq
