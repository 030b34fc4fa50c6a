#include "graph/metrics.hpp"

#include "support/assert.hpp"

namespace arrowdq {

StretchReport stretch_exact(const AllPairs& apsp, const Tree& t) {
  StretchReport rep;
  double sum = 0.0;
  std::int64_t pairs = 0;
  for (NodeId u = 0; u < apsp.node_count(); ++u) {
    const auto row = apsp.row(u);
    for (NodeId v = u + 1; v < apsp.node_count(); ++v) {
      Weight dg = row[static_cast<std::size_t>(v)];
      ARROWDQ_ASSERT_MSG(dg > 0, "stretch of a disconnected graph");
      double ratio = static_cast<double>(t.distance(u, v)) / static_cast<double>(dg);
      sum += ratio;
      ++pairs;
      if (ratio > rep.max_stretch) {
        rep.max_stretch = ratio;
        rep.worst_u = u;
        rep.worst_v = v;
      }
    }
  }
  if (pairs > 0) rep.avg_stretch = sum / static_cast<double>(pairs);
  return rep;
}

StretchReport stretch_exact(const Graph& g, const Tree& t) {
  ARROWDQ_ASSERT(g.node_count() == t.node_count());
  return stretch_exact(AllPairs(g), t);
}

StretchReport stretch_sampled(const Graph& g, const Tree& t, int samples, Rng& rng) {
  ARROWDQ_ASSERT(g.node_count() == t.node_count());
  ARROWDQ_ASSERT(samples > 0);
  StretchReport rep;
  double sum = 0.0;
  std::int64_t pairs = 0;
  auto n = static_cast<std::uint64_t>(g.node_count());
  NodeId last_source = kNoNode;
  std::vector<Weight> dist;
  for (int i = 0; i < samples; ++i) {
    auto u = static_cast<NodeId>(rng.next_below(n));
    auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    if (u != last_source) {
      dist = sssp(g, u);
      last_source = u;
    }
    Weight dg = dist[static_cast<std::size_t>(v)];
    ARROWDQ_ASSERT(dg > 0);
    double ratio = static_cast<double>(t.distance(u, v)) / static_cast<double>(dg);
    sum += ratio;
    ++pairs;
    if (ratio > rep.max_stretch) {
      rep.max_stretch = ratio;
      rep.worst_u = u;
      rep.worst_v = v;
    }
  }
  if (pairs > 0) rep.avg_stretch = sum / static_cast<double>(pairs);
  return rep;
}

TreeQuality tree_quality(const Graph& g, const Tree& t) {
  TreeQuality q;
  q.nodes = g.node_count();
  AllPairs apsp(g);
  q.graph_diameter = apsp.diameter();
  q.tree_diameter = t.diameter();
  q.stretch = stretch_exact(apsp, t).max_stretch;
  q.tree_weight = t.as_graph().total_weight();
  return q;
}

}  // namespace arrowdq
