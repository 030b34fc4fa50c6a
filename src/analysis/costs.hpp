// The paper's cost functions over request pairs (Section 3), all in ticks.
//
//   cT(ri, rj)  (Definition 3.5)  — the asymmetric cost whose NN path arrow
//                                   follows: d = (tj - ti) + dT(vi, vj) if
//                                   d >= 0, else (ti - tj) + dT(vi, vj).
//   cM(ri, rj)  (Definition 3.14) — Manhattan metric dT(vi, vj) + |ti - tj|.
//   cO(ri, rj)  (Equation 3)      — max{dT(vi, vj), ti - tj}: lower bound on
//                                   the latency of ordering rj right after ri
//                                   when messages travel the tree.
//   cOpt(ri,rj) (Equation 3)      — same with graph distances dG: the true
//                                   offline-optimal per-edge latency bound.
#pragma once

#include <functional>
#include <span>

#include "graph/shortest_paths.hpp"
#include "graph/tree.hpp"
#include "proto/request.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// Pairwise node distance in ticks.
using DistFn = std::function<Time(NodeId, NodeId)>;

/// dT over the spanning tree (tree must outlive the function).
DistFn tree_dist_ticks(const Tree& tree);
/// dG over the graph via an AllPairs table (apsp must outlive the function).
DistFn graph_dist_ticks(const AllPairs& apsp);

/// Cost of ordering request rj immediately after ri.
using CostFn = std::function<Time(const Request& ri, const Request& rj)>;

CostFn make_cT(DistFn dist);
CostFn make_cM(DistFn dist);
CostFn make_cO(DistFn dist);

/// Direct evaluations (avoid the std::function wrapper in hot loops).
Time cost_cT(const Request& ri, const Request& rj, const DistFn& dist);
Time cost_cM(const Request& ri, const Request& rj, const DistFn& dist);
Time cost_cO(const Request& ri, const Request& rj, const DistFn& dist);

/// Sum of cost over consecutive pairs of `order` (ids into `reqs`, starting
/// with the root request 0).
Time order_cost(std::span<const RequestId> order, const RequestSet& reqs, const CostFn& cost);

}  // namespace arrowdq
