// Pairwise latency oracles for the complete-communication-graph baselines
// (centralized, pointer forwarding), mirroring the two-tier latency design
// of sim/latency.hpp.
//
// The *oracles* (UnitDist, ApspDist) are concrete value types with an inline
// `operator()` — the statically dispatched tier the baseline drivers
// template over, so the per-message distance draw is a direct, inlinable
// call. The classic `DistTicksFn` (std::function) survives as the dynamic
// tier for configuration and legacy call sites; `with_static_dist` bridges
// the two *once per run* by probing the std::function's stored target
// (unit_dist_fn / apsp_dist_fn wrap exactly these oracle types), falling
// back to a FnDist adapter — which pays the type-erased call per message —
// only for caller-supplied closures.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>

#include "graph/shortest_paths.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// Dynamic-tier pairwise latency oracle in ticks.
using DistTicksFn = std::function<Time(NodeId, NodeId)>;

/// Complete-graph oracle: one unit between any two distinct nodes (the
/// Section 5 SP2 setup).
struct UnitDist {
  Time operator()(NodeId u, NodeId v) const { return u == v ? Time{0} : kTicksPerUnit; }
  const char* name() const { return "unit"; }
};

/// dG-based oracle over an AllPairs table (must outlive the oracle). The
/// table fills the rows the draws touch, thread-safely, so sharded lanes may
/// share one oracle.
struct ApspDist {
  const AllPairs* apsp = nullptr;
  Time operator()(NodeId u, NodeId v) const { return units_to_ticks(apsp->dist(u, v)); }
  const char* name() const { return "apsp"; }
};

/// Fallback oracle for arbitrary DistTicksFn closures: pays the type-erased
/// call on every draw. The referenced function must outlive the oracle.
struct FnDist {
  const DistTicksFn* fn = nullptr;
  Time operator()(NodeId u, NodeId v) const { return (*fn)(u, v); }
  const char* name() const { return "fn"; }
};

// --- Closed-form oracles for the structured topology families --------------
//
// On path/ring/grid/torus/hypercube the graph distance is a formula of the
// node ids, so the baselines can draw dG without an AllPairs table — the
// piece that capped single runs in the tens of thousands of nodes. Each
// oracle mirrors the node numbering of the corresponding generator in
// graph/generators.cpp (unit edge weights); tests/scale_test.cpp pins every
// one bit-identical to ApspDist on the materialized graph at small n.

/// Line 0 - 1 - ... - n-1: dG(u, v) = |u - v|.
struct PathDist {
  Weight units(NodeId u, NodeId v) const {
    return static_cast<Weight>(u < v ? v - u : u - v);
  }
  Time operator()(NodeId u, NodeId v) const { return units_to_ticks(units(u, v)); }
  const char* name() const { return "path"; }
};

/// Cycle on n nodes: dG(u, v) = min(|u - v|, n - |u - v|).
struct RingDist {
  NodeId n = 0;
  Weight units(NodeId u, NodeId v) const {
    const NodeId d = u < v ? v - u : u - v;
    return static_cast<Weight>(std::min(d, n - d));
  }
  Time operator()(NodeId u, NodeId v) const { return units_to_ticks(units(u, v)); }
  const char* name() const { return "ring"; }
};

/// rows x cols mesh, node v at (v / cols, v % cols): Manhattan distance.
struct GridDist {
  NodeId cols = 0;
  Weight units(NodeId u, NodeId v) const {
    const NodeId ru = u / cols, cu = u % cols;
    const NodeId rv = v / cols, cv = v % cols;
    return static_cast<Weight>((ru < rv ? rv - ru : ru - rv) +
                               (cu < cv ? cv - cu : cu - cv));
  }
  Time operator()(NodeId u, NodeId v) const { return units_to_ticks(units(u, v)); }
  const char* name() const { return "grid"; }
};

/// rows x cols torus: per-axis wrap-around minimum, summed.
struct TorusDist {
  NodeId rows = 0;
  NodeId cols = 0;
  static NodeId axis(NodeId a, NodeId b, NodeId extent) {
    const NodeId d = a < b ? b - a : a - b;
    return std::min(d, extent - d);
  }
  Weight units(NodeId u, NodeId v) const {
    return static_cast<Weight>(axis(u / cols, v / cols, rows) +
                               axis(u % cols, v % cols, cols));
  }
  Time operator()(NodeId u, NodeId v) const { return units_to_ticks(units(u, v)); }
  const char* name() const { return "torus"; }
};

/// 2^dims-node hypercube: Hamming distance of the labels.
struct HypercubeDist {
  Weight units(NodeId u, NodeId v) const {
    return static_cast<Weight>(std::popcount(static_cast<std::uint32_t>(u ^ v)));
  }
  Time operator()(NodeId u, NodeId v) const { return units_to_ticks(units(u, v)); }
  const char* name() const { return "hypercube"; }
};

/// dG-based oracle from an AllPairs table (must outlive the returned fn).
DistTicksFn apsp_dist_fn(const AllPairs& apsp);

/// Complete-graph oracle: one unit between any two distinct nodes.
DistTicksFn unit_dist_fn();

/// One-time static dispatch: invoke `fn` with the concrete oracle stored in
/// `dist` (unit_dist_fn and apsp_dist_fn wrap UnitDist/ApspDist, recovered
/// via std::function::target), or with a FnDist adapter for anything else.
/// The probe runs once per *run*; callers templated on the oracle type then
/// draw distances with a direct call per message.
template <typename Fn>
decltype(auto) with_static_dist(const DistTicksFn& dist, Fn&& fn) {
  if (const UnitDist* p = dist.target<UnitDist>()) return fn(*p);
  if (const ApspDist* p = dist.target<ApspDist>()) return fn(*p);
  if (const PathDist* p = dist.target<PathDist>()) return fn(*p);
  if (const RingDist* p = dist.target<RingDist>()) return fn(*p);
  if (const GridDist* p = dist.target<GridDist>()) return fn(*p);
  if (const TorusDist* p = dist.target<TorusDist>()) return fn(*p);
  if (const HypercubeDist* p = dist.target<HypercubeDist>()) return fn(*p);
  return fn(FnDist{&dist});
}

}  // namespace arrowdq
