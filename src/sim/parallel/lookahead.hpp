// Conservative lookahead derivation for the sharded engine.
//
// The safe-window width L is a Chandy–Misra–Bryant-style lower bound on the
// latency of *any* send: if every message scheduled at time t delivers at or
// after t + L, then the interval [W0, W0 + L) can execute on all shards
// concurrently — no send made inside the window can deliver inside it, so
// no shard can affect another (or itself, through the network) before the
// next barrier.
//
// Each latency sampler yields a closed-form floor as a fraction of the
// minimum edge weight; latency-shrinking faults (a spike with factor < 1)
// scale it down conservatively. The floors bottom out at 1 tick — every
// sampler returns >= 1 and every distance oracle maps distinct nodes to
// >= 1 unit — so the degenerate L = 1 "lock-step" fallback is always sound:
// windows shrink to one tick each and the engine degrades to serial
// execution with barrier overhead, but never to wrong answers. The engine
// additionally asserts every finalized delivery lands at or beyond the
// window end, so an optimistic floor is a loud failure, not a silent
// divergence.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "graph/graph.hpp"
#include "graph/implicit.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// Per-sampler latency floors given the minimum edge weight in units.
/// Deterministic samplers give their exact value; randomized ones their
/// distribution's infimum (UniformSampler draws fractions >= min_fraction;
/// TruncExpSampler can draw arbitrarily close to zero, floored at 1 tick by
/// fraction_ticks).
inline Time sampler_floor(const SyncSampler&, Weight w_min) {
  return units_to_ticks(w_min);
}
inline Time sampler_floor(const ScaledSampler& s, Weight w_min) {
  return detail::fraction_ticks(s.fraction, w_min);
}
inline Time sampler_floor(const UniformSampler& s, Weight w_min) {
  return detail::fraction_ticks(s.min_fraction, w_min);
}
inline Time sampler_floor(const TruncExpSampler&, Weight) { return 1; }
template <typename S>
inline Time sampler_floor(const SamplerRef<S>& s, Weight w_min) {
  return sampler_floor(*s.sampler, w_min);
}

/// Minimum edge weight of a materialized graph (1 if edgeless — the floor
/// then only covers direct sends, which drivers bound separately).
inline Weight min_edge_weight(const Graph& g) {
  Weight w = std::numeric_limits<Weight>::max();
  for (const Edge& e : g.edges()) w = std::min(w, e.weight);
  return w == std::numeric_limits<Weight>::max() ? 1 : w;
}

/// The implicit tier's tree edges all have unit weight.
inline Weight min_edge_weight(const ImplicitTreeIndex&) { return 1; }

/// Latency floor of an edge send on `index`. Direct-only drivers never send
/// over an edge, so only their direct-send floor bounds the lookahead.
template <typename Latency, typename Index>
Time edge_floor(const Latency& latency, const Index& index) {
  if constexpr (std::is_same_v<Index, DirectOnlyIndex>) {
    return kTimeNever;
  } else {
    return sampler_floor(latency, min_edge_weight(index));
  }
}

/// Scale a latency floor down for faults that can shrink latencies: a spike
/// with factor < 1 multiplies the sampled latency by `spike_factor`
/// (rounded, floored at 1 tick by FaultFilter::scale_latency), so the
/// conservative bound is floor(L * factor). Loss, duplication, jitter and
/// factor >= 1 spikes only ever add delay.
inline Time fault_adjusted_floor(Time floor, const FaultSpec& spec) {
  if (spec.active() && spec.spike_prob > 0.0 && spec.spike_factor < 1.0)
    floor = static_cast<Time>(
        std::floor(static_cast<double>(floor) * spec.spike_factor));
  return std::max<Time>(1, floor);
}

/// Combine the edge-send floor with a driver's direct-send floor (notify /
/// find-reply messages bypass edges) and clamp to the always-sound 1-tick
/// lock-step fallback.
inline Time combined_lookahead(Time edge_floor, Time direct_floor, const FaultSpec& spec) {
  return fault_adjusted_floor(std::min(edge_floor, direct_floor), spec);
}

}  // namespace arrowdq
