// Compile-time protocol registry for the Experiment API.
//
// One entry per Protocol value: a plain function pointer to a driver shim.
// Each shim is a `run_protocol<P>` specialization (exp/experiment.cpp) that
// hands the resolved inputs to a driver entry point; the entry point picks
// its value-type latency sampler (with_static_latency) and the baselines'
// dG oracle alternative (std::visit on Resolved::oracle()) once per run.
// The per-message path is a typed handler and direct oracle calls, with no
// std::function on it.
//
// The registry is a constexpr array built at compile time; adding a protocol
// means adding an enumerator, a specialization, and one array entry — the
// static_assert below keeps the three in sync. A driver may cover both
// execution modes behind one entry: kCentralized and kPointerForwarding
// switch between one-shot (rounds == 0, workload-driven) and closed-loop
// (rounds > 0, find-completion reply) inside their shim, so every protocol
// is sweepable in whichever modes it defines.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "baseline/dist.hpp"
#include "exp/experiment.hpp"
#include "graph/implicit.hpp"
#include "graph/shortest_paths.hpp"
#include "support/assert.hpp"

namespace arrowdq {
namespace exp_detail {

/// Everything a driver needs, materialized once per run from the value
/// specs: private graph/tree copies (Graph's lazy edge index is not
/// thread-safe to share), the request schedule for one-shot protocols, and
/// the baselines' dG oracle. On the scale tier resolve() leaves `graph` (and
/// where possible `tree`) empty: structured families carry closed forms for
/// distance, adjacency and the canonical tree parent, so baselines draw dG
/// straight from a formula and the arrow closed loop runs fully implicit.
struct Resolved {
  Graph graph;  // empty (node_count 0) when no driver path reads adjacency
  Tree tree{std::vector<NodeId>{kNoNode}, std::vector<Weight>{1}, 0};
  RequestSet requests{0, {}};  // empty for pure closed-loop runs
  /// Baselines on irregular families only: the AllPairs table behind their
  /// oracle. Its rows fill on demand, thread-safely, so sharded lanes share
  /// it.
  std::optional<AllPairs> apsp;
  NodeId n = 0;     // authoritative node count (graph may be empty)
  NodeId root = 0;  // tree root / forwarding initial owner
  /// Engaged iff the family has closed forms. The scale tier runs on it
  /// (materializing the tree in O(n) when a driver needs one); where the
  /// graph is materialized only its distance() is read, and `tree` is the
  /// tree.
  std::optional<ImplicitTopology> implicit;
  /// kArrowClosedLoop only: run the compact implicit driver instead of the
  /// materialized one.
  bool implicit_loop = false;

  /// The baselines' dG oracle. Built on demand, so the table it may point
  /// to is this Resolved's own.
  DistOracle oracle() const {
    if (apsp) return ApspDist{&*apsp};
    ARROWDQ_ASSERT_MSG(implicit.has_value(), "no dG oracle resolved");
    return ImplicitDist{*implicit};
  }
};

using DriverFn = RunResult (*)(const Experiment&, const Resolved&);

/// Materialize (or deliberately skip materializing) everything `e`'s driver
/// needs. Exposed for tests probing the scale-path decisions (e.g. that no
/// APSP is built for structured families).
Resolved resolve(const Experiment& e);

template <Protocol P>
RunResult run_protocol(const Experiment& e, const Resolved& r);

template <>
RunResult run_protocol<Protocol::kArrowOneShot>(const Experiment& e, const Resolved& r);
template <>
RunResult run_protocol<Protocol::kArrowClosedLoop>(const Experiment& e, const Resolved& r);
template <>
RunResult run_protocol<Protocol::kCentralized>(const Experiment& e, const Resolved& r);
template <>
RunResult run_protocol<Protocol::kPointerForwarding>(const Experiment& e, const Resolved& r);
template <>
RunResult run_protocol<Protocol::kTokenPassing>(const Experiment& e, const Resolved& r);

inline constexpr std::array<DriverFn, kProtocolCount> kDriverRegistry = {
    &run_protocol<Protocol::kArrowOneShot>,
    &run_protocol<Protocol::kArrowClosedLoop>,
    &run_protocol<Protocol::kCentralized>,
    &run_protocol<Protocol::kPointerForwarding>,
    &run_protocol<Protocol::kTokenPassing>,
};
static_assert(kDriverRegistry.size() == static_cast<std::size_t>(kProtocolCount),
              "every Protocol enumerator needs a registry entry");

}  // namespace exp_detail
}  // namespace arrowdq
