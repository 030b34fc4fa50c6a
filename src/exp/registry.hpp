// Compile-time protocol registry for the Experiment API.
//
// One entry per Protocol value: a plain function pointer to a fully typed
// driver shim. Each shim is a `run_protocol<P>` specialization whose body
// (exp/experiment.cpp) instantiates the statically dispatched simulation
// stack — value-type latency samplers via with_static_latency, typed
// network handlers, value-type distance oracles via with_static_dist — so
// the only indirect call an experiment pays is this single registry lookup
// per *run*; the per-message path stays exactly PR 3's devirtualized hot
// loop, with no std::function anywhere on it.
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

#include "exp/experiment.hpp"
#include "graph/implicit.hpp"
#include "graph/shortest_paths.hpp"

namespace arrowdq {
namespace exp_detail {

/// Which dG oracle the baseline drivers draw distances from. The structured
/// families use the closed forms of baseline/dist.hpp — no table at all; the
/// irregular families (geometric, random/weighted tree, custom) read an
/// AllPairs table that fills one Dijkstra row per node it is asked about.
enum class DistOracle : std::uint8_t {
  kUnit,       // complete graph
  kApsp,       // irregular families: per-run AllPairs, rows filled on demand
  kPath,
  kRing,
  kGrid,
  kTorus,
  kHypercube,
};

/// Everything a driver needs, materialized once per run from the value
/// specs. On the materialized tier: private graph/tree copies (Graph's lazy
/// edge index is not thread-safe to share), the request schedule for
/// one-shot protocols, and the AllPairs table behind the baselines' oracle on
/// irregular topologies (its rows fill on demand, thread-safely, so sharded
/// lanes share it through the const dist()). On the scale tier, resolve() leaves `graph` (and
/// where possible `tree`) empty: structured families carry closed forms for
/// distance, adjacency, and the canonical tree parent, so baselines draw dG
/// straight from a formula and the arrow closed loop runs fully implicit.
struct Resolved {
  Graph graph;  // empty (node_count 0) when no driver path reads adjacency
  Tree tree{std::vector<NodeId>{kNoNode}, std::vector<Weight>{1}, 0};
  RequestSet requests{0, {}};    // empty for pure closed-loop runs
  std::optional<AllPairs> apsp;  // engaged iff the dG oracle needs it
  NodeId n = 0;                  // authoritative node count (graph may be empty)
  NodeId root = 0;               // tree root / forwarding initial owner
  NodeId rows = 0, cols = 0;     // grid/torus closed-form oracle parameters
  DistOracle dist = DistOracle::kUnit;
  /// Engaged for structured families resolved without a graph; carries the
  /// closed forms (and materializes the tree in O(n) when a driver needs
  /// one).
  std::optional<ImplicitTopology> implicit;
  /// kArrowClosedLoop only: run the compact implicit driver instead of the
  /// materialized one.
  bool implicit_loop = false;
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
