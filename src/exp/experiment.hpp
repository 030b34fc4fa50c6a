// The unified experiment API: one declarative, value-type description for
// every queuing protocol, topology, workload and latency regime in the
// repository.
//
// The paper's central claim is *comparative* — arrow's distributed queuing
// cost versus a centralized home node and pointer-forwarding schemes across
// topologies and latency regimes. Before this layer each protocol was its
// own free function with its own config and result structs; an `Experiment`
// makes the comparison a data point in an axis product instead of a
// hand-written driver:
//
//   Experiment e;
//   e.protocol = ProtocolSpec::arrow_closed_loop(kTicksPerUnit / 16);
//   e.topology = TopologySpec::complete(256);
//   e.latency  = LatencySpec::uniform_async(/*seed=*/7, 0.1);
//   e.rounds   = 1000;
//   RunResult r = run_experiment(e);
//
// Resolution goes through a *compile-time registry* of statically
// dispatched drivers (exp/registry.hpp): one function pointer per Protocol
// value, each instantiating the PR-3 devirtualized hot path (value-type
// latency samplers, typed network handlers, value-type distance oracles) —
// the registry lookup is one indexed call per run, and no std::function or
// virtual dispatch appears on the per-message path. Every driver is
// tick-identical to the legacy free function it wraps
// (tests/experiment_test.cpp pins all of them; the legacy entry points
// survive as thin wrappers).
//
// Experiments are value objects: a worker thread can run one with no shared
// mutable state, which is what lets run_experiments() shard a scenario list
// across SweepRunner's pool with results bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/competitive.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "graph/graph.hpp"
#include "graph/tree.hpp"
#include "proto/queuing.hpp"
#include "proto/request.hpp"
#include "sim/fault.hpp"
#include "sim/sweep.hpp"
#include "support/types.hpp"

namespace arrowdq {

// ---------------------------------------------------------------------------
// Protocol axis
// ---------------------------------------------------------------------------

enum class Protocol : std::uint8_t {
  kArrowOneShot = 0,      // ArrowEngine on a fixed request set
  kArrowClosedLoop = 1,   // Section 5 closed loop (Figure 10/11 driver)
  kCentralized = 2,       // home-node baseline; closed loop iff rounds > 0
  kPointerForwarding = 3, // Ivy/NTA family on the complete graph
  kTokenPassing = 4,      // arrow + message-driven token circulation
};
inline constexpr int kProtocolCount = 5;

const char* protocol_name(Protocol p);

struct ProtocolSpec {
  Protocol kind = Protocol::kArrowOneShot;
  /// Serial per-node message processing cost in ticks (all protocols).
  Time service_time = 0;
  /// kCentralized: the globally known home node.
  NodeId center = 0;
  /// kPointerForwarding: pointer-update rule (compression vs reversal).
  ForwardingMode mode = ForwardingMode::kCompressToRequester;
  /// kTokenPassing: how long each request holds the token (ticks).
  Time hold_ticks = 0;

  const char* name() const { return protocol_name(kind); }

  static ProtocolSpec arrow_one_shot(Time service_time = 0) {
    ProtocolSpec s;
    s.kind = Protocol::kArrowOneShot;
    s.service_time = service_time;
    return s;
  }
  static ProtocolSpec arrow_closed_loop(Time service_time = 0) {
    ProtocolSpec s;
    s.kind = Protocol::kArrowClosedLoop;
    s.service_time = service_time;
    return s;
  }
  static ProtocolSpec centralized(NodeId center = 0, Time service_time = 0) {
    ProtocolSpec s;
    s.kind = Protocol::kCentralized;
    s.center = center;
    s.service_time = service_time;
    return s;
  }
  static ProtocolSpec pointer_forwarding(
      ForwardingMode mode = ForwardingMode::kCompressToRequester, Time service_time = 0) {
    ProtocolSpec s;
    s.kind = Protocol::kPointerForwarding;
    s.mode = mode;
    s.service_time = service_time;
    return s;
  }
  static ProtocolSpec token_passing(Time hold_ticks = 0) {
    ProtocolSpec s;
    s.kind = Protocol::kTokenPassing;
    s.hold_ticks = hold_ticks;
    return s;
  }
};

// ---------------------------------------------------------------------------
// Topology axis
// ---------------------------------------------------------------------------

struct TopologySpec {
  enum class Family : std::uint8_t {
    kComplete,      // Section 5's SP2 model: K_n, unit pairwise latency
    kPath,          // worst-stretch line
    kRing,          // cycle on n nodes
    kGrid,          // rows x cols mesh
    kTorus,         // rows x cols grid with wraparound (vertex-transitive)
    kHypercube,     // 2^dims nodes, edges join labels differing in one bit
    kGeometric,     // seeded unit-disk graph, weights ~ Euclidean distance
    kRandomTree,    // uniform random labelled tree (Pruefer)
    kWeightedTree,  // random tree, edge weights uniform in [1, max_weight]
    kCustom,        // caller-supplied graph + tree
  };
  /// Spanning-tree construction for the arrow/token protocols.
  enum class TreeKind : std::uint8_t {
    kShortestPath,    // BFS/Dijkstra tree from `root`
    kBalancedBinary,  // Section 5's balanced binary overlay (complete graphs)
    kMst,             // Kruskal minimum spanning tree
    kMedianSpt,       // Peleg-Reshef-style median SPT (ignores `root`)
  };

  Family family = Family::kComplete;
  NodeId nodes = 64;
  NodeId rows = 0, cols = 0;   // kGrid / kTorus (nodes = rows * cols)
  int dims = 0;                // kHypercube (nodes = 2^dims)
  std::uint64_t seed = 0;      // randomized families
  Weight max_weight = 9;       // kWeightedTree
  double radius = 0.35;        // kGeometric connection radius in [0, sqrt(2)]
  Weight weight_scale = 16;    // kGeometric: weight = ceil(euclidean * scale)
  TreeKind tree_kind = TreeKind::kShortestPath;
  NodeId root = 0;
  std::optional<Graph> custom_graph;  // kCustom
  std::optional<Tree> custom_tree;    // kCustom

  /// Materialize the communication graph G (a private copy per call, so
  /// concurrent scenario workers never share Graph's lazy edge index).
  Graph build_graph() const;
  /// Materialize the pre-selected spanning tree T over `g`.
  Tree build_tree(const Graph& g) const;
  const char* family_name() const;

  /// Structural validation: a diagnostic when the spec is inconsistent or
  /// overflow-prone (grid/torus dims that don't multiply to `nodes`,
  /// hypercube dims outside the id budget, sizes past the 2^28-node cap),
  /// nullopt when well-formed. CLI front ends print it and exit 2;
  /// run_experiment asserts on it. Does not consider materialization cost —
  /// that depends on the protocol and lives in validate_experiment().
  std::optional<std::string> validate() const;

  static TopologySpec complete(NodeId n) {
    TopologySpec t;
    t.family = Family::kComplete;
    t.nodes = n;
    t.tree_kind = TreeKind::kBalancedBinary;
    return t;
  }
  static TopologySpec path(NodeId n) {
    TopologySpec t;
    t.family = Family::kPath;
    t.nodes = n;
    return t;
  }
  static TopologySpec ring(NodeId n) {
    TopologySpec t;
    t.family = Family::kRing;
    t.nodes = n;
    return t;
  }
  static TopologySpec grid(NodeId rows, NodeId cols) {
    TopologySpec t;
    t.family = Family::kGrid;
    t.rows = rows;
    t.cols = cols;
    t.nodes = rows * cols;
    return t;
  }
  static TopologySpec torus(NodeId rows, NodeId cols) {
    TopologySpec t;
    t.family = Family::kTorus;
    t.rows = rows;
    t.cols = cols;
    t.nodes = rows * cols;
    return t;
  }
  static TopologySpec hypercube(int dims) {
    TopologySpec t;
    t.family = Family::kHypercube;
    t.dims = dims;
    t.nodes = static_cast<NodeId>(NodeId{1} << dims);
    return t;
  }
  static TopologySpec geometric(NodeId n, std::uint64_t seed, double radius = 0.35,
                                Weight weight_scale = 16) {
    TopologySpec t;
    t.family = Family::kGeometric;
    t.nodes = n;
    t.seed = seed;
    t.radius = radius;
    t.weight_scale = weight_scale;
    return t;
  }
  static TopologySpec random_tree(NodeId n, std::uint64_t seed) {
    TopologySpec t;
    t.family = Family::kRandomTree;
    t.nodes = n;
    t.seed = seed;
    return t;
  }
  static TopologySpec weighted_tree(NodeId n, std::uint64_t seed, Weight max_weight = 9) {
    TopologySpec t;
    t.family = Family::kWeightedTree;
    t.nodes = n;
    t.seed = seed;
    t.max_weight = max_weight;
    return t;
  }
  static TopologySpec custom(Graph g, Tree t) {
    TopologySpec spec;
    spec.family = Family::kCustom;
    spec.nodes = g.node_count();
    spec.root = t.root();
    spec.custom_graph = std::move(g);
    spec.custom_tree = std::move(t);
    return spec;
  }
};

// ---------------------------------------------------------------------------
// Workload axis (one-shot protocols; closed loops generate their own load)
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  enum class Kind : std::uint8_t {
    kOneShotAll,  // every node requests at t = 0
    kPoisson,     // `count` Poisson arrivals from uniform nodes
    kBursty,      // bursts of simultaneous requests
    kSequential,  // widely spaced requests (Demmer-Herlihy regime)
    kCustom,      // caller-supplied request set
  };
  Kind kind = Kind::kOneShotAll;
  int count = 0;              // kPoisson / kSequential
  double rate_per_unit = 1.0; // kPoisson
  int bursts = 0;             // kBursty
  int burst_size = 0;         // kBursty
  Weight gap_units = 0;       // kBursty / kSequential
  std::uint64_t seed = 0;     // randomized kinds
  /// kPoisson request skew: a `hot_probability` fraction of arrivals come
  /// from `hot_node` (clamped into [0, n)), the rest uniform. 0 = the
  /// classic uniform stream. Sweepable via `poisson:COUNT:RATE:hot=P[@NODE]`.
  double hot_probability = 0.0;
  NodeId hot_node = 0;
  std::optional<RequestSet> custom;

  /// Materialize the request schedule for an n-node topology rooted at
  /// `root`. kCustom returns the stored set (its root must match).
  RequestSet build(NodeId n, NodeId root) const;
  const char* name() const;

  static WorkloadSpec one_shot_all() { return {}; }
  static WorkloadSpec poisson(int count, double rate_per_unit, std::uint64_t seed) {
    WorkloadSpec w;
    w.kind = Kind::kPoisson;
    w.count = count;
    w.rate_per_unit = rate_per_unit;
    w.seed = seed;
    return w;
  }
  static WorkloadSpec poisson_skewed(int count, double rate_per_unit, NodeId hot_node,
                                     double hot_probability, std::uint64_t seed) {
    WorkloadSpec w = poisson(count, rate_per_unit, seed);
    w.hot_node = hot_node;
    w.hot_probability = hot_probability;
    return w;
  }
  static WorkloadSpec bursty_load(int bursts, int burst_size, Weight gap_units,
                                  std::uint64_t seed) {
    WorkloadSpec w;
    w.kind = Kind::kBursty;
    w.bursts = bursts;
    w.burst_size = burst_size;
    w.gap_units = gap_units;
    w.seed = seed;
    return w;
  }
  static WorkloadSpec sequential(int count, Weight gap_units, std::uint64_t seed) {
    WorkloadSpec w;
    w.kind = Kind::kSequential;
    w.count = count;
    w.gap_units = gap_units;
    w.seed = seed;
    return w;
  }
  static WorkloadSpec fixed(RequestSet requests) {
    WorkloadSpec w;
    w.kind = Kind::kCustom;
    w.custom = std::move(requests);
    return w;
  }
};

// ---------------------------------------------------------------------------
// The experiment and its uniform result
// ---------------------------------------------------------------------------

/// Uniform metrics every protocol driver fills in. Per-protocol semantics:
///  * makespan        — one-shot: latest completion time; closed loop: time
///                      the last node finished its rounds; token passing:
///                      last token release.
///  * messages        — every protocol message sent (tree/edge + direct).
///  * total_hops      — message hops attributable to requests (arrow/find
///                      traversals; token hops for kTokenPassing).
///  * total_distance  — weighted traversal distance in units (one-shot
///                      outcomes; token travel for kTokenPassing).
///  * total_latency   — Definition 3.3 cost in ticks: sum over requests of
///                      (completion - issue). One-shot protocols only; the
///                      competitive-ratio numerator.
///  * avg_round_latency_units — closed loops: mean issue->reply time.
struct RunResult {
  Protocol protocol = Protocol::kArrowOneShot;
  Time makespan = 0;
  std::int64_t total_requests = 0;
  std::uint64_t messages = 0;
  std::int64_t total_hops = 0;
  Weight total_distance = 0;
  Time total_latency = 0;
  double avg_hops_per_request = 0.0;
  double avg_round_latency_units = 0.0;
  // Degradation/recovery metrics (all zero fault-free):
  //  * messages_dropped / messages_duplicated — fault filter counters.
  //  * crashes — crash windows in the run's schedule (arrow one-shot counts
  //    only the windows that fired before quiescence).
  //  * stabilize_rounds / stabilize_corrections — SelfStabilizer recovery
  //    work (arrow protocols only; baselines keep their state in stable
  //    storage and never corrupt).
  //  * recovery_delta_units — makespan minus the fault-free twin's makespan
  //    in latency units; run_experiment fills it only when a fault schedule
  //    is active. Usually positive, but message faults can also reshuffle a
  //    schedule into a faster interleaving.
  //  * partitions — partition windows that opened before completion;
  //    partition_backlog_drained — cross-cut messages the filter queued at
  //    a cut and drained FIFO at a heal instant; partition_delta_units —
  //    makespan minus the fault-free twin's makespan, filled only when a
  //    partition or churn schedule is active (the topology-fault flavour of
  //    recovery_delta_units); reselections — churn tree-edge splices.
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::int32_t crashes = 0;
  int stabilize_rounds = 0;
  int stabilize_corrections = 0;
  double recovery_delta_units = 0.0;
  std::int32_t partitions = 0;
  std::uint64_t partition_backlog_drained = 0;
  double partition_delta_units = 0.0;
  std::int32_t reselections = 0;
  /// Process-wide peak resident set size (bytes) sampled when the driver
  /// returned, via getrusage. Monotone over the process lifetime, so within
  /// one process only the first / largest run's value is a faithful ceiling
  /// for that run (the fig10_scale bench orders its cells accordingly).
  /// Because the reading is process-wide it is taken exactly once per run
  /// — after the driver returns — never per shard: a sharded run
  /// (shards > 1) reports one number covering all lanes' arenas combined,
  /// which is the quantity a memory budget cares about anyway.
  /// 0 on platforms without getrusage.
  std::uint64_t peak_rss_bytes = 0;
  /// The full queuing outcome (one-shot protocols, keep_outcome only):
  /// feeds analyze_competitive and the application layers.
  std::optional<QueuingOutcome> outcome;
  /// Theorem 3.19 instrumentation of the outcome against the offline optimum
  /// on (G, T). Engaged iff Experiment::analyze (which requires keep_outcome)
  /// and the protocol produced a QueuingOutcome.
  std::optional<CompetitiveReport> competitive;
};

struct Experiment {
  std::string label;  // empty -> default_label()
  ProtocolSpec protocol;
  TopologySpec topology;
  WorkloadSpec workload;  // one-shot protocols; ignored by closed loops
  LatencySpec latency;    // arrow/token protocols; baselines use dG oracles
  /// Fault schedule — a first-class scenario axis (default: none, which
  /// compiles the fault branch out of the send path). Arrow protocols model
  /// full crash recovery (pointer corruption + SelfStabilizer wave),
  /// partition windows (per-side reconciliation, FIFO backlog drain and a
  /// merge wave at heal), and churn (deterministic tree re-selection);
  /// baselines degrade gracefully (delay + deferral only; a partition
  /// isolates the cut node for the window); kTokenPassing strips all
  /// topology faults (its token replays an analytic order that cannot
  /// express a forked queue) but keeps message faults.
  FaultSpec fault;
  /// Closed-loop rounds per node. Drives kArrowClosedLoop (must be > 0) and
  /// switches kCentralized and kPointerForwarding between their closed-loop
  /// (> 0) and one-shot (== 0, workload-driven) modes.
  std::int64_t rounds = 0;
  /// Retain the QueuingOutcome in RunResult::outcome (one-shot protocols).
  bool keep_outcome = false;
  /// Run analyze_competitive on the retained outcome into
  /// RunResult::competitive. Requires keep_outcome; a no-op for closed loops
  /// (they produce no QueuingOutcome).
  bool analyze = false;
  /// Intra-run shard count for the conservative parallel engine
  /// (sim/parallel/). Results are bit-identical to the serial core for any
  /// value, so this is purely a speed knob. 0 = inherit ARROWDQ_SIM_SHARDS
  /// (default 1; scenarios the parallel engine cannot run fall back to
  /// serial silently). Sharded mirrors exist for the arrow closed loop,
  /// one-shot arrow, one-shot centralized, and pointer forwarding in both
  /// modes. Setting > 1 explicitly on the rest is validated: token passing
  /// (the token replay is inherently serial), the centralized closed loop
  /// (no mirror), and topology-fault schedules — crash, partition, churn
  /// (their recovery waves are global pointer rewrites) — are
  /// validate_experiment errors rather than silent fallbacks.
  int shards = 0;

  /// "protocol topology-n latency" summary used when `label` is empty.
  std::string default_label() const;

  /// Copy with per-component sub-seeds derived from `seed` (decorrelated via
  /// mix64), so a scenario grid gets independent randomness per cell from
  /// one master seed.
  Experiment with_seed(std::uint64_t seed) const;
};

/// Pre-flight check for run_experiment: TopologySpec::validate() plus
/// materialization guards. Refuses combinations that would materialize an
/// absurd structure — e.g. `complete` at n = 10^6 (~10^12 edges) on a path
/// that needs the adjacency, or an AllPairs table that could fill O(n^2)
/// past ~8k nodes — with a diagnostic instead of OOM-ing, and a centralized
/// center outside [0, nodes) instead of an assertion deep in the run. Structured families on their
/// implicit paths (closed-form oracles / implicit arrow loop) pass at any
/// n up to the 2^28 id cap. CLI front ends print the diagnostic and exit
/// 2; run_experiment asserts on it.
std::optional<std::string> validate_experiment(const Experiment& e);

/// Run one experiment through the protocol registry. Asserts on malformed
/// combinations (closed-loop rounds for pointer forwarding, rounds == 0 for
/// kArrowClosedLoop, anything validate_experiment rejects). When a fault
/// schedule is active, additionally runs the fault-free twin to fill
/// RunResult::recovery_delta_units.
RunResult run_experiment(const Experiment& e);

/// One sweep slot, in scenario order (mirrors SweepResult).
struct ExperimentResult {
  std::string label;
  RunResult result;
  double seconds = 0;  // wall time of this scenario on its worker
};

/// Sweep a scenario list across `runner`'s pool. Protocol is just another
/// axis: the list may mix all five protocols freely. Results are in
/// scenario order and bit-identical for any thread count.
std::vector<ExperimentResult> run_experiments(const std::vector<Experiment>& exps,
                                              const SweepRunner& runner);
/// Serial convenience overload (thread count 1).
std::vector<ExperimentResult> run_experiments(const std::vector<Experiment>& exps);

/// Convenience for the application layers (mutex, counter, directory,
/// multicast): run arrow one-shot on a concrete (tree, requests) pair under
/// the synchronous model through the experiment registry and return the
/// validated outcome. Tick-identical to the legacy run_arrow(tree, requests).
QueuingOutcome arrow_outcome(const Tree& tree, const RequestSet& requests);

}  // namespace arrowdq
