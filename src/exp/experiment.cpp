#include "exp/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "apps/token_sim.hpp"
#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "baseline/centralized.hpp"
#include "exp/registry.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/parallel/parallel.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"
#include "workload/workloads.hpp"

namespace arrowdq {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kArrowOneShot:
      return "arrow";
    case Protocol::kArrowClosedLoop:
      return "arrow-loop";
    case Protocol::kCentralized:
      return "centralized";
    case Protocol::kPointerForwarding:
      return "forwarding";
    case Protocol::kTokenPassing:
      return "token";
  }
  return "?";
}

// --- topology ---------------------------------------------------------------

Graph TopologySpec::build_graph() const {
  switch (family) {
    case Family::kComplete:
      return make_complete(nodes);
    case Family::kPath:
      return make_path(nodes);
    case Family::kRing:
      return make_ring(nodes);
    case Family::kGrid:
      return make_grid(rows, cols);
    case Family::kTorus:
      return make_torus(rows, cols);
    case Family::kHypercube:
      return make_hypercube(dims);
    case Family::kGeometric: {
      Rng rng(mix64(seed + 0x70b01063));
      return make_random_geometric(nodes, radius, rng, weight_scale);
    }
    case Family::kRandomTree: {
      Rng rng(mix64(seed + 0x70b01061));
      return make_random_tree(nodes, rng);
    }
    case Family::kWeightedTree: {
      Rng rng(mix64(seed + 0x70b01062));
      Graph skeleton = make_random_tree(nodes, rng);
      Graph g(nodes);
      for (const Edge& e : skeleton.edges())
        g.add_edge(e.u, e.v,
                   1 + static_cast<Weight>(rng.next_below(
                           static_cast<std::uint64_t>(max_weight))));
      return g;
    }
    case Family::kCustom:
      ARROWDQ_ASSERT_MSG(custom_graph.has_value(), "custom topology without a graph");
      return *custom_graph;
  }
  ARROWDQ_ASSERT_MSG(false, "unknown topology family");
  return Graph{0};
}

Tree TopologySpec::build_tree(const Graph& g) const {
  if (family == Family::kCustom) {
    ARROWDQ_ASSERT_MSG(custom_tree.has_value(), "custom topology without a tree");
    return *custom_tree;
  }
  switch (tree_kind) {
    case TreeKind::kShortestPath:
      return shortest_path_tree(g, root);
    case TreeKind::kBalancedBinary:
      return balanced_binary_overlay(g, root);
    case TreeKind::kMst:
      return kruskal_mst(g, root);
    case TreeKind::kMedianSpt:
      return median_spt(g);
  }
  ARROWDQ_ASSERT_MSG(false, "unknown tree kind");
  return shortest_path_tree(g, root);
}

const char* TopologySpec::family_name() const {
  switch (family) {
    case Family::kComplete:
      return "complete";
    case Family::kPath:
      return "path";
    case Family::kRing:
      return "ring";
    case Family::kGrid:
      return "grid";
    case Family::kTorus:
      return "torus";
    case Family::kHypercube:
      return "hypercube";
    case Family::kGeometric:
      return "geometric";
    case Family::kRandomTree:
      return "randtree";
    case Family::kWeightedTree:
      return "wtree";
    case Family::kCustom:
      return "custom";
  }
  return "?";
}

namespace {

// Scale-path caps. 2^28 nodes keeps the implicit tier's dense directed tree
// ids (2n + 1) inside int32 with headroom; the materialization-cost caps
// (edge count, APSP table size) depend on the protocol and live in
// validate_experiment().
constexpr NodeId kMaxNodes = NodeId{1} << 28;
constexpr NodeId kMaxApspNodes = 8192;
// make_hypercube() stores 2^dims * dims directed edges; past this the graph
// must stay implicit.
constexpr int kMaxMaterializedHypercubeDims = 20;

}  // namespace

std::optional<std::string> TopologySpec::validate() const {
  if (nodes < 1) return "topology: nodes must be >= 1";
  if (nodes > kMaxNodes)
    return "topology: " + std::to_string(nodes) +
           " nodes exceeds the 2^28 cap (edge/event ids are 32-bit)";
  switch (family) {
    case Family::kComplete:
    case Family::kPath:
    case Family::kRandomTree:
      break;
    case Family::kRing:
      if (nodes < 3) return "ring: needs >= 3 nodes";
      break;
    case Family::kGrid:
      if (rows < 1 || cols < 1) return "grid: rows and cols must be >= 1";
      if (static_cast<std::int64_t>(rows) * static_cast<std::int64_t>(cols) != nodes)
        return "grid: rows * cols (" + std::to_string(rows) + " * " + std::to_string(cols) +
               ") must equal nodes (" + std::to_string(nodes) + ")";
      break;
    case Family::kTorus:
      if (rows < 3 || cols < 3) return "torus: rows and cols must be >= 3";
      if (static_cast<std::int64_t>(rows) * static_cast<std::int64_t>(cols) != nodes)
        return "torus: rows * cols (" + std::to_string(rows) + " * " + std::to_string(cols) +
               ") must equal nodes (" + std::to_string(nodes) + ")";
      break;
    case Family::kHypercube:
      if (dims < 0 || dims > 28)
        return "hypercube: dims must be in [0, 28], got " + std::to_string(dims);
      if (nodes != (NodeId{1} << dims))
        return "hypercube: nodes (" + std::to_string(nodes) + ") must equal 2^dims (" +
               std::to_string(NodeId{1} << dims) + ")";
      break;
    case Family::kGeometric:
      if (!(radius > 0.0)) return "geometric: radius must be > 0";
      break;
    case Family::kWeightedTree:
      if (max_weight < 1) return "wtree: max_weight must be >= 1";
      break;
    case Family::kCustom:
      if (!custom_graph) return "custom: no graph supplied";
      if (!custom_tree) return "custom: no tree supplied";
      if (custom_graph->node_count() != nodes)
        return "custom: nodes (" + std::to_string(nodes) + ") must match the supplied graph (" +
               std::to_string(custom_graph->node_count()) + ")";
      break;
  }
  if (root < 0 || root >= nodes) return "topology: root out of range";
  return std::nullopt;
}

// --- workload ---------------------------------------------------------------

RequestSet WorkloadSpec::build(NodeId n, NodeId root) const {
  switch (kind) {
    case Kind::kOneShotAll:
      // Qualified: the unqualified name would find the static factory.
      return ::arrowdq::one_shot_all(n, root);
    case Kind::kPoisson: {
      Rng rng(mix64(seed + 0x10ad0001));
      if (hot_probability > 0.0) {
        const NodeId hot = std::clamp(hot_node, NodeId{0}, n - 1);
        return poisson_hotspot(n, root, count, rate_per_unit, hot, hot_probability, rng);
      }
      return poisson_uniform(n, root, count, rate_per_unit, rng);
    }
    case Kind::kBursty: {
      Rng rng(mix64(seed + 0x10ad0002));
      return bursty(n, root, bursts, burst_size, gap_units, rng);
    }
    case Kind::kSequential: {
      Rng rng(mix64(seed + 0x10ad0003));
      return sequential_random(n, root, count, gap_units, rng);
    }
    case Kind::kCustom:
      ARROWDQ_ASSERT_MSG(custom.has_value(), "custom workload without a request set");
      ARROWDQ_ASSERT_MSG(custom->root() == root,
                         "custom workload root must match the topology root");
      return *custom;
  }
  ARROWDQ_ASSERT_MSG(false, "unknown workload kind");
  return RequestSet{root, {}};
}

const char* WorkloadSpec::name() const {
  switch (kind) {
    case Kind::kOneShotAll:
      return "oneshot";
    case Kind::kPoisson:
      return "poisson";
    case Kind::kBursty:
      return "bursty";
    case Kind::kSequential:
      return "sequential";
    case Kind::kCustom:
      return "custom";
  }
  return "?";
}

// --- experiment -------------------------------------------------------------

std::string Experiment::default_label() const {
  std::string s = protocol.name();
  s += ' ';
  s += topology.family_name();
  s += '-';
  s += std::to_string(topology.nodes);
  s += ' ';
  s += latency.name();
  if (fault.active()) {
    s += ' ';
    s += fault.name();
  }
  return s;
}

Experiment Experiment::with_seed(std::uint64_t seed) const {
  Experiment e = *this;
  e.topology.seed = mix64(seed ^ 0x1070b0ULL);
  e.workload.seed = mix64(seed ^ 0x2010adULL);
  e.latency.seed = mix64(seed ^ 0x301a7eULL);  // ignored by deterministic kinds
  e.fault.seed = mix64(seed ^ 0x4fa017ULL);    // ignored when kind == kNone
  return e;
}

namespace exp_detail {

namespace {

/// Latest completion time over all requests of a one-shot outcome.
Time outcome_makespan(const QueuingOutcome& out) {
  Time last = 0;
  for (RequestId id = 1; id <= out.request_count(); ++id)
    last = std::max(last, out.completion(id).completed_at);
  return last;
}

/// Shared one-shot metric extraction (arrow, centralized, forwarding).
void fill_one_shot(RunResult& r, const Experiment& e, const RequestSet& requests,
                   QueuingOutcome out) {
  r.makespan = outcome_makespan(out);
  r.total_requests = requests.size();
  r.total_hops = out.total_hops();
  r.total_distance = out.total_distance();
  r.total_latency = out.total_latency(requests);
  r.avg_hops_per_request =
      requests.size() == 0
          ? 0.0
          : static_cast<double>(r.total_hops) / static_cast<double>(requests.size());
  if (e.keep_outcome) r.outcome = std::move(out);
}

/// The arrow drivers' recovery work, as RunResult reports it.
void fill_recovery(RunResult& r, const RecoveryCounters& rc) {
  r.crashes = rc.crashes;
  r.stabilize_rounds = rc.stabilize_rounds;
  r.stabilize_corrections = rc.stabilize_corrections;
  r.partitions = rc.partitions;
  r.reselections = rc.reselections;
}

bool is_baseline(const Experiment& e) {
  return e.protocol.kind == Protocol::kCentralized ||
         e.protocol.kind == Protocol::kPointerForwarding;
}

bool is_closed_loop(const Experiment& e) {
  return e.protocol.kind == Protocol::kArrowClosedLoop ||
         (is_baseline(e) && e.rounds > 0);
}

/// The structured families with closed forms for distance, adjacency, and
/// the canonical shortest-path-tree parent (graph/implicit.hpp).
std::optional<ImplicitFamily> implicit_family(TopologySpec::Family f) {
  switch (f) {
    case TopologySpec::Family::kComplete:
      return ImplicitFamily::kComplete;
    case TopologySpec::Family::kPath:
      return ImplicitFamily::kPath;
    case TopologySpec::Family::kRing:
      return ImplicitFamily::kRing;
    case TopologySpec::Family::kGrid:
      return ImplicitFamily::kGrid;
    case TopologySpec::Family::kTorus:
      return ImplicitFamily::kTorus;
    case TopologySpec::Family::kHypercube:
      return ImplicitFamily::kHypercube;
    default:
      return std::nullopt;
  }
}

/// The one materialize-or-not decision, shared verbatim by resolve() and
/// validate_experiment() so the cost guards always judge the path that will
/// actually run.
struct ResolvePlan {
  std::optional<ImplicitFamily> fam;  // engaged iff the family has closed forms
  bool materialize = true;            // build Graph (+ Dijkstra/Kruskal tree)?
};

ResolvePlan plan_resolve(const Experiment& e) {
  const TopologySpec& t = e.topology;
  ResolvePlan plan;
  plan.fam = implicit_family(t.family);
  // analyze_competitive walks the real graph, so analysis always
  // materializes. Baselines only read n / root / a distance oracle; the sole
  // reason they'd need the graph is kMedianSpt, whose root is derived from
  // the graph rather than taken from the spec. The arrow/token protocols
  // need a tree: when it has a closed form (shortest-path, or the balanced
  // binary overlay on a complete graph) it comes from ImplicitTopology in
  // O(n) with no graph; otherwise (MST, median SPT, overlay on a
  // non-complete family) the graph is built.
  const bool closed_form_tree =
      plan.fam.has_value() &&
      (t.tree_kind == TopologySpec::TreeKind::kShortestPath ||
       (t.family == TopologySpec::Family::kComplete &&
        t.tree_kind == TopologySpec::TreeKind::kBalancedBinary && t.root == 0));
  if (!plan.fam || e.analyze)
    plan.materialize = true;
  else if (is_baseline(e))
    plan.materialize = (t.tree_kind == TopologySpec::TreeKind::kMedianSpt);
  else
    plan.materialize = !closed_form_tree;
  return plan;
}

/// Whether this scenario can run on the sharded engine. Token passing
/// replays an analytic total order (inherently serial), the centralized
/// closed loop keeps an order-dependent Welford mean and stays serial, and
/// topology-fault schedules (crash, partition, churn) cannot run inside safe
/// windows — their recovery waves are global pointer rewrites.
bool shardable(const Experiment& e) {
  if (e.fault.has_topology_faults()) return false;
  switch (e.protocol.kind) {
    case Protocol::kArrowOneShot:
    case Protocol::kArrowClosedLoop:
    case Protocol::kPointerForwarding:
      return true;
    case Protocol::kCentralized:
      return e.rounds == 0;
    case Protocol::kTokenPassing:
      return false;
  }
  return false;
}

/// The shard count a run should actually use: Experiment::shards <= 1 is
/// serial, and scenarios the parallel engine cannot run stay serial
/// (validate_experiment has already rejected them when shards > 1).
int effective_shards(const Experiment& e) {
  if (e.shards <= 1) return 1;
  return shardable(e) ? e.shards : 1;
}

}  // namespace

template <>
RunResult run_protocol<Protocol::kArrowOneShot>(const Experiment& e, const Resolved& r) {
  auto model = e.latency.make();
  const int shards = effective_shards(e);
  if (shards > 1) {
    // Sharded run of the same driver (topology faults were refused up front,
    // so the outcome keeps a total order and validates like the fault-free
    // serial path).
    ShardSpec spec;
    spec.shards = shards;
    ShardedArrowRun run = run_arrow_one_shot_sharded(r.tree, r.requests, *model,
                                                     e.protocol.service_time, e.fault, spec);
    run.out.validate(r.requests);
    RunResult res;
    res.protocol = e.protocol.kind;
    res.messages = run.messages;
    res.messages_dropped = run.fault_stats.messages_dropped;
    res.messages_duplicated = run.fault_stats.messages_duplicated;
    fill_one_shot(res, e, r.requests, std::move(run.out));
    return res;
  }
  ArrowEngine engine(r.tree, *model);
  engine.set_service_time(e.protocol.service_time);
  engine.set_fault(e.fault);
  QueuingOutcome out = engine.run(r.requests);
  // A topology fault (crash, partition, churn) severs the pre-fault
  // successor chain (the recovery wave adopts one tail and absorbs the
  // rest), so the full-order walk of validate() cannot apply; every request
  // still completes exactly once (asserted by QueuingOutcome::record /
  // is_complete). Message-only faults are pure delay and keep the order
  // total.
  if (!e.fault.has_topology_faults()) out.validate(r.requests);
  RunResult res;
  res.protocol = e.protocol.kind;
  res.messages = engine.messages_sent();
  res.messages_dropped = engine.fault_stats().messages_dropped;
  res.messages_duplicated = engine.fault_stats().messages_duplicated;
  res.partition_backlog_drained = engine.fault_stats().partition_deferred;
  fill_recovery(res, engine.recovery());
  fill_one_shot(res, e, r.requests, std::move(out));
  return res;
}

template <>
RunResult run_protocol<Protocol::kArrowClosedLoop>(const Experiment& e, const Resolved& r) {
  ARROWDQ_ASSERT_MSG(e.rounds > 0, "arrow closed loop needs rounds > 0");
  auto model = e.latency.make();
  ClosedLoopConfig cfg;
  cfg.requests_per_node = e.rounds;
  cfg.service_time = e.protocol.service_time;
  cfg.fault = e.fault;
  // The scale path: structured family, closed-form tree, no crash schedule
  // (the recovery wave needs a materialized tree) — run the implicit driver
  // with compact 32-byte event slots instead of building Graph + Tree.
  // Shards > 1 routes to the conservative parallel engine (sim/parallel/),
  // bit-identical to the serial drivers by construction.
  const int shards = effective_shards(e);
  ClosedLoopResult loop;
  if (shards > 1) {
    ShardSpec spec;
    spec.shards = shards;
    loop = r.implicit_loop
               ? run_arrow_closed_loop_implicit_sharded(*r.implicit, *model, cfg, spec)
               : run_arrow_closed_loop_sharded(r.tree, *model, cfg, spec);
  } else {
    loop = r.implicit_loop ? run_arrow_closed_loop_implicit(*r.implicit, *model, cfg)
                           : run_arrow_closed_loop(r.tree, *model, cfg);
  }
  RunResult res;
  res.protocol = e.protocol.kind;
  res.makespan = loop.makespan;
  res.total_requests = loop.total_requests;
  res.messages = loop.tree_messages + loop.notify_messages;
  res.total_hops = static_cast<std::int64_t>(loop.tree_messages);
  res.avg_hops_per_request = loop.avg_hops_per_request;
  res.avg_round_latency_units = loop.avg_round_latency_units;
  res.messages_dropped = loop.messages_dropped;
  res.messages_duplicated = loop.messages_duplicated;
  res.partition_backlog_drained = loop.partition_backlog;
  fill_recovery(res, loop.recovery);
  return res;
}

template <>
RunResult run_protocol<Protocol::kCentralized>(const Experiment& e, const Resolved& r) {
  CentralizedConfig cfg;
  cfg.center = e.protocol.center;
  cfg.service_time = e.protocol.service_time;
  cfg.fault = e.fault;
  const NodeId n = r.n;
  RunResult res;
  res.protocol = e.protocol.kind;
  res.crashes = e.fault.has_crash() ? e.fault.crash_count : 0;
  res.partitions = e.fault.has_partition() ? e.fault.partition_count : 0;
  if (e.rounds > 0) {
    CentralizedLoopResult loop = run_centralized_closed_loop(n, e.rounds, r.oracle(), cfg);
    res.makespan = loop.makespan;
    res.total_requests = loop.total_requests;
    res.messages = loop.messages;
    res.total_hops = static_cast<std::int64_t>(loop.messages);
    res.avg_hops_per_request =
        loop.total_requests == 0
            ? 0.0
            : static_cast<double>(loop.messages) / static_cast<double>(loop.total_requests);
    res.avg_round_latency_units = loop.avg_round_latency_units;
    res.messages_dropped = loop.messages_dropped;
    res.messages_duplicated = loop.messages_duplicated;
    res.partition_backlog_drained = loop.partition_backlog;
    return res;
  }
  FaultStats fs;
  cfg.fault_stats_out = &fs;
  const int shards = effective_shards(e);
  QueuingOutcome out = [&] {
    if (shards > 1) {
      ShardSpec spec;
      spec.shards = shards;
      return run_centralized_sharded(n, r.requests, r.oracle(), cfg, spec);
    }
    return run_centralized(n, r.requests, r.oracle(), cfg);
  }();
  out.validate(r.requests);
  res.messages = static_cast<std::uint64_t>(out.total_hops());
  res.messages_dropped = fs.messages_dropped;
  res.messages_duplicated = fs.messages_duplicated;
  res.partition_backlog_drained = fs.partition_deferred;
  fill_one_shot(res, e, r.requests, std::move(out));
  return res;
}

template <>
RunResult run_protocol<Protocol::kPointerForwarding>(const Experiment& e, const Resolved& r) {
  PointerForwardingConfig cfg;
  cfg.mode = e.protocol.mode;
  cfg.service_time = e.protocol.service_time;
  cfg.initial_owner = r.root;
  cfg.fault = e.fault;
  const NodeId n = r.n;
  RunResult res;
  res.protocol = e.protocol.kind;
  res.crashes = e.fault.has_crash() ? e.fault.crash_count : 0;
  res.partitions = e.fault.has_partition() ? e.fault.partition_count : 0;
  const int shards = effective_shards(e);
  if (e.rounds > 0) {
    ForwardingLoopResult loop = [&] {
      if (shards > 1) {
        ShardSpec spec;
        spec.shards = shards;
        return run_pointer_forwarding_closed_loop_sharded(n, e.rounds, r.oracle(), cfg, spec);
      }
      return run_pointer_forwarding_closed_loop(n, e.rounds, r.oracle(), cfg);
    }();
    res.makespan = loop.makespan;
    res.total_requests = loop.total_requests;
    res.messages = loop.find_messages + loop.reply_messages;
    res.total_hops = static_cast<std::int64_t>(loop.find_messages);
    res.avg_hops_per_request = loop.avg_hops_per_request;
    res.avg_round_latency_units = loop.avg_round_latency_units;
    res.messages_dropped = loop.messages_dropped;
    res.messages_duplicated = loop.messages_duplicated;
    res.partition_backlog_drained = loop.partition_backlog;
    return res;
  }
  FaultStats fs;
  cfg.fault_stats_out = &fs;
  QueuingOutcome out = [&] {
    if (shards > 1) {
      ShardSpec spec;
      spec.shards = shards;
      return run_pointer_forwarding_sharded(n, r.requests, r.oracle(), cfg, spec);
    }
    return run_pointer_forwarding(n, r.requests, r.oracle(), cfg);
  }();
  out.validate(r.requests);
  res.messages = static_cast<std::uint64_t>(out.total_hops());
  res.messages_dropped = fs.messages_dropped;
  res.messages_duplicated = fs.messages_duplicated;
  res.partition_backlog_drained = fs.partition_deferred;
  fill_one_shot(res, e, r.requests, std::move(out));
  return res;
}

template <>
RunResult run_protocol<Protocol::kTokenPassing>(const Experiment& e, const Resolved& r) {
  // The token rides on an arrow execution: queue first (consuming the
  // latency model's stream exactly as a standalone arrow run would), then
  // circulate the token through the same model — identical to the legacy
  // {run_arrow; simulate_token_passing} sequence.
  //
  // Crashes are stripped: the token replays the analytic total order, which
  // cannot express a forked post-crash queue. Message faults stay and
  // perturb the queuing phase (the token circulation itself rides the
  // unfiltered latency model).
  auto model = e.latency.make();
  ArrowEngine engine(r.tree, *model);
  engine.set_service_time(e.protocol.service_time);
  engine.set_fault(e.fault.without_crash());
  QueuingOutcome out = engine.run(r.requests);
  out.validate(r.requests);
  TokenSimResult token =
      simulate_token_passing(r.tree, r.requests, out, e.protocol.hold_ticks, *model);
  RunResult res;
  res.protocol = e.protocol.kind;
  res.makespan = token.makespan;
  res.total_requests = r.requests.size();
  res.messages = engine.messages_sent() + token.token_messages;
  res.total_hops = static_cast<std::int64_t>(token.token_messages);
  res.total_distance = token.token_travel;
  res.total_latency = out.total_latency(r.requests);
  res.avg_hops_per_request =
      r.requests.size() == 0
          ? 0.0
          : static_cast<double>(token.token_messages) / static_cast<double>(r.requests.size());
  res.messages_dropped = engine.fault_stats().messages_dropped;
  res.messages_duplicated = engine.fault_stats().messages_duplicated;
  if (e.keep_outcome) res.outcome = std::move(out);
  return res;
}

Resolved resolve(const Experiment& e) {
  const TopologySpec& t = e.topology;
  const ResolvePlan plan = plan_resolve(e);
  Resolved r;
  if (plan.fam) {
    r.implicit.emplace();
    r.implicit->family = *plan.fam;
    r.implicit->n = t.nodes;
    r.implicit->rows = t.rows;
    r.implicit->cols = t.cols;
    r.implicit->root = t.root;
    r.implicit->balanced_binary = (t.tree_kind == TopologySpec::TreeKind::kBalancedBinary);
  }
  if (plan.materialize) {
    r.graph = t.build_graph();
    r.tree = t.build_tree(r.graph);
    r.n = r.graph.node_count();
    r.root = r.tree.root();  // kMedianSpt derives the root from the graph
  } else {
    // Scale tier: no Graph, no Dijkstra. Structured families answer
    // distance/adjacency/tree-parent queries in closed form.
    r.n = t.nodes;
    r.root = t.root;
    const Protocol p = e.protocol.kind;
    // ArrowEngine / token passing / the topology-fault recovery waves hold
    // a real Tree; O(n) from the closed-form parents, still no graph/APSP.
    const bool needs_tree = p == Protocol::kArrowOneShot || p == Protocol::kTokenPassing ||
                            (p == Protocol::kArrowClosedLoop && e.fault.has_topology_faults());
    if (needs_tree) r.tree = r.implicit->materialize_tree();
    r.implicit_loop = (p == Protocol::kArrowClosedLoop && !e.fault.has_topology_faults());
  }
  // Irregular families: the baselines' oracle is a per-run AllPairs table
  // whose rows fill on demand (a centralized run fills one; capped by
  // validate_experiment()).
  if (is_baseline(e) && !plan.fam) r.apsp.emplace(r.graph);
  if (!is_closed_loop(e)) r.requests = e.workload.build(r.n, r.root);
  return r;
}

}  // namespace exp_detail

std::optional<std::string> validate_experiment(const Experiment& e) {
  if (auto err = e.topology.validate()) return err;
  // The scaled fraction, the uniform minimum fraction and the truncated-exp
  // mean fraction are all shares of the synchronous latency.
  if (e.latency.kind != LatencySpec::Kind::kSynchronous &&
      !(e.latency.param > 0.0 && e.latency.param <= 1.0)) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "latency %s: fraction %g must be in (0, 1]",
                  e.latency.name(), e.latency.param);
    return std::string(msg);
  }
  const TopologySpec& t = e.topology;
  const exp_detail::ResolvePlan plan = exp_detail::plan_resolve(e);
  if (plan.materialize) {
    const std::int64_t n = t.nodes;
    std::int64_t edges = 0;  // undirected edge estimate for the refusal gate
    switch (t.family) {
      case TopologySpec::Family::kComplete:
        edges = n * (n - 1) / 2;
        break;
      case TopologySpec::Family::kPath:
      case TopologySpec::Family::kRandomTree:
      case TopologySpec::Family::kWeightedTree:
        edges = n - 1;
        break;
      case TopologySpec::Family::kRing:
        edges = n;
        break;
      case TopologySpec::Family::kGrid:
        edges = 2 * n - t.rows - t.cols;
        break;
      case TopologySpec::Family::kTorus:
        edges = 2 * n;
        break;
      case TopologySpec::Family::kHypercube:
        if (t.dims > kMaxMaterializedHypercubeDims)
          return std::string("hypercube: dims ") + std::to_string(t.dims) +
                 " requires the implicit tier (generator cap is dims <= " +
                 std::to_string(kMaxMaterializedHypercubeDims) +
                 "); use a shortest-path tree without analysis";
        edges = n * t.dims / 2;
        break;
      case TopologySpec::Family::kGeometric: {
        // Expected unit-square pair density within radius r is <= pi r^2.
        const double pairs = 0.5 * static_cast<double>(n) * static_cast<double>(n);
        const double density = std::min(1.0, 3.15 * t.radius * t.radius);
        edges = static_cast<std::int64_t>(pairs * density);
        break;
      }
      case TopologySpec::Family::kCustom:
        edges = static_cast<std::int64_t>(t.custom_graph->edges().size());
        break;
    }
    if (edges > kMaxMaterializedEdges)
      return std::string(t.family_name()) + ": ~" + std::to_string(edges) +
             " edges would be materialized (cap " + std::to_string(kMaxMaterializedEdges) +
             "); this configuration cannot use the implicit tier" +
             (plan.fam ? " because the protocol/tree/analysis settings force a real graph"
                       : "");
  }
  if (e.protocol.kind == Protocol::kCentralized &&
      (e.protocol.center < 0 || e.protocol.center >= t.nodes))
    return std::string("centralized: center ") + std::to_string(e.protocol.center) +
           " is not a node (must be in [0, " + std::to_string(t.nodes) + "))";
  if (exp_detail::is_baseline(e) && !plan.fam && t.nodes > kMaxApspNodes)
    return std::string(t.family_name()) + ": baseline distance oracle can fill an O(n^2) " +
           "AllPairs table; " + std::to_string(t.nodes) + " nodes exceeds the " +
           std::to_string(kMaxApspNodes) + "-node cap";
  if (e.shards > 1) {
    if (e.protocol.kind == Protocol::kTokenPassing)
      return std::string(e.protocol.name()) +
             ": shards > 1 cannot apply (the token replays an analytic total order, "
             "which is inherently serial)";
    if (e.protocol.kind == Protocol::kCentralized && e.rounds > 0)
      return std::string(
          "centralized closed loop: shards > 1 supports the one-shot mode only "
          "(the closed loop's Welford mean is order-dependent, so it runs serially)");
    if (e.fault.has_crash())
      return std::string(
          "shards > 1 cannot run a crash schedule (the recovery wave is a global "
          "pointer rewrite that cannot execute inside a safe window)");
    if (e.fault.has_partition())
      return std::string(
          "shards > 1 cannot run a partition schedule (per-side reconciliation and "
          "the heal merge are global pointer rewrites)");
    if (e.fault.has_churn())
      return std::string(
          "shards > 1 cannot run a churn schedule (tree re-selection is a global "
          "pointer rewrite)");
  }
  return std::nullopt;
}

namespace {

/// Process-wide high-water resident set, in bytes (0 where unavailable).
/// Monotone over the process lifetime: meaningful as a per-run budget only
/// when the largest run executes first (bench_throughput orders its
/// fig10_scale cells ascending for exactly this reason).
std::uint64_t peak_rss_bytes_now() {
#if defined(__APPLE__)
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0;
  return static_cast<std::uint64_t>(u.ru_maxrss);  // bytes on macOS
#elif defined(__unix__)
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0;
  return static_cast<std::uint64_t>(u.ru_maxrss) * 1024;  // kilobytes on Linux
#else
  return 0;
#endif
}

}  // namespace

RunResult run_experiment(const Experiment& e) {
  const auto index = static_cast<std::size_t>(e.protocol.kind);
  ARROWDQ_ASSERT_MSG(index < exp_detail::kDriverRegistry.size(), "unknown protocol");
  ARROWDQ_ASSERT_MSG(!e.analyze || e.keep_outcome,
                     "Experiment::analyze requires keep_outcome");
  if (auto err = validate_experiment(e)) ARROWDQ_ASSERT_MSG(false, err->c_str());
  RunResult res;
  {
    // Scoped so the run's graph, tree and distance rows are freed before the
    // fault-free twin below resolves its own.
    const exp_detail::Resolved r = exp_detail::resolve(e);
    res = exp_detail::kDriverRegistry[index](e, r);
    res.peak_rss_bytes = peak_rss_bytes_now();
    if (e.analyze && res.outcome)
      res.competitive = analyze_competitive(r.graph, r.tree, r.requests, *res.outcome);
  }
  if (e.fault.active()) {
    // Recovery cost in one number: re-run the identical scenario fault-free
    // (same seeds, same topology/workload/latency) and report the makespan
    // delta. The twin recursion terminates because its fault is inactive.
    Experiment twin = e;
    twin.fault = FaultSpec::none();
    twin.keep_outcome = false;
    twin.analyze = false;
    RunResult base = run_experiment(twin);
    res.recovery_delta_units = static_cast<double>(res.makespan - base.makespan) /
                               static_cast<double>(kTicksPerUnit);
    // The topology-fault flavour: only meaningful (and only emitted in JSON)
    // when a partition or churn schedule shaped the run.
    if (e.fault.has_partition() || e.fault.has_churn())
      res.partition_delta_units = res.recovery_delta_units;
  }
  return res;
}

std::vector<ExperimentResult> run_experiments(const std::vector<Experiment>& exps,
                                              const SweepRunner& runner) {
  return runner.map<ExperimentResult>(exps.size(), [&exps](std::size_t i) {
    const Experiment& e = exps[i];
    const auto t0 = std::chrono::steady_clock::now();
    RunResult res = run_experiment(e);
    const auto t1 = std::chrono::steady_clock::now();
    return ExperimentResult{e.label.empty() ? e.default_label() : e.label, std::move(res),
                            std::chrono::duration<double>(t1 - t0).count()};
  });
}

std::vector<ExperimentResult> run_experiments(const std::vector<Experiment>& exps) {
  return run_experiments(exps, SweepRunner(1));
}

QueuingOutcome arrow_outcome(const Tree& tree, const RequestSet& requests) {
  Experiment e;
  e.protocol = ProtocolSpec::arrow_one_shot();
  e.latency = LatencySpec::synchronous();
  e.keep_outcome = true;
  // Call the registry driver with a hand-built Resolved: the arrow driver
  // reads only the tree and the requests, so going through TopologySpec/
  // WorkloadSpec would round-trip a Graph and double-copy both inputs for
  // nothing on this hot application-layer path.
  exp_detail::Resolved r;
  r.tree = tree;
  r.requests = requests;
  RunResult res = exp_detail::run_protocol<Protocol::kArrowOneShot>(e, r);
  return std::move(*res.outcome);
}

}  // namespace arrowdq
