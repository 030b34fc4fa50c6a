// arrowdq_cli — compose an experiment from the command line.
//
//   $ ./arrowdq_cli --graph grid:6x6 --tree mst --load poisson:100:1.0 \
//                   --protocol arrow --model sync --seed 7 [--csv]
//
// Options
//   --graph     path:N | ring:N | grid:RxC | torus:RxC | complete:N |
//               star:N | randtree:N | geometric:N:RADIUS
//   --tree      spt | mst | median | random | balanced (complete graphs)
//   --load      oneshot | poisson:COUNT:RATE | bursty:B:SIZE:GAP |
//               sequential:COUNT:GAP | hotspot:COUNT:RATE:NODE:P
//   --protocol  arrow | centralized | ivy | reversal
//   --model     sync | scaled:F | uniform | exp      (arrow only)
//   --seed      u64 seed (default 1)
//   --csv       emit per-request CSV instead of the human-readable report
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/competitive.hpp"
#include "exp/experiment.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/latency.hpp"
#include "support/parse.hpp"
#include "support/random.hpp"
#include "workload/workloads.hpp"

using namespace arrowdq;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "arrowdq_cli: %s\n(see the header comment of examples/arrowdq_cli.cpp)\n",
               msg);
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    auto pos = s.find(sep, start);
    parts.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return parts;
}

/// Exit through usage() unless `ok`: bad sizes and rates are diagnostics,
/// never assertions inside the generators.
void require(bool ok, const char* msg) {
  if (!ok) usage(msg);
}

/// Refuse a graph with more edges than validate_experiment would accept
/// before its generator allocates them.
void require_edges(std::int64_t edges) {
  if (edges <= kMaxMaterializedEdges) return;
  const std::string msg = std::to_string(edges) + " graph edges exceed the cap of " +
                          std::to_string(kMaxMaterializedEdges);
  usage(msg.c_str());
}

/// A graph size: a node count, or one grid/torus dimension.
NodeId parse_size(const std::string& s) {
  const long v = std::atol(s.c_str());
  require(v >= 1 && v <= std::numeric_limits<NodeId>::max(), "graph sizes must be >= 1");
  return static_cast<NodeId>(v);
}

Graph parse_graph(const std::string& spec, Rng& rng) {
  auto p = split(spec, ':');
  const std::string& kind = p[0];
  auto arg = [&](std::size_t i) -> NodeId {
    if (i >= p.size()) usage("missing graph parameter");
    return parse_size(p[i]);
  };
  // A node count whose graph fits the materialization cap.
  auto nodes = [&]() -> NodeId {
    const NodeId n = arg(1);
    require_edges(kind == "complete" ? std::int64_t{n} * (n - 1) / 2 : n);
    return n;
  };
  if (kind == "path") return make_path(nodes());
  if (kind == "ring") {
    const NodeId n = nodes();
    require(n >= 3, "ring needs >= 3 nodes");
    return make_ring(n);
  }
  if (kind == "complete") return make_complete(nodes());
  if (kind == "star") return make_star(nodes());
  if (kind == "randtree") return make_random_tree(nodes(), rng);
  if (kind == "grid" || kind == "torus") {
    auto rc = split(p.size() > 1 ? p[1] : "", 'x');
    if (rc.size() != 2) usage("grid/torus need RxC");
    const NodeId r = parse_size(rc[0]);
    const NodeId c = parse_size(rc[1]);
    require_edges(2 * std::int64_t{r} * c);
    if (kind == "grid") return make_grid(r, c);
    require(r >= 3 && c >= 3, "torus dims must be >= 3");
    return make_torus(r, c);
  }
  if (kind == "geometric") {
    if (p.size() < 3) usage("geometric:N:RADIUS");
    const NodeId n = nodes();
    const std::optional<double> radius = parse_f64(p[2]);
    if (!radius) usage("geometric radius must be a number");
    // TopologySpec's rule: a radius <= 0 never connects the graph.
    if (auto err = TopologySpec::geometric(n, 0, *radius).validate()) usage(err->c_str());
    return make_random_geometric(n, *radius, rng);
  }
  usage("unknown graph kind");
}

Tree parse_tree(const std::string& kind, const Graph& g, Rng& rng) {
  if (kind == "spt") return shortest_path_tree(g, 0);
  if (kind == "mst") return kruskal_mst(g, 0);
  if (kind == "median") return median_spt(g);
  if (kind == "random") return random_spanning_tree(g, 0, rng);
  if (kind == "balanced") return balanced_binary_overlay(g);
  usage("unknown tree kind");
}

RequestSet parse_load(const std::string& spec, NodeId n, NodeId root, Rng& rng) {
  auto p = split(spec, ':');
  const std::string& kind = p[0];
  auto iarg = [&](std::size_t i) -> long {
    if (i >= p.size()) usage("missing load parameter");
    const long v = std::atol(p[i].c_str());
    require(v >= 0 && v <= std::numeric_limits<int>::max(), "load counts and gaps must be >= 0");
    return v;
  };
  auto farg = [&](std::size_t i) -> double {
    if (i >= p.size()) usage("missing load parameter");
    return std::atof(p[i].c_str());
  };
  auto rate = [&](std::size_t i) -> double {
    const double r = farg(i);
    require(r > 0.0, "load rate must be > 0");
    return r;
  };
  if (kind == "oneshot") return one_shot_all(n, root);
  if (kind == "poisson")
    return poisson_uniform(n, root, static_cast<int>(iarg(1)), rate(2), rng);
  if (kind == "bursty")
    return bursty(n, root, static_cast<int>(iarg(1)), static_cast<int>(iarg(2)), iarg(3), rng);
  if (kind == "sequential")
    return sequential_random(n, root, static_cast<int>(iarg(1)), iarg(2), rng);
  if (kind == "hotspot") {
    const int count = static_cast<int>(iarg(1));
    const double r = rate(2);
    const long node = iarg(3);
    const double prob = farg(4);
    require(node < n, "hotspot node must be a node of the graph");
    require(prob >= 0.0 && prob <= 1.0, "hotspot probability must be in [0, 1]");
    return poisson_hotspot(n, root, count, r, static_cast<NodeId>(node), prob, rng);
  }
  usage("unknown load kind");
}

LatencySpec parse_model(const std::string& spec, std::uint64_t seed) {
  auto p = split(spec, ':');
  if (p[0] == "sync") return LatencySpec::synchronous();
  if (p[0] == "scaled") return LatencySpec::scaled(p.size() > 1 ? std::atof(p[1].c_str()) : 0.5);
  if (p[0] == "uniform") return LatencySpec::uniform_async(seed ^ 0xFACE);
  if (p[0] == "exp") return LatencySpec::truncated_exp(seed ^ 0xBEEF);
  usage("unknown latency model");
}

ProtocolSpec parse_protocol(const std::string& proto, NodeId root) {
  if (proto == "arrow") return ProtocolSpec::arrow_one_shot();
  if (proto == "centralized") return ProtocolSpec::centralized(root);
  if (proto == "ivy")
    return ProtocolSpec::pointer_forwarding(ForwardingMode::kCompressToRequester);
  if (proto == "reversal")
    return ProtocolSpec::pointer_forwarding(ForwardingMode::kReverseToSender);
  usage("unknown protocol");
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_spec = "grid:5x5", tree_spec = "spt", load_spec = "poisson:50:1.0";
  std::string proto = "arrow", model_spec = "sync";
  std::uint64_t seed = 1;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) usage(flag);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--graph")) graph_spec = need("--graph needs a value");
    else if (!std::strcmp(argv[i], "--tree")) tree_spec = need("--tree needs a value");
    else if (!std::strcmp(argv[i], "--load")) load_spec = need("--load needs a value");
    else if (!std::strcmp(argv[i], "--protocol")) proto = need("--protocol needs a value");
    else if (!std::strcmp(argv[i], "--model")) model_spec = need("--model needs a value");
    else if (!std::strcmp(argv[i], "--seed")) seed = std::strtoull(need("--seed needs a value").c_str(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--csv")) csv = true;
    else usage("unknown flag");
  }

  require(tree_spec != "balanced" || split(graph_spec, ':')[0] == "complete",
          "--tree balanced needs --graph complete:N");
  Rng rng(seed);
  Graph g = parse_graph(graph_spec, rng);
  Tree t = parse_tree(tree_spec, g, rng);
  Rng wrng = rng.split();
  RequestSet reqs = parse_load(load_spec, g.node_count(), t.root(), wrng);

  // One declarative experiment: the parsed graph/tree/load become a custom
  // topology + fixed workload, the protocol and model are just axis values.
  // All protocols route messages over dG of the parsed graph (the baselines
  // through the APSP oracle), so topology changes affect every column.
  Experiment e;
  e.protocol = parse_protocol(proto, t.root());
  e.topology = TopologySpec::custom(g, t);
  e.workload = WorkloadSpec::fixed(reqs);
  e.latency = parse_model(model_spec, seed);
  e.keep_outcome = true;
  if (auto err = validate_experiment(e)) usage(err->c_str());
  RunResult result = run_experiment(e);
  const QueuingOutcome& out = *result.outcome;

  if (csv) {
    std::printf("request,node,issue_units,predecessor,latency_units,hops,distance_units\n");
    for (RequestId id = 1; id <= reqs.size(); ++id) {
      const auto& c = out.completion(id);
      std::printf("%d,%d,%.3f,%d,%.3f,%d,%lld\n", id, reqs.by_id(id).node,
                  ticks_to_units_d(reqs.by_id(id).time), c.predecessor,
                  ticks_to_units_d(c.completed_at - reqs.by_id(id).time), c.hops,
                  static_cast<long long>(c.distance));
    }
    return 0;
  }

  auto q = tree_quality(g, t);
  std::printf("graph=%s n=%d | tree=%s D=%lld stretch=%.2f | load=%s |R|=%d | protocol=%s\n",
              graph_spec.c_str(), g.node_count(), tree_spec.c_str(),
              static_cast<long long>(q.tree_diameter), q.stretch, load_spec.c_str(),
              reqs.size(), proto.c_str());
  std::printf("total latency : %.1f units\n", ticks_to_units_d(out.total_latency(reqs)));
  std::printf("total hops    : %lld (%.2f per request)\n",
              static_cast<long long>(out.total_hops()),
              static_cast<double>(out.total_hops()) / std::max(1, reqs.size()));
  if (proto == "arrow" && model_spec == "sync" && reqs.size() <= 64) {
    auto rep = analyze_competitive(g, t, reqs, out, 12);
    std::printf("OPT bound     : %.1f units (%s)\n", ticks_to_units_d(rep.opt.value),
                rep.opt.exact >= 0 ? "exact" : "mst/12");
    std::printf("ratio         : %.2f (reference s*log2 D = %.2f)\n", rep.ratio, rep.s_log_d);
  }
  return 0;
}
