// perfbench harness: runs one benchmark workload through the library's public
// APIs (run_experiment / run_replicated in exp, rt::run_runtime), checks its
// outputs, and prints every metric by name with its unit. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--deadline S]
//   perfbench_harness --selftest             corrupted results must be caught
//   perfbench_harness --selftest-watchdog    a livelocked cell must be cut off
//
// Workloads: fig10_sync, fig10_async and fault_sweep (BENCHMARK.json's list),
// plus rt_mutex, whose two-thread throughput swings too much with host
// scheduling to carry a bounded metric. perfbench/NOTES.md says what each one
// stresses and why.
//
// --trace 0 reports the end-to-end metrics: setup_s (median of repeated
// set-ups of the workload's inputs), queue_ops_per_s (median over the timed
// repetitions) and peak_rss_mb. --trace 1 reports the per-layer metrics:
// the harness records in-memory spans around its own calls into each module
// and derives layer times from them; the library itself is not
// instrumented. A watchdog turns a run that overruns --deadline into a
// failed result with a diagnostic instead of a hang.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/token_sim.hpp"
#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "baseline/centralized.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "checks.hpp"
#include "exp/experiment.hpp"
#include "exp/replication.hpp"
#include "graph/shortest_paths.hpp"
#include "rt/history.hpp"
#include "rt/runtime.hpp"
#include "rt/service.hpp"
#include "sim/parallel/parallel.hpp"
#include "sim/sweep.hpp"
#include "trace.hpp"

using namespace arrowdq;
using perfbench::Band;
using perfbench::Oracle;
using perfbench::Scope;
using perfbench::now_s;

namespace {

constexpr Time kService = kTicksPerUnit / 16;  // sweep_main's default service time
constexpr int kMinReps = 3;                    // fewest timed repetitions per run
constexpr int kSetupBatches = 11;              // set-up timing batches before timing
constexpr int kSetupBatchesPerRep = 4;         // and after each timed repetition

// --- hardware -------------------------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// A thread/shard count never above the cores the machine gives us.
int capped(int requested) { return std::max(1, std::min(requested, nproc())); }

double peak_rss_bytes() {
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0.0;
  return static_cast<double>(u.ru_maxrss) * 1024.0;  // kilobytes on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- metrics --------------------------------------------------------------

/// Per-layer metric values by name; nullopt prints as not_measured.
using LayerValues = std::map<std::string, std::optional<double>>;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. A layer the workload does not
/// exercise reports 0.
constexpr MetricDef kLayerMetrics[] = {
    {"arrow.closed_loop_s", "s"},
    {"sim.messages", "count"},
    {"sim.ns_per_message", "ns"},
    {"sim.bytes_per_node", "B"},
    {"parallel.closed_loop_s", "s"},
    {"parallel.windows", "count"},
    {"parallel.merged_entries", "count"},
    {"parallel.merged_per_window", "count"},
    {"parallel.events_executed", "count"},
    {"parallel.lookahead_ticks", "ticks"},
    {"parallel.speedup_vs_k1", "x"},
    {"exp.run_experiment_s", "s"},
    {"exp.overhead_s", "s"},
    {"exp.twin_s", "s"},
    {"exp.twin_frac", "ratio"},
    {"graph.build_graph_s", "s"},
    {"graph.build_tree_s", "s"},
    {"graph.apsp_s", "s"},
    {"graph.edges", "count"},
    {"workload.build_s", "s"},
    {"proto.validate_s", "s"},
    {"apps.token_s", "s"},
    {"arrow.loop_s", "s"},
    {"arrow.one_shot_s", "s"},
    {"baseline.forwarding_loop_s", "s"},
    {"baseline.forwarding_s", "s"},
    {"baseline.centralized_loop_s", "s"},
    {"baseline.msgs_per_op", "ratio"},
    {"fault.dropped_frac", "ratio"},
    {"fault.partition_backlog", "count"},
    {"arrow.stabilize_rounds", "count"},
    {"arrow.stabilize_corrections", "count"},
    {"arrow.reselections", "count"},
    {"arrow.tree_msgs_per_op", "ratio"},
    {"sweep.map_s", "s"},
    {"sweep.busy_frac", "ratio"},
    {"sweep.max_cell_s", "s"},
    {"rt.run_s", "s"},
    {"rt.hops_per_op", "ratio"},
    {"rt.token_msgs_per_op", "ratio"},
    {"rt.hops_ratio_vs_sim", "ratio"},
    {"rt.record_overhead", "x"},
    {"rt.check_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
    {"hw.nproc", "count"},
    {"hw.hardware_concurrency", "count"},
    {"hw.threads_used", "count"},
};

void print_result(const Oracle& oracle, const std::vector<MetricDef>& defs,
                  const LayerValues& values) {
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it != values.end() && !it->second)
      std::printf("metric %-30s not_measured %s\n", d.name, d.unit);
    else
      std::printf("metric %-30s %.6g %s\n", d.name, it == values.end() ? 0.0 : *it->second,
                  d.unit);
  }
  const double frac = oracle.attempted() > 0 ? static_cast<double>(oracle.failed()) /
                                                   static_cast<double>(oracle.attempted())
                                             : 1.0;
  std::printf("metric %-30s %.6g ratio  (%lld of %lld checks failed)\n", "failed_frac", frac,
              static_cast<long long>(oracle.failed()),
              static_cast<long long>(oracle.attempted()));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              oracle.failed() == 0 ? "true" : "false",
              static_cast<long long>(oracle.attempted()),
              static_cast<long long>(oracle.failed()));
  const char* sep = "";
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    std::printf("%s\"%s\": {\"value\": ", sep, d.name);
    if (it != values.end() && !it->second)
      std::printf("null");
    else
      std::printf("%.17g", it == values.end() ? 0.0 : *it->second);
    std::printf(", \"unit\": \"%s\"}", d.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- watchdog -------------------------------------------------------------

/// What the run is doing right now, for the watchdog's diagnostic.
std::atomic<const char*> g_phase{"startup"};
void phase(const char* p) { g_phase.store(p, std::memory_order_relaxed); }

/// Ends the process with a failed result and a diagnostic if the run is
/// still going `deadline_s` seconds after process start. Some fault paths
/// can livelock inside a single library call (NOTES.md lists reproducers),
/// and such a call cannot be interrupted cooperatively.
class Watchdog {
 public:
  Watchdog(double deadline_s, const char* workload, const Oracle& oracle)
      : deadline_s_(deadline_s), workload_(workload), oracle_(oracle),
        thread_([this] { watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void watch() {
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(0.0, deadline_s_ - now_s())));
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_until(lock, until, [this] { return done_; })) return;
    std::fprintf(stderr,
                 "watchdog: workload %s overran its %.0f s deadline during '%s'; "
                 "reporting a failed run\n",
                 workload_, deadline_s_, g_phase.load(std::memory_order_relaxed));
    std::printf("{\"correct\": false, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {}}\n",
                static_cast<long long>(oracle_.attempted() + 1),
                static_cast<long long>(oracle_.failed() + 1));
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(1);
  }

  const double deadline_s_;
  const char* workload_;
  const Oracle& oracle_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;  // last: starts after every member it reads
};

// --- workloads ------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build and validate the inputs. Called repeatedly to time set-up; the
  /// last call's state is what the run uses.
  virtual void setup() = 0;
  /// The timed call. Returns the queuing operations it completed.
  virtual std::int64_t run_once() = 0;
  /// Check the last run_once result (outside the timed region).
  virtual void check_last(Oracle& o) = 0;
  /// Checks made once after the timed region.
  virtual void final_checks(Oracle&) {}
  /// One repetition with spans around the layer calls.
  virtual std::int64_t traced_rep() = 0;
  /// The traced decomposition: time the layers one call at a time and fill
  /// the per-layer metrics from the spans and the results' counters.
  virtual void decompose(Oracle& o, LayerValues& m) = 0;
  virtual int threads_used() const { return 1; }
};

/// Figure 10 closed loop on an implicit hypercube (the paper's Section 5
/// cell), served by the serial implicit driver. The traced run times the
/// serial driver and, when traced_shards > 1, the sharded engine on the same
/// cell.
class Fig10 final : public Workload {
 public:
  Fig10(int dims, std::int64_t rounds, LatencySpec latency, int traced_shards,
        std::uint64_t seed, std::optional<perfbench::Fig10SyncPins> pins, Band hops,
        Band round_latency)
      : dims_(dims), rounds_(rounds), latency_(latency), traced_shards_(traced_shards),
        seed_(seed), pins_(pins), hops_(hops), round_latency_(round_latency) {}

  void setup() override {
    Experiment e;
    e.protocol = ProtocolSpec::arrow_closed_loop(kService);
    e.topology = TopologySpec::hypercube(dims_);
    e.latency = latency_;
    e.rounds = rounds_;
    e.shards = 1;
    e = e.with_seed(seed_);
    e.label = e.default_label();
    valid_ = !validate_experiment(e).has_value();
    cell_ = std::move(e);
  }

  std::int64_t run_once() override {
    last_ = run_experiment(cell_);
    return last_.total_requests;
  }

  void check_last(Oracle& o) override {
    if (!reference_) {
      o.check(valid_, cell_.label + ": validate_experiment accepts the cell");
      std::printf("observables: makespan_units=%.4f messages=%llu hops_per_op=%.6f "
                  "round_latency_units=%.6f\n",
                  ticks_to_units_d(last_.makespan),
                  static_cast<unsigned long long>(last_.messages), last_.avg_hops_per_request,
                  last_.avg_round_latency_units);
      if (pins_)
        perfbench::check_fig10_sync(o, last_, *pins_);
      else
        perfbench::check_closed_loop(o, cell_.label.c_str(), last_, requests(), hops_,
                                     round_latency_);
      reference_ = last_;
      return;
    }
    perfbench::check_identical(o, last_, *reference_,
                               cell_.label + ": repeat run reproduces the first");
  }

  std::int64_t traced_rep() override {
    Scope s("exp.run_experiment");
    return run_once();
  }

  void decompose(Oracle& o, LayerValues& m) override {
    ImplicitTopology topo;  // exactly what run_experiment resolves the cell to
    topo.family = ImplicitFamily::kHypercube;
    topo.n = cell_.topology.nodes;
    topo.root = cell_.topology.root;
    ClosedLoopConfig cfg;
    cfg.requests_per_node = cell_.rounds;
    cfg.service_time = cell_.protocol.service_time;
    cfg.fault = cell_.fault;
    const int k = capped(traced_shards_);
    ParallelStats stats;
    for (int rep = 0; rep < kMinReps; ++rep) {
      phase("decomposition: serial implicit closed loop");
      auto model = cell_.latency.make();
      ClosedLoopResult serial;
      {
        Scope s("arrow.closed_loop");
        serial = run_arrow_closed_loop_implicit(topo, *model, cfg);
      }
      check_loop(o, serial, "serial implicit driver");
      if (traced_shards_ <= 1) continue;
      phase("decomposition: sharded implicit closed loop");
      auto sharded_model = cell_.latency.make();
      ShardSpec spec;
      spec.shards = k;
      ClosedLoopResult sharded;
      {
        Scope s("parallel.closed_loop");
        sharded = run_arrow_closed_loop_implicit_sharded(topo, *sharded_model, cfg, spec, &stats);
      }
      check_loop(o, sharded, "sharded implicit driver");
    }
    const std::vector<perfbench::Span> spans = perfbench::tracer().spans();
    const double serial_s = median(perfbench::durations(spans, "arrow.closed_loop"));
    const double exp_s = median(perfbench::durations(spans, "exp.run_experiment"));
    const RunResult& r = *reference_;
    m["arrow.closed_loop_s"] = serial_s;
    m["sim.messages"] = static_cast<double>(r.messages);
    m["sim.ns_per_message"] = serial_s * 1e9 / static_cast<double>(r.messages);
    m["sim.bytes_per_node"] = peak_rss_bytes() / static_cast<double>(cell_.topology.nodes);
    m["exp.run_experiment_s"] = exp_s;
    m["arrow.tree_msgs_per_op"] = r.avg_hops_per_request;
    m["arrow.stabilize_rounds"] = r.stabilize_rounds;
    m["arrow.stabilize_corrections"] = r.stabilize_corrections;
    m["arrow.reselections"] = r.reselections;
    m["fault.dropped_frac"] =
        static_cast<double>(r.messages_dropped) / static_cast<double>(r.messages);
    m["fault.partition_backlog"] = static_cast<double>(r.partition_backlog_drained);
    m["exp.overhead_s"] = exp_s - serial_s;
    if (traced_shards_ <= 1) return;
    const double par_s = median(perfbench::durations(spans, "parallel.closed_loop"));
    m["parallel.closed_loop_s"] = par_s;
    m["parallel.windows"] = static_cast<double>(stats.windows);
    m["parallel.merged_entries"] = static_cast<double>(stats.merged_entries);
    m["parallel.merged_per_window"] =
        stats.windows
            ? static_cast<double>(stats.merged_entries) / static_cast<double>(stats.windows)
            : 0.0;
    m["parallel.events_executed"] = static_cast<double>(stats.events_executed);
    m["parallel.lookahead_ticks"] = static_cast<double>(stats.lookahead);
    // A speedup needs as many cores as lanes; otherwise it only measures
    // time-slicing, so it is not reported.
    if (k >= traced_shards_)
      m["parallel.speedup_vs_k1"] = serial_s / par_s;
    else
      m["parallel.speedup_vs_k1"] = std::nullopt;
  }

 private:
  std::int64_t requests() const {
    return static_cast<std::int64_t>(cell_.topology.nodes) * rounds_;
  }

  void check_loop(Oracle& o, const ClosedLoopResult& loop, const char* driver) {
    const RunResult& r = *reference_;
    o.check(loop.makespan == r.makespan && loop.total_requests == r.total_requests &&
                loop.tree_messages + loop.notify_messages == r.messages &&
                static_cast<std::int64_t>(loop.tree_messages) == r.total_hops,
            cell_.label + ": " + driver + " reproduces run_experiment");
  }

  const int dims_;
  const std::int64_t rounds_;
  const LatencySpec latency_;
  const int traced_shards_;  // requested; capped to the core count when used
  const std::uint64_t seed_;
  const std::optional<perfbench::Fig10SyncPins> pins_;
  const Band hops_;
  const Band round_latency_;
  Experiment cell_;
  bool valid_ = false;
  RunResult last_;
  std::optional<RunResult> reference_;  // the first (checked) result
};

Time outcome_makespan(const QueuingOutcome& out) {
  Time last = 0;
  for (RequestId id = 1; id <= out.request_count(); ++id)
    last = std::max(last, out.completion(id).completed_at);
  return last;
}

/// The cell run_experiment would run, taken apart into the public calls of
/// each layer, each under its own span. Returns the observables to compare
/// against run_experiment's result.
RunResult decomposed_run(const Experiment& e, int cell, std::int64_t& edges) {
  Graph g = [&] {
    Scope s("graph.build_graph", cell);
    return e.topology.build_graph();
  }();
  Tree tree = [&] {
    Scope s("graph.build_tree", cell);
    return e.topology.build_tree(g);
  }();
  edges += static_cast<std::int64_t>(g.edge_count());
  const NodeId n = g.node_count();
  const NodeId root = tree.root();
  const Protocol kind = e.protocol.kind;
  std::optional<AllPairs> apsp;
  if (kind == Protocol::kCentralized || kind == Protocol::kPointerForwarding) {
    Scope s("graph.apsp", cell);
    apsp.emplace(g);
  }
  RequestSet requests{root, {}};
  if (e.rounds == 0 && kind != Protocol::kArrowClosedLoop) {
    Scope s("workload.build", cell);
    requests = e.workload.build(n, root);
  }
  auto validate = [&](const QueuingOutcome& out) {
    Scope s("proto.validate", cell);
    out.validate(requests);
  };

  RunResult res;
  res.protocol = kind;
  switch (kind) {
    case Protocol::kArrowClosedLoop: {
      auto model = e.latency.make();
      ClosedLoopConfig cfg;
      cfg.requests_per_node = e.rounds;
      cfg.service_time = e.protocol.service_time;
      cfg.fault = e.fault;
      ClosedLoopResult loop;
      {
        Scope s("arrow.loop", cell);
        loop = run_arrow_closed_loop(tree, *model, cfg);
      }
      res.makespan = loop.makespan;
      res.total_requests = loop.total_requests;
      res.messages = loop.tree_messages + loop.notify_messages;
      res.total_hops = static_cast<std::int64_t>(loop.tree_messages);
      res.messages_dropped = loop.messages_dropped;
      break;
    }
    case Protocol::kCentralized: {
      CentralizedConfig cfg;
      cfg.center = e.protocol.center;
      cfg.service_time = e.protocol.service_time;
      cfg.fault = e.fault;
      CentralizedLoopResult loop;
      {
        Scope s("baseline.centralized_loop", cell);
        loop = run_centralized_closed_loop(n, e.rounds, ApspDist{&*apsp}, cfg);
      }
      res.makespan = loop.makespan;
      res.total_requests = loop.total_requests;
      res.messages = loop.messages;
      res.total_hops = static_cast<std::int64_t>(loop.messages);
      res.messages_dropped = loop.messages_dropped;
      break;
    }
    case Protocol::kPointerForwarding: {
      PointerForwardingConfig cfg;
      cfg.mode = e.protocol.mode;
      cfg.service_time = e.protocol.service_time;
      cfg.initial_owner = root;
      cfg.fault = e.fault;
      if (e.rounds > 0) {
        ForwardingLoopResult loop;
        {
          Scope s("baseline.forwarding_loop", cell);
          loop = run_pointer_forwarding_closed_loop(n, e.rounds, ApspDist{&*apsp}, cfg);
        }
        res.makespan = loop.makespan;
        res.total_requests = loop.total_requests;
        res.messages = loop.find_messages + loop.reply_messages;
        res.total_hops = static_cast<std::int64_t>(loop.find_messages);
        res.messages_dropped = loop.messages_dropped;
        break;
      }
      FaultStats fs;
      cfg.fault_stats_out = &fs;
      const QueuingOutcome out = [&] {
        Scope s("baseline.forwarding", cell);
        return run_pointer_forwarding(n, requests, ApspDist{&*apsp}, cfg);
      }();
      validate(out);
      res.makespan = outcome_makespan(out);
      res.total_requests = requests.size();
      res.messages = static_cast<std::uint64_t>(out.total_hops());
      res.total_hops = out.total_hops();
      res.messages_dropped = fs.messages_dropped;
      break;
    }
    case Protocol::kArrowOneShot:
    case Protocol::kTokenPassing: {
      const bool token = kind == Protocol::kTokenPassing;
      auto model = e.latency.make();
      ArrowEngine engine(tree, *model);
      engine.set_service_time(e.protocol.service_time);
      engine.set_fault(token ? e.fault.without_crash() : e.fault);
      const QueuingOutcome out = [&] {
        Scope s("arrow.one_shot", cell);
        return engine.run(requests);
      }();
      if (token || !e.fault.has_topology_faults()) validate(out);
      res.total_requests = requests.size();
      res.messages = engine.messages_sent();
      res.messages_dropped = engine.fault_stats().messages_dropped;
      if (!token) {
        res.makespan = outcome_makespan(out);
        res.total_hops = out.total_hops();
        break;
      }
      const TokenSimResult tok = [&] {
        Scope s("apps.token", cell);
        return simulate_token_passing(tree, requests, out, e.protocol.hold_ticks, *model);
      }();
      res.makespan = tok.makespan;
      res.messages += tok.token_messages;
      res.total_hops = static_cast<std::int64_t>(tok.token_messages);
      break;
    }
  }
  if (e.fault.active()) {
    // run_experiment's fault-free twin: same seeds, no fault schedule.
    Experiment twin = e;
    twin.fault = FaultSpec::none();
    Scope s("exp.twin", cell);
    run_experiment(twin);
  }
  return res;
}

/// The shared-memory runtime serving a mutex on the hypercube-4096 tree:
/// 2 worker threads, 64 acquire/release rounds per node, history recording
/// off in the timed region. Its throughput swings about 4x with how the
/// host schedules the two worker threads' CPUs, so it cannot carry a bounded
/// end-to-end metric: BENCHMARK.json lists no rt_mutex workload, and
/// fault_sweep runs this pass after its timed region instead (as
/// `sweep_main --rt` does). `--workload rt_mutex` still runs it alone.
class RtMutex final : public Workload {
 public:
  void setup() override {
    Experiment e;
    e.protocol = ProtocolSpec::arrow_closed_loop(kService);
    e.topology = TopologySpec::hypercube(kDims);
    e.latency = LatencySpec::synchronous();
    e.rounds = kRounds;
    e.label = e.default_label();
    valid_ = !validate_experiment(e).has_value();
    tree_.emplace(rt::rt_tree_for(e));
    cell_ = std::move(e);
    cfg_.threads = capped(2);
    cfg_.rounds_per_node = kRounds;
    cfg_.app = rt::RtApp::kMutex;
    cfg_.record_history = false;
  }

  std::int64_t run_once() override {
    last_ = rt::run_runtime(*tree_, cfg_);
    return last_.ops;
  }

  void check_last(Oracle& o) override {
    if (!checked_setup_) {
      o.check(valid_, "rt_mutex: validate_experiment accepts the cell");
      checked_setup_ = true;
    }
    perfbench::check_rt_run(o, last_, ops(), kHops);
  }

  void final_checks(Oracle& o) override {
    phase("recorded runtime run + check_history");
    rt::RtConfig rec = cfg_;
    rec.record_history = true;
    const rt::RtResult r = rt::run_runtime(*tree_, rec);
    perfbench::check_rt_run(o, r, ops(), kHops);
    perfbench::check_rt_history(o, r.history, spec());
  }

  std::int64_t traced_rep() override {
    Scope s("rt.run");
    return run_once();
  }

  void decompose(Oracle& o, LayerValues& m) override {
    phase("decomposition: runtime runs");
    for (int rep = 0; rep < kMinReps; ++rep) {
      {
        Scope s("rt.run");
        run_once();
      }
      check_last(o);
    }
    rt::RtConfig rec = cfg_;
    rec.record_history = true;
    rt::RtResult recorded;
    {
      Scope s("rt.run_recorded");
      recorded = rt::run_runtime(*tree_, rec);
    }
    {
      Scope s("rt.check");
      perfbench::check_rt_history(o, recorded.history, spec());
    }
    phase("decomposition: runtime vs sim cross-validation");
    rt::RtCrossValidation cv;
    {
      Scope s("rt.cross_validate");
      cv = rt::run_rt_cross_validated(cell_, cfg_);
    }
    perfbench::check_rt_run(o, cv.rt, ops(), kHops);
    const std::vector<perfbench::Span> spans = perfbench::tracer().spans();
    const double run_s = median(perfbench::durations(spans, "rt.run"));
    m["rt.run_s"] = run_s;
    m["rt.hops_per_op"] = last_.hops_per_op();
    m["rt.token_msgs_per_op"] =
        static_cast<double>(last_.token_messages) / static_cast<double>(last_.ops);
    if (cv.sim_hops_zero)
      m["rt.hops_ratio_vs_sim"] = std::nullopt;
    else
      m["rt.hops_ratio_vs_sim"] = cv.hops_ratio;
    m["rt.record_overhead"] = median(perfbench::durations(spans, "rt.run_recorded")) / run_s;
    m["rt.check_s"] = median(perfbench::durations(spans, "rt.check"));
  }

  int threads_used() const override { return capped(2); }

 private:
  static constexpr int kDims = 12;
  static constexpr std::int64_t kRounds = 64;
  // A queue message crosses at most the tree's diameter (2 x 12 levels).
  static constexpr Band kHops{0.01, 24.0};

  static std::int64_t ops() { return (std::int64_t{1} << kDims) * kRounds; }
  static rt::CheckSpec spec() {
    return rt::CheckSpec{std::int64_t{1} << kDims, kRounds, rt::RtApp::kMutex};
  }

  Experiment cell_;
  bool valid_ = false;
  bool checked_setup_ = false;
  std::optional<Tree> tree_;
  rt::RtConfig cfg_;
  rt::RtResult last_;
};

/// run_replicated over materialized randtree and geometric topologies at
/// n = 512 with uniform:0.1 latency: closed loops of three protocols under
/// five fault schedules, and one-shot protocols with and without loss.
/// The sweep runs on one SweepRunner thread: with one thread per vCPU of a
/// shared host its wall time measured the host's scheduler (NOTES.md).
/// One-shot arrow runs with loss only: under crash, partition or churn it
/// can livelock (NOTES.md lists the reproducers). After the timed region
/// the rt_mutex runtime pass runs once with its history checked; the traced
/// run reports its rt.* layer metrics.
class FaultSweep final : public Workload {
 public:
  explicit FaultSweep(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    rt_.setup();
    struct Proto {
      const char* token;
      ProtocolSpec spec;
    };
    const Proto loops[] = {
        {"arrow-loop", ProtocolSpec::arrow_closed_loop(kService)},
        {"forwarding-loop",
         ProtocolSpec::pointer_forwarding(ForwardingMode::kCompressToRequester, kService)},
        {"centralized", ProtocolSpec::centralized(0, kService)},
    };
    const Proto one_shots[] = {
        {"arrow", ProtocolSpec::arrow_one_shot(kService)},
        {"forwarding",
         ProtocolSpec::pointer_forwarding(ForwardingMode::kCompressToRequester, kService)},
        {"token", ProtocolSpec::token_passing(kService)},
    };
    const char* loop_faults[] = {"none", "loss:0.05", "crash:2", "partition:2:4:8", "churn:8"};
    const char* one_shot_faults[] = {"none", "loss:0.05"};
    const TopologySpec topologies[] = {TopologySpec::random_tree(kNodes, 0),
                                       TopologySpec::geometric(kNodes, 0)};

    valid_ = true;
    cells_.clear();
    std::uint64_t scenario_seed = seed_;  // sweep_main's per-cell seeding
    auto add = [&](const Proto& p, const TopologySpec& topo, const char* fault, bool loop) {
      const std::optional<FaultSpec> f = parse_fault_spec(fault);
      valid_ = valid_ && f.has_value();
      Experiment e;
      e.protocol = p.spec;
      e.topology = topo;
      e.latency = LatencySpec::uniform_async(0, 0.1);
      e.fault = f.value_or(FaultSpec::none());
      if (loop)
        e.rounds = kRounds;
      else
        e.workload = WorkloadSpec::poisson(2048, 4.0, 0);
      e.shards = 1;
      e = e.with_seed(++scenario_seed);
      e.label = e.default_label();
      e.label.replace(0, e.label.find(' '), p.token);
      valid_ = valid_ && !validate_experiment(e).has_value();
      cells_.push_back(std::move(e));
    };
    for (const TopologySpec& topo : topologies) {
      for (const Proto& p : loops)
        for (const char* f : loop_faults) add(p, topo, f, true);
      for (const Proto& p : one_shots)
        for (const char* f : one_shot_faults) add(p, topo, f, false);
    }
  }

  std::int64_t run_once() override {
    last_ = run_replicated(cells_, ReplicationSpec{kReplicas, seed_, 0.95}, SweepRunner(kThreads));
    return ops(last_);
  }

  void check_last(Oracle& o) override {
    if (reference_.empty()) {
      o.check(valid_, "fault_sweep: every cell parses and validates");
      perfbench::check_sweep(o, cells_, last_, kReplicas);
      reference_ = last_;
      return;
    }
    o.check(same_as_reference(last_), "fault_sweep: repeat sweep reproduces the first");
  }

  void final_checks(Oracle& o) override { rt_.final_checks(o); }

  /// run_replicated under one span; its per-cell seconds (summed over the
  /// cell's replicas) give the map's busy share and its slowest cell.
  std::int64_t traced_rep() override {
    std::int64_t n = 0;
    {
      Scope map("sweep.map");
      n = run_once();
    }
    for (std::size_t i = 0; i < last_.size(); ++i) {
      traced_cell_s_ += last_[i].seconds;
      if (last_[i].seconds > max_cell_s_) {
        max_cell_s_ = last_[i].seconds;
        max_cell_ = i;
      }
    }
    return n;
  }

  void decompose(Oracle& o, LayerValues& m) override {
    std::int64_t edges = 0;
    bool reproduced = true;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      phase("decomposition: fault_sweep cell");
      const int cell = static_cast<int>(i);
      Scope c("exp.cell", cell);
      RunResult whole;
      {
        Scope s("exp.run_experiment", cell);
        whole = run_experiment(cells_[i]);
      }
      const RunResult parts = decomposed_run(cells_[i], cell, edges);
      const bool same = parts.makespan == whole.makespan &&
                        parts.total_requests == whole.total_requests &&
                        parts.messages == whole.messages && parts.total_hops == whole.total_hops &&
                        parts.messages_dropped == whole.messages_dropped;
      if (!same) std::fprintf(stderr, "decomposition differs on %s\n", cells_[i].label.c_str());
      reproduced = reproduced && same;
    }
    o.check(reproduced, "fault_sweep: the decomposed layer calls reproduce run_experiment");

    const std::vector<perfbench::Span> spans = perfbench::tracer().spans();
    const std::vector<double> self = perfbench::self_times(spans);
    auto layer = [&](const char* name) { return perfbench::total_self(spans, self, name); };
    const char* parts[] = {"graph.build_graph", "graph.build_tree", "graph.apsp",
                           "workload.build",    "proto.validate",   "apps.token",
                           "arrow.loop",        "arrow.one_shot",   "baseline.forwarding_loop",
                           "baseline.forwarding", "baseline.centralized_loop", "exp.twin"};
    double decomposed = 0.0;
    for (const char* p : parts) decomposed += layer(p);
    const double whole = layer("exp.run_experiment");
    const double twin = layer("exp.twin");
    m["exp.run_experiment_s"] = whole;
    m["exp.overhead_s"] = whole - decomposed;
    m["exp.twin_s"] = twin;
    m["exp.twin_frac"] = whole > 0.0 ? twin / whole : 0.0;
    for (const char* p : parts)
      if (std::strcmp(p, "exp.twin") != 0) m[std::string(p) + "_s"] = layer(p);
    m["graph.edges"] = static_cast<double>(edges);
    // Each cell's decomposition runs right after its run_experiment call, so
    // host speed drifts hit both sums alike.
    const double covered = whole > 0.0 ? decomposed / whole : 0.0;
    std::printf("reconcile: decomposed layer calls cover %.1f%% of run_experiment\n",
                100.0 * covered);
    o.check(std::abs(covered - 1.0) < kReconcileTolerance,
            perfbench::fmt("fault_sweep: layer calls reconcile with run_experiment within 10%",
                           covered));

    // Counters from the results themselves (every replica of the first,
    // checked sweep).
    double msgs = 0, dropped = 0, backlog = 0, base_msgs = 0, base_reqs = 0;
    double stab = 0, corr = 0, resel = 0, loop_hops = 0, loop_reqs = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Protocol kind = cells_[i].protocol.kind;
      for (const RunResult& r : reference_[i].result.runs) {
        msgs += static_cast<double>(r.messages);
        dropped += static_cast<double>(r.messages_dropped);
        backlog += static_cast<double>(r.partition_backlog_drained);
        if (kind == Protocol::kCentralized || kind == Protocol::kPointerForwarding) {
          base_msgs += static_cast<double>(r.messages);
          base_reqs += static_cast<double>(r.total_requests);
        } else {
          stab += r.stabilize_rounds;
          corr += r.stabilize_corrections;
          resel += r.reselections;
        }
        if (kind == Protocol::kArrowClosedLoop) {
          loop_hops += static_cast<double>(r.total_hops);
          loop_reqs += static_cast<double>(r.total_requests);
        }
      }
    }
    m["fault.dropped_frac"] = dropped / msgs;
    m["fault.partition_backlog"] = backlog;
    m["baseline.msgs_per_op"] = base_msgs / base_reqs;
    m["arrow.stabilize_rounds"] = stab;
    m["arrow.stabilize_corrections"] = corr;
    m["arrow.reselections"] = resel;
    m["arrow.tree_msgs_per_op"] = loop_hops / loop_reqs;

    const std::vector<double> maps = perfbench::durations(spans, "sweep.map");
    double map_sum = 0.0;
    for (double x : maps) map_sum += x;
    m["sweep.map_s"] = median(maps);
    m["sweep.busy_frac"] = map_sum > 0.0 ? traced_cell_s_ / (map_sum * kThreads) : 0.0;
    m["sweep.max_cell_s"] = max_cell_s_;
    std::printf("slowest sweep cell (replicas summed): %s (%.4f s)\n",
                cells_[max_cell_].label.c_str(), max_cell_s_);
    rt_.decompose(o, m);
  }

  int threads_used() const override { return kThreads; }

 private:
  static constexpr NodeId kNodes = 512;
  static constexpr std::int64_t kRounds = 100;  // sweep_main's default --reqs
  static constexpr int kReplicas = 2;
  static constexpr double kReconcileTolerance = 0.10;

  static constexpr int kThreads = 1;

  static std::int64_t ops(const std::vector<ReplicatedExperimentResult>& cells) {
    std::int64_t n = 0;
    for (const ReplicatedExperimentResult& c : cells)
      for (const RunResult& r : c.result.runs) n += r.total_requests;
    return n;
  }

  bool same_as_reference(const std::vector<ReplicatedExperimentResult>& cells) const {
    if (cells.size() != reference_.size()) return false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::vector<RunResult>& a = cells[i].result.runs;
      const std::vector<RunResult>& b = reference_[i].result.runs;
      if (a.size() != b.size()) return false;
      for (std::size_t r = 0; r < a.size(); ++r)
        if (!perfbench::same_observables(a[r], b[r])) return false;
    }
    return true;
  }

  const std::uint64_t seed_;
  std::vector<Experiment> cells_;
  bool valid_ = false;
  std::vector<ReplicatedExperimentResult> last_;
  std::vector<ReplicatedExperimentResult> reference_;  // the first (checked) sweep
  double traced_cell_s_ = 0.0;  // summed cell seconds over the traced maps
  double max_cell_s_ = 0.0;     // slowest cell of any traced map
  std::size_t max_cell_ = 0;
  RtMutex rt_;  // the runtime pass, outside the timed region
};

// fig10_async bands: across seeds hops/op sits at 1.710-1.716 and the mean
// round latency at 1.413-1.417 units; the bands leave room for a change in
// how latencies are drawn but not for a protocol that routes differently.
constexpr Band kAsyncHops{1.5, 1.95};
constexpr Band kAsyncRoundLatency{1.2, 1.65};

// Pinned observables of the RNG-free fig10_sync cell.
constexpr perfbench::Fig10SyncPins kFig10SyncPins{4194304, 47232, 9063591, 6126447};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fig10_sync")
    return std::make_unique<Fig10>(20, 4, LatencySpec::synchronous(), 0, seed, kFig10SyncPins,
                                   Band{}, Band{});
  // fig10_async's traced run also times the sharded engine on its cell, so
  // the sim/parallel layer is measured without a sharded workload.
  if (name == "fig10_async")
    return std::make_unique<Fig10>(14, 64, LatencySpec::truncated_exp(0, 0.3), 2, seed,
                                   std::nullopt, kAsyncHops, kAsyncRoundLatency);
  if (name == "fault_sweep") return std::make_unique<FaultSweep>(seed);
  if (name == "rt_mutex") return std::make_unique<RtMutex>();
  return nullptr;
}

// --- self-tests -----------------------------------------------------------

/// Feed the oracle good and corrupted results; every corruption must be
/// counted as a failure and every good result must pass.
int run_selftest() {
  int wrong = 0;
  auto expect = [&](const char* what, bool should_fail, auto&& body) {
    Oracle o;
    body(o);
    const bool failed = o.failed() > 0;
    if (failed != should_fail) ++wrong;
    std::printf("selftest: %-58s %s\n", what,
                failed == should_fail ? (failed ? "caught" : "passed") : "WRONG");
  };

  RunResult sync;
  sync.total_requests = kFig10SyncPins.requests;
  sync.makespan = kFig10SyncPins.makespan;
  sync.messages = kFig10SyncPins.messages;
  sync.total_hops = kFig10SyncPins.hops;
  expect("fig10_sync pinned result", false,
         [&](Oracle& o) { perfbench::check_fig10_sync(o, sync, kFig10SyncPins); });
  RunResult late = sync;
  late.makespan += 1;
  expect("fig10_sync makespan one tick late", true,
         [&](Oracle& o) { perfbench::check_fig10_sync(o, late, kFig10SyncPins); });
  RunResult lost = sync;
  lost.messages -= 1;
  expect("fig10_sync one message lost", true,
         [&](Oracle& o) { perfbench::check_fig10_sync(o, lost, kFig10SyncPins); });

  // A real small closed loop under random latency and its corruptions.
  Experiment loop_cell;
  loop_cell.protocol = ProtocolSpec::arrow_closed_loop(kService);
  loop_cell.topology = TopologySpec::hypercube(8);
  loop_cell.latency = LatencySpec::truncated_exp(7, 0.3);
  loop_cell.rounds = 4;
  loop_cell.label = "selftest loop";
  const RunResult loop = run_experiment(loop_cell);
  const Band hops{0.01, 20.0}, lat{0.01, 1000.0};
  expect("closed loop invariants", false, [&](Oracle& o) {
    perfbench::check_closed_loop(o, "loop", loop, 256 * 4, hops, lat);
  });
  RunResult short_loop = loop;
  short_loop.total_requests -= 1;
  expect("closed loop missing one request", true, [&](Oracle& o) {
    perfbench::check_closed_loop(o, "loop", short_loop, 256 * 4, hops, lat);
  });
  RunResult far = loop;
  far.avg_hops_per_request = 25.0;
  expect("closed loop hops/op outside its band", true, [&](Oracle& o) {
    perfbench::check_closed_loop(o, "loop", far, 256 * 4, hops, lat);
  });
  RunResult drop = loop;
  drop.messages_dropped = 1;
  expect("fault-free closed loop reporting a drop", true, [&](Oracle& o) {
    perfbench::check_closed_loop(o, "loop", drop, 256 * 4, hops, lat);
  });
  expect("bit-identical repeat", false,
         [&](Oracle& o) { perfbench::check_identical(o, loop, loop, "repeat"); });
  RunResult drift = loop;
  drift.avg_round_latency_units = std::nextafter(drift.avg_round_latency_units, 1e9);
  expect("repeat drifting by one ulp", true,
         [&](Oracle& o) { perfbench::check_identical(o, drift, loop, "repeat"); });

  // A fault-sweep style cell (loss on a materialized random tree).
  Experiment lossy;
  lossy.protocol = ProtocolSpec::arrow_closed_loop(kService);
  lossy.topology = TopologySpec::random_tree(32, 3);
  lossy.latency = LatencySpec::uniform_async(5, 0.1);
  lossy.fault = FaultSpec::loss(0.05);
  lossy.rounds = 20;
  lossy.label = "selftest lossy";
  const RunResult lossy_run = run_experiment(lossy);
  expect("sweep run with loss", false,
         [&](Oracle& o) { perfbench::check_sweep_run(o, lossy, lossy_run); });
  RunResult no_drops = lossy_run;
  no_drops.messages_dropped = 0;
  expect("sweep run whose loss dropped nothing", true,
         [&](Oracle& o) { perfbench::check_sweep_run(o, lossy, no_drops); });
  RunResult extra = lossy_run;
  extra.total_requests += 1;
  expect("sweep run with an extra request", true,
         [&](Oracle& o) { perfbench::check_sweep_run(o, lossy, extra); });

  // Arrow loops under each topology fault, and copies in which the fault
  // left no trace, as if its handling had been skipped.
  auto faulty = [&](ProtocolSpec protocol, const char* fault) {
    Experiment e = lossy;
    e.protocol = protocol;
    e.topology = TopologySpec::random_tree(64, 3);
    e.rounds = 100;
    e.fault = *parse_fault_spec(fault);
    e.label = std::string("selftest ") + fault;
    return e;
  };
  const ProtocolSpec arrow_loop = ProtocolSpec::arrow_closed_loop(kService);
  const Experiment crash_cell = faulty(arrow_loop, "crash:2");
  const Experiment cut_cell = faulty(arrow_loop, "partition:2:4:8");
  const Experiment churn_cell = faulty(arrow_loop, "churn:8");
  const RunResult crash_run = run_experiment(crash_cell);
  const RunResult cut_run = run_experiment(cut_cell);
  const RunResult churn_run = run_experiment(churn_cell);
  expect("sweep runs under crash, partition and churn", false, [&](Oracle& o) {
    perfbench::check_sweep_run(o, crash_cell, crash_run);
    perfbench::check_sweep_run(o, cut_cell, cut_run);
    perfbench::check_sweep_run(o, churn_cell, churn_run);
  });
  RunResult no_recovery = crash_run;
  no_recovery.stabilize_rounds = 0;
  no_recovery.stabilize_corrections = 0;
  expect("crash run whose recovery never ran", true,
         [&](Oracle& o) { perfbench::check_sweep_run(o, crash_cell, no_recovery); });
  RunResult no_cut = cut_run;
  no_cut.partitions = 0;
  expect("partition run that applied no cut", true,
         [&](Oracle& o) { perfbench::check_sweep_run(o, cut_cell, no_cut); });
  RunResult no_churn = churn_run;
  no_churn.reselections = 0;
  expect("churn run that re-selected nothing", true,
         [&](Oracle& o) { perfbench::check_sweep_run(o, churn_cell, no_churn); });
  const std::vector<Experiment> baseline_churn = {
      faulty(ProtocolSpec::centralized(0, kService), "churn:8"),
      faulty(ProtocolSpec::pointer_forwarding(ForwardingMode::kCompressToRequester, kService),
             "churn:8")};
  std::vector<ReplicatedExperimentResult> churned =
      run_replicated(baseline_churn, ReplicationSpec{2, 5, 0.95});
  expect("baseline churn sweep", false,
         [&](Oracle& o) { perfbench::check_sweep(o, baseline_churn, churned, 2); });
  for (RunResult& r : churned[0].result.runs) r.recovery_delta_units = 0.0;
  expect("baseline churn that never moved a makespan", true,
         [&](Oracle& o) { perfbench::check_sweep(o, baseline_churn, churned, 2); });

  // A real recorded runtime run and corrupted copies of its history.
  Experiment rt_cell;
  rt_cell.protocol = ProtocolSpec::arrow_closed_loop(kService);
  rt_cell.topology = TopologySpec::hypercube(6);
  rt_cell.rounds = 8;
  rt::RtConfig rc;
  rc.threads = capped(2);
  rc.rounds_per_node = 8;
  const rt::RtResult rt_run = rt::run_runtime(rt::rt_tree_for(rt_cell), rc);
  const rt::CheckSpec spec{64, 8, rt::RtApp::kMutex};
  expect("runtime run and its history", false, [&](Oracle& o) {
    perfbench::check_rt_run(o, rt_run, 64 * 8, Band{0.01, 7.0});
    perfbench::check_rt_history(o, rt_run.history, spec);
  });
  rt::RtResult short_rt = rt_run;
  short_rt.ops -= 1;
  expect("runtime run missing one op", true,
         [&](Oracle& o) { perfbench::check_rt_run(o, short_rt, 64 * 8, Band{0.01, 7.0}); });
  rt::History no_release = rt_run.history;
  for (auto it = no_release.events.rbegin(); it != no_release.events.rend(); ++it)
    if (it->kind == rt::EventKind::kRelease) {
      no_release.events.erase(std::next(it).base());
      break;
    }
  expect("history with a dropped release", true,
         [&](Oracle& o) { perfbench::check_rt_history(o, no_release, spec); });
  // Swap the stamps of one request's acquire and its predecessor's release,
  // so the two critical sections overlap.
  rt::History overlap = rt_run.history;
  auto find = [&](rt::EventKind kind, rt::RtReq req) {
    return std::find_if(overlap.events.begin(), overlap.events.end(),
                        [&](const rt::Event& ev) { return ev.kind == kind && ev.req == req; });
  };
  for (const rt::Event& ev : rt_run.history.events)
    if (ev.kind == rt::EventKind::kEnqueue && ev.aux != rt::kRtRootReq) {
      std::swap(find(rt::EventKind::kAcquire, ev.req)->stamp,
                find(rt::EventKind::kRelease, ev.aux)->stamp);
      break;
    }
  std::sort(overlap.events.begin(), overlap.events.end(),
            [](const rt::Event& a, const rt::Event& b) { return a.stamp < b.stamp; });
  expect("history with overlapping critical sections", true,
         [&](Oracle& o) { perfbench::check_rt_history(o, overlap, spec); });

  std::printf("selftest: %s\n", wrong == 0 ? "ok" : "FAILED");
  return wrong == 0 ? 0 : 1;
}

/// The first livelock reproducer (one-shot arrow, churn:8 on randtree-128,
/// exactly as `sweep_main --protocol arrow --topology randtree --nodes 128
/// --latency sync --fault churn:8 --workload poisson:512:4 --seed 2` builds
/// it). The watchdog must end the run with a failed result.
int run_watchdog_selftest(double deadline_s) {
  Oracle oracle;
  Watchdog dog(deadline_s, "selftest-watchdog", oracle);
  Experiment e;
  e.protocol = ProtocolSpec::arrow_one_shot(kService);
  e.topology = TopologySpec::random_tree(128, 0);
  e.latency = LatencySpec::synchronous();
  e.fault = *parse_fault_spec("churn:8");
  e.workload = WorkloadSpec::poisson(512, 4.0, 0);
  e = e.with_seed(3);  // sweep_main --seed 2 seeds its first cell with 3
  phase("run_experiment on the one-shot arrow churn:8 livelock reproducer");
  run_experiment(e);
  std::fprintf(stderr, "selftest-watchdog: the reproducer finished; the watchdog never fired\n");
  return 3;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S --trace 0|1 "
               "[--deadline S]\n"
               "       perfbench_harness --selftest | --selftest-watchdog [--deadline S]\n"
               "  NAME: fig10_sync | fig10_async | fault_sweep | rt_mutex\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  now_s();  // start the clock
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double deadline = 170.0;
  bool selftest = false, selftest_watchdog = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--selftest-watchdog") {
      selftest_watchdog = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (a == "--deadline") {
      deadline = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }
  if (selftest) return run_selftest();
  if (selftest_watchdog) return run_watchdog_selftest(deadline);

  std::unique_ptr<Workload> w = make_workload(workload, seed);
  if (!w || !(seconds > 0.0) || (trace != 0 && trace != 1) || !(deadline > 0.0)) return usage();

  Oracle oracle;
  Watchdog dog(deadline, workload.c_str(), oracle);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "hardware_concurrency=%u threads_used=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds, trace, nproc(),
              std::thread::hardware_concurrency(), w->threads_used());

  // Set-up, repeated so its median is steady: batches of back-to-back
  // set-ups lasting at least 1 ms each, with no clock read inside a batch (a
  // fig10 set-up takes well under a microsecond, not much more than a clock
  // read). More batches run after every timed repetition, so the median
  // samples the host over the whole run rather than its first milliseconds.
  // Set-up is deterministic; the last one stays in force.
  phase("setup");
  auto setup_batch = [&](int n) {
    const double t0 = now_s();
    for (int i = 0; i < n; ++i) w->setup();
    return now_s() - t0;
  };
  int per_batch = 1;
  while (setup_batch(per_batch) < 1e-3) per_batch *= 2;
  std::vector<double> setup_s;
  auto time_setup = [&](int batches) {
    for (int i = 0; i < batches; ++i) setup_s.push_back(setup_batch(per_batch) / per_batch);
  };
  time_setup(kSetupBatches);

  // Warm-up: the first result is the one every check compares against.
  phase("warm-up run");
  w->run_once();
  w->check_last(oracle);

  LayerValues values;
  std::vector<MetricDef> defs;
  if (trace == 0) {
    phase("timed repetitions");
    std::vector<double> rates;
    const double begin = now_s();
    while (static_cast<int>(rates.size()) < kMinReps || now_s() - begin < seconds) {
      const double t0 = now_s();
      const std::int64_t ops = w->run_once();
      rates.push_back(static_cast<double>(ops) / (now_s() - t0));
      w->check_last(oracle);
      time_setup(kSetupBatchesPerRep);
    }
    // Read before the untimed final checks, which may allocate more.
    const double rss_mib = peak_rss_bytes() / (1024.0 * 1024.0);
    w->final_checks(oracle);
    std::printf("timed repetitions: %zu, ops/s min %.6g median %.6g max %.6g\n", rates.size(),
                *std::min_element(rates.begin(), rates.end()), median(rates),
                *std::max_element(rates.begin(), rates.end()));
    defs = {{"setup_s", "s"}, {"queue_ops_per_s", "ops/s"}, {"peak_rss_mb", "MiB"}};
    values["setup_s"] = median(setup_s);
    values["queue_ops_per_s"] = median(rates);
    values["peak_rss_mb"] = rss_mib;
  } else {
    // Untraced repetitions first (the overhead baseline), then the traced
    // repetitions and the decomposition under one root span.
    phase("untraced repetitions");
    std::vector<double> plain;
    const double begin = now_s();
    while (static_cast<int>(plain.size()) < kMinReps || now_s() - begin < seconds / 2) {
      const double t0 = now_s();
      w->run_once();
      plain.push_back(now_s() - t0);
      w->check_last(oracle);
    }
    perfbench::tracer().enable();
    std::vector<double> traced;
    int root = -1;
    {
      Scope all("traced");
      root = all.id();
      phase("traced repetitions");
      for (std::size_t i = 0; i < plain.size(); ++i) {
        const double t0 = now_s();
        w->traced_rep();
        traced.push_back(now_s() - t0);
        w->check_last(oracle);
      }
      w->decompose(oracle, values);
    }
    w->final_checks(oracle);
    const std::vector<perfbench::Span> spans = perfbench::tracer().spans();
    values["trace.overhead_frac"] = median(traced) / median(plain) - 1.0;
    values["trace.unattributed_frac"] = perfbench::unattributed_frac(spans, root);
    values["hw.nproc"] = nproc();
    values["hw.hardware_concurrency"] = std::thread::hardware_concurrency();
    values["hw.threads_used"] = w->threads_used();
    std::printf("spans recorded: %zu\n", spans.size());
    defs.assign(std::begin(kLayerMetrics), std::end(kLayerMetrics));
  }
  phase("report");
  print_result(oracle, defs, values);
  return oracle.failed() == 0 ? 0 : 1;
}
