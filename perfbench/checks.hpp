// Correctness oracle for the benchmark: every check it makes is counted as
// attempted, every violation as failed, and failed / attempted is the run's
// failed_frac.
//
// Exact observables are pinned only for RNG-free cells (fig10_sync). Cells
// with random latency or seeded topologies are checked by invariants —
// request counts, hop and latency bands, fault counters that must be zero,
// and bit-identity between runs that must agree — so a change to how the
// library draws random numbers does not trip the benchmark.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/replication.hpp"
#include "rt/history.hpp"
#include "rt/runtime.hpp"

namespace perfbench {

using arrowdq::RunResult;

class Oracle {
 public:
  /// Count one check; report and count it as failed when !ok.
  bool check(bool ok, const std::string& what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
  }
  std::int64_t attempted() const { return attempted_.load(std::memory_order_relaxed); }
  std::int64_t failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  // Atomic so the watchdog thread can read a consistent count at any time.
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
};

struct Band {
  double lo = 0.0;
  double hi = 0.0;
  bool holds(double x) const { return std::isfinite(x) && x >= lo && x <= hi; }
};

inline std::string fmt(const char* what, double value) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s (got %.17g)", what, value);
  return buf;
}

/// fig10_sync: implicit hypercube n = 2^20, sync latency, 4 rounds/node,
/// service = 1/16 unit. The synchronous model draws no random numbers, so
/// every observable is a constant of the protocol and is pinned exactly.
struct Fig10SyncPins {
  std::int64_t requests = 4194304;
  std::int64_t makespan = 0;
  std::uint64_t messages = 0;
  std::int64_t hops = 0;
};

inline void check_fig10_sync(Oracle& o, const RunResult& r, const Fig10SyncPins& pin) {
  o.check(r.total_requests == pin.requests, fmt("fig10_sync requests", double(r.total_requests)));
  o.check(r.makespan == pin.makespan, fmt("fig10_sync makespan ticks", double(r.makespan)));
  o.check(r.messages == pin.messages, fmt("fig10_sync messages", double(r.messages)));
  o.check(r.total_hops == pin.hops, fmt("fig10_sync tree hops", double(r.total_hops)));
}

/// A fault-free arrow closed loop under random latency: every node finishes
/// its rounds, hops/op and the mean round latency stay inside their bands,
/// and no fault counter moves.
inline void check_closed_loop(Oracle& o, const char* cell, const RunResult& r,
                              std::int64_t expected_requests, Band hops_per_op,
                              Band round_latency_units) {
  const std::string c = cell;
  o.check(r.total_requests == expected_requests,
          fmt((c + " requests").c_str(), double(r.total_requests)));
  o.check(r.messages >= static_cast<std::uint64_t>(r.total_hops) && r.total_hops >= 0,
          c + " messages cover the tree hops");
  o.check(hops_per_op.holds(r.avg_hops_per_request),
          fmt((c + " hops/op in band").c_str(), r.avg_hops_per_request));
  o.check(round_latency_units.holds(r.avg_round_latency_units),
          fmt((c + " round latency in band").c_str(), r.avg_round_latency_units));
  o.check(r.messages_dropped == 0 && r.messages_duplicated == 0 && r.stabilize_rounds == 0 &&
              r.reselections == 0 && r.partition_backlog_drained == 0,
          c + " fault counters stay zero fault-free");
}

/// Bit-identity of every observable two runs of the same scenario must
/// share (everything but the process-wide RSS reading).
inline bool same_observables(const RunResult& a, const RunResult& b) {
  return a.protocol == b.protocol && a.makespan == b.makespan &&
         a.total_requests == b.total_requests && a.messages == b.messages &&
         a.total_hops == b.total_hops && a.total_distance == b.total_distance &&
         a.total_latency == b.total_latency &&
         a.avg_hops_per_request == b.avg_hops_per_request &&
         a.avg_round_latency_units == b.avg_round_latency_units &&
         a.messages_dropped == b.messages_dropped &&
         a.messages_duplicated == b.messages_duplicated && a.crashes == b.crashes &&
         a.stabilize_rounds == b.stabilize_rounds &&
         a.stabilize_corrections == b.stabilize_corrections &&
         a.recovery_delta_units == b.recovery_delta_units && a.partitions == b.partitions &&
         a.partition_backlog_drained == b.partition_backlog_drained &&
         a.partition_delta_units == b.partition_delta_units &&
         a.reselections == b.reselections;
}

inline void check_identical(Oracle& o, const RunResult& a, const RunResult& b,
                            const std::string& what) {
  o.check(same_observables(a, b), what);
}

/// One fault-sweep run: the request count its protocol mode implies, a
/// nonzero message count, finite per-request averages, fault counters that
/// only move under the fault kinds that drive them, and a trace of every
/// fault that fired. The traces are what seeds 1-80 of fault_sweep show in
/// every one of their 320 runs per protocol and fault kind.
inline void check_sweep_run(Oracle& o, const arrowdq::Experiment& e, const RunResult& r) {
  const std::string c = e.label;
  const std::int64_t expected = e.rounds > 0
                                    ? static_cast<std::int64_t>(e.topology.nodes) * e.rounds
                                    : static_cast<std::int64_t>(e.workload.count);
  o.check(r.total_requests == expected, fmt((c + ": requests").c_str(), double(r.total_requests)));
  o.check(r.messages > 0, c + ": messages > 0");
  o.check(std::isfinite(r.avg_hops_per_request) && r.avg_hops_per_request >= 0.0,
          fmt((c + ": hops/op finite").c_str(), r.avg_hops_per_request));
  if (e.rounds > 0)
    o.check(r.avg_round_latency_units > 0.0 && std::isfinite(r.avg_round_latency_units),
            fmt((c + ": round latency positive").c_str(), r.avg_round_latency_units));
  if (!e.fault.active())
    o.check(r.messages_dropped == 0 && r.crashes == 0 && r.partitions == 0 &&
                r.partition_backlog_drained == 0 && r.stabilize_rounds == 0 &&
                r.reselections == 0 && r.recovery_delta_units == 0.0,
            c + ": fault counters zero fault-free");
  if (e.fault.message_faults() && !e.fault.has_topology_faults())
    o.check(r.messages_dropped > 0 && r.stabilize_rounds == 0 && r.reselections == 0 &&
                r.partitions == 0 && r.recovery_delta_units != 0.0,
            c + ": loss drops messages, moves the makespan and triggers no recovery");
  if (!e.fault.has_topology_faults()) return;
  o.check(r.messages_dropped == 0, c + ": a topology fault drops no message");
  if (e.fault.has_crash())
    o.check(r.crashes == e.fault.crash_count, fmt((c + ": crashes applied").c_str(), r.crashes));
  if (e.fault.has_partition())
    o.check(r.partitions == e.fault.partition_count,
            fmt((c + ": partitions applied").c_str(), r.partitions));
  if (e.protocol.kind != arrowdq::Protocol::kArrowClosedLoop) {
    // The baselines keep no tree: nothing to stabilize or re-select.
    o.check(r.stabilize_rounds == 0 && r.reselections == 0,
            c + ": a baseline runs no tree recovery");
    return;
  }
  // The arrow loop repairs its pointers after every crash, cut and churn
  // event, so the repair shows in its counters and its makespan.
  o.check(r.stabilize_rounds > 0 && r.stabilize_corrections > 0,
          fmt((c + ": recovery waves ran").c_str(), r.stabilize_rounds));
  o.check(r.recovery_delta_units != 0.0,
          fmt((c + ": the fault moved the makespan").c_str(), r.recovery_delta_units));
  if (e.fault.has_churn())
    o.check(r.reselections > 0, fmt((c + ": churn re-selected tree edges").c_str(),
                                    r.reselections));
}

/// A whole fault sweep: one result per cell with `replicas` runs, each run
/// checked on its own. A baseline's crash or cut often changes nothing a run
/// reports (the deliveries it defers are few), but churn always does
/// somewhere: in every sweep of seeds 1-80, at least one churn run of each
/// baseline ends at a different makespan than its fault-free twin.
inline void check_sweep(Oracle& o, const std::vector<arrowdq::Experiment>& cells,
                        const std::vector<arrowdq::ReplicatedExperimentResult>& results,
                        int replicas) {
  using arrowdq::Protocol;
  o.check(results.size() == cells.size(), "fault_sweep: one result per cell");
  if (results.size() != cells.size()) return;
  // Baseline churn runs per protocol (centralized, pointer forwarding): how
  // many, and how many ended at another makespan than their twin.
  int churn_runs[2] = {0, 0}, churn_moved[2] = {0, 0};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::vector<RunResult>& runs = results[i].result.runs;
    o.check(runs.size() == static_cast<std::size_t>(replicas),
            cells[i].label + ": one run per replica");
    const Protocol kind = cells[i].protocol.kind;
    const bool baseline_churn =
        cells[i].fault.has_churn() &&
        (kind == Protocol::kCentralized || kind == Protocol::kPointerForwarding);
    const int b = kind == Protocol::kCentralized ? 0 : 1;
    for (const RunResult& r : runs) {
      check_sweep_run(o, cells[i], r);
      if (!baseline_churn) continue;
      ++churn_runs[b];
      if (r.recovery_delta_units != 0.0) ++churn_moved[b];
    }
  }
  const char* names[2] = {"centralized", "forwarding"};
  for (int b = 0; b < 2; ++b)
    if (churn_runs[b] > 0)
      o.check(churn_moved[b] > 0, std::string("fault_sweep: churn moves some makespan of ") +
                                      names[b] + " (" + std::to_string(churn_runs[b]) +
                                      " churn runs)");
}

/// One runtime run: every node completed its rounds, each acquire was
/// granted by exactly one token transfer, and hops/op stays in band.
inline void check_rt_run(Oracle& o, const arrowdq::rt::RtResult& r, std::int64_t expected_ops,
                         Band hops_per_op) {
  o.check(r.ops == expected_ops, fmt("rt ops", double(r.ops)));
  o.check(r.token_messages == static_cast<std::uint64_t>(r.ops),
          fmt("rt token transfers == ops", double(r.token_messages)));
  o.check(hops_per_op.holds(r.hops_per_op()), fmt("rt hops/op in band", r.hops_per_op()));
}

inline void check_rt_history(Oracle& o, const arrowdq::rt::History& h,
                             const arrowdq::rt::CheckSpec& spec) {
  const arrowdq::rt::CheckResult res = arrowdq::rt::check_history(h, spec);
  o.check(res.ok, "rt history: " + (res.ok ? std::string("ok") : res.error));
}

}  // namespace perfbench
