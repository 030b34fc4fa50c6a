// Deterministic fault injection for the message network.
//
// A FaultSpec is a value-type description of a seeded fault schedule:
// message loss (drop + timeout-retransmit), duplication, reorder-flavoured
// latency jitter, link latency spikes, and node crash + recovery. It is a
// first-class scenario axis — `Experiment::fault`, the `--fault` sweep axis
// and the JSON emission all carry it — and it composes with every latency
// model because faults apply *after* the latency draw.
//
// Injection point: the FaultFilter rides the Network's statically dispatched
// send path as a fourth template parameter. `NoFaults` (the default) has
// `kActive == false`, so the fault branch is compiled out entirely and the
// fault-free hot path is bit-identical to the pre-fault core — all golden
// hashes pin this.
//
// Semantics, chosen so every protocol still terminates:
//  * loss: a dropped copy is re-sent after a timeout of `retry_units`; the
//    observable effect is extra delay (drops are capped, so a message is
//    never lost forever — the paper's protocols assume reliable delivery).
//  * duplicate: the transport delivers one copy (the protocols are not
//    idempotent) but the duplicate occupies the link, pushing the FIFO
//    horizon of its edge — duplication shows up as congestion.
//  * jitter / spike: extra or multiplied latency. Per-edge FIFO clamping
//    still holds, so link order is preserved (the paper's FIFO model).
//  * crash: at deterministic schedule points a victim node goes down for a
//    window; deliveries that would land inside the window are deferred to
//    its end. The arrow drivers additionally corrupt the victim's pointer
//    state and run a SelfStabilizer recovery wave (see arrow/recovery.hpp).
//  * partition: a seeded cut isolates a subtree for a window. Messages that
//    would cross the cut are queued, not dropped: the send is deferred to
//    the heal instant, and the per-edge FIFO horizon moves with it, so the
//    backlog drains in send order on heal. The arrow drivers run an epoch +
//    SelfStabilizer reconciliation per side at onset and merge the pointer
//    state with a global wave at heal; baselines degrade gracefully through
//    the filter's victim-isolation fallback (the cut root is unreachable
//    for the window).
//  * churn: nodes leave and rejoin mid-run at a seeded rate. A departed
//    node's deliveries defer until it rejoins; the arrow drivers splice its
//    tree edges with a deterministic re-selection (pointer reset toward the
//    anchor) hooked through the same recovery wave crashes use.
//
// Determinism: the filter derives every draw from `FaultSpec::seed` via the
// project Rng, and each simulation run owns its filter, so results are
// bit-identical across sweep thread counts and across runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/random.hpp"
#include "support/types.hpp"

namespace arrowdq {

enum class FaultKind : std::uint8_t {
  kNone,
  kLoss,
  kDuplicate,
  kJitter,
  kSpike,
  kCrash,
  kPartition,  // seeded cut windows; cross-cut messages queue until heal
  kChurn,      // seeded leave/rejoin events with deterministic re-selection
  kChaos,      // every fault kind at once, moderate rates
};

/// One node-down window of a crash schedule: `victim` is unavailable during
/// [at, up_at) — deliveries landing inside are deferred to up_at.
struct CrashEventSpec {
  Time at = 0;
  Time up_at = 0;
  NodeId victim = kNoNode;
};

struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  double loss_prob = 0.0;          // per-message drop probability
  double dup_prob = 0.0;           // per-message duplication probability
  double jitter_prob = 0.0;        // per-message extra-latency probability
  double jitter_max_units = 1.0;   // extra latency uniform in (0, max] units
  double spike_prob = 0.0;         // per-message latency-spike probability
  double spike_factor = 4.0;       // spike multiplies the sampled latency
  double retry_units = 1.0;        // retransmit timeout per dropped copy
  std::int32_t crash_count = 0;    // number of crash windows in the schedule
  double crash_downtime_units = 4.0;
  double crash_period_units = 16.0;  // window k opens at (k+1) * period
  std::int32_t partition_count = 0;  // number of seeded cut windows
  double partition_downtime_units = 8.0;
  double partition_period_units = 24.0;  // window k opens at (k+1) * period
  double churn_rate = 0.0;               // expected leave/rejoin events per 100 units
  std::uint8_t churn_leaf_only = 0;      // churn:RATE:leaf — victims restricted to leaves
  std::uint64_t seed = 0;

  bool active() const { return kind != FaultKind::kNone; }
  bool message_faults() const {
    return loss_prob > 0.0 || dup_prob > 0.0 || jitter_prob > 0.0 || spike_prob > 0.0;
  }
  bool has_crash() const { return crash_count > 0; }
  bool has_partition() const { return partition_count > 0; }
  bool has_churn() const { return churn_rate > 0.0; }
  /// Any schedule that rewrites pointer/topology state mid-run (crash
  /// recovery, partition reconciliation, churn re-selection). These need a
  /// materialized tree and cannot run sharded — the waves are global
  /// pointer rewrites.
  bool has_topology_faults() const { return has_crash() || has_partition() || has_churn(); }
  const char* name() const;

  /// Copy with every topology-fault schedule removed (message faults kept):
  /// crashes, partitions, and churn all fork or re-center the queue order.
  /// The token baseline replays an analytic arrow outcome, which cannot
  /// express such a forked order, so its driver strips all three.
  FaultSpec without_crash() const;

  static FaultSpec none() { return FaultSpec{}; }
  static FaultSpec loss(double p);
  static FaultSpec duplicate(double p);
  static FaultSpec jitter(double p, double max_units = 1.0);
  static FaultSpec spike(double p, double factor = 4.0);
  static FaultSpec crash(std::int32_t count, double downtime_units = 4.0,
                         double period_units = 16.0);
  static FaultSpec partition(std::int32_t count, double downtime_units = 8.0,
                             double period_units = 24.0);
  static FaultSpec churn(double rate, bool leaf_only = false);
  static FaultSpec chaos();
};

/// Parse a CLI fault token:
///   none | loss:P | dup:P | jitter:P[:MAXU] | spike:P[:F]
///        | crash:N[:DOWNU[:PERIODU]] | partition:CUTS:DOWNU[:PERIODU]
///        | churn:RATE[:KIND] | chaos
/// Probabilities must lie in (0, 1]; counts and unit spans must be positive;
/// KIND is `any` or `leaf`. Numeric fields use a strict decimal grammar
/// (digits with an optional fraction): the whole token must be consumed, so
/// residue like `0x4`, `1e2`, or a sign prefix is rejected rather than
/// silently reinterpreted by strtod.
std::optional<FaultSpec> parse_fault_spec(const std::string& token);

/// The deterministic crash schedule implied by a spec on an n-node system:
/// window k opens at (k+1) * crash_period_units, lasts crash_downtime_units,
/// and hits a seed-derived victim. Sorted by open time.
std::vector<CrashEventSpec> crash_schedule(const FaultSpec& spec, NodeId node_count);

/// The deterministic partition schedule: window k opens at
/// (k+1) * partition_period_units, lasts partition_downtime_units, and the
/// seed-derived victim is the cut root (the arrow drivers remap it off the
/// anchor and install the real subtree membership; the filter's fallback
/// isolates the victim node alone).
std::vector<CrashEventSpec> partition_schedule(const FaultSpec& spec, NodeId node_count);

/// The deterministic churn schedule: events every 100 / churn_rate units
/// (capped at kMaxChurnEvents windows), each taking a seed-derived victim
/// down for one inter-event gap before it rejoins.
std::vector<CrashEventSpec> churn_schedule(const FaultSpec& spec, NodeId node_count);

inline constexpr std::size_t kMaxChurnEvents = 64;

struct FaultStats {
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  /// Messages whose delivery was queued at an active cut; every one of them
  /// drains in FIFO order at the heal instant, so this is the heal backlog.
  std::uint64_t partition_deferred = 0;
};

/// Zero-cost placeholder: `kActive == false` compiles the fault branch out
/// of the Network send path entirely.
struct NoFaults {
  static constexpr bool kActive = false;
};

/// Outcome of filtering one edge send: the adjusted latency plus whether a
/// duplicate copy also occupies the link.
struct EdgeFaultResult {
  Time latency = 0;
  bool duplicated = false;
};

/// The value-type fault filter the Network templates over when a spec is
/// active. Owns its Rng (seeded from the spec) and the crash schedule; one
/// filter per simulation run keeps every draw deterministic.
class FaultFilter {
 public:
  static constexpr bool kActive = true;

  /// Sentinel for "no partition window active" (active_partition).
  static constexpr std::size_t kNoWindow = static_cast<std::size_t>(-1);

  FaultFilter() = default;  // inert: no faults, empty schedule
  FaultFilter(const FaultSpec& spec, NodeId node_count)
      : spec_(spec),
        rng_(mix64(spec.seed ^ 0xfa017f11757ULL)),
        crashes_(crash_schedule(spec, node_count)),
        partitions_(partition_schedule(spec, node_count)),
        churns_(churn_schedule(spec, node_count)),
        retry_ticks_(std::max<Time>(1, units_to_ticks_rounded(spec.retry_units))),
        jitter_max_ticks_(std::max<Time>(1, units_to_ticks_rounded(spec.jitter_max_units))) {}

  /// Filter a send over a graph edge whose sampled latency is `lat`.
  /// Draw order (loss, dup, jitter, spike) is fixed for determinism.
  EdgeFaultResult on_edge(NodeId /*from*/, NodeId /*to*/, Time lat) {
    EdgeFaultResult r{lat, false};
    if (spec_.loss_prob > 0.0) {
      int drops = 0;
      while (drops < kMaxDrops && rng_.next_bool(spec_.loss_prob)) ++drops;
      if (drops > 0) {
        stats_.messages_dropped += static_cast<std::uint64_t>(drops);
        r.latency += drops * (retry_ticks_ + lat);
      }
    }
    if (spec_.dup_prob > 0.0 && rng_.next_bool(spec_.dup_prob)) {
      ++stats_.messages_duplicated;
      r.duplicated = true;
    }
    if (spec_.jitter_prob > 0.0 && rng_.next_bool(spec_.jitter_prob))
      r.latency += 1 + static_cast<Time>(
                           rng_.next_below(static_cast<std::uint64_t>(jitter_max_ticks_)));
    if (spec_.spike_prob > 0.0 && rng_.next_bool(spec_.spike_prob))
      r.latency = scale_latency(r.latency, spec_.spike_factor);
    return r;
  }

  /// Filter a direct (send_with_latency) message. Same fault semantics; a
  /// duplicate is counted but carries no FIFO congestion (direct messages
  /// are not clamped against a link).
  Time on_direct(NodeId from, NodeId to, Time lat) { return on_edge(from, to, lat).latency; }

  /// Node-down deferral: a delivery landing inside a crash or churn window
  /// of `to` waits for the window to close. Windows are sorted, so cascading
  /// across back-to-back windows resolves in one pass.
  Time defer(NodeId to, Time deliver) const {
    for (const CrashEventSpec& c : crashes_)
      if (c.victim == to && deliver >= c.at && deliver < c.up_at) deliver = c.up_at;
    for (const CrashEventSpec& c : churns_)
      if (c.victim == to && deliver >= c.at && deliver < c.up_at) deliver = c.up_at;
    return deliver;
  }

  /// Full edge deferral: node-down windows of `to`, plus partition windows
  /// the edge {from, to} crosses. A cut-crossing delivery is queued (not
  /// dropped) until the heal instant — the caller's FIFO horizon moves with
  /// it, so the backlog drains in send order. With installed sides the cut
  /// is the real tree bipartition; without (baselines have no tree) the
  /// fallback isolates the window's victim node alone.
  Time defer_edge(NodeId from, NodeId to, Time deliver) {
    deliver = defer(to, deliver);
    for (std::size_t k = 0; k < partitions_.size(); ++k) {
      const CrashEventSpec& p = partitions_[k];
      if (deliver < p.at || deliver >= p.up_at) continue;
      bool crosses;
      if (k < cut_side_.size() && !cut_side_[k].empty())
        crosses = cut_side_[k][static_cast<std::size_t>(from)] !=
                  cut_side_[k][static_cast<std::size_t>(to)];
      else
        crosses = p.victim != kNoNode && (from == p.victim || to == p.victim);
      if (crosses) {
        deliver = p.up_at;
        ++stats_.partition_deferred;
      }
    }
    return deliver;
  }

  /// Install the real cut for partition window k: `cut` becomes the window's
  /// victim (the cut root) and `in_cut` marks the isolated subtree (1 =
  /// inside). The arrow drivers call this once per run; an empty mask keeps
  /// the victim-isolation fallback.
  void set_partition_cut(std::size_t k, NodeId cut, std::vector<std::uint8_t> in_cut) {
    if (k >= partitions_.size()) return;
    partitions_[k].victim = cut;
    if (cut_side_.size() < partitions_.size()) cut_side_.resize(partitions_.size());
    cut_side_[k] = std::move(in_cut);
  }

  /// Re-point churn window k at a remapped victim (drivers keep the leaf or
  /// off-anchor restriction consistent with the splice they apply).
  void set_churn_victim(std::size_t k, NodeId victim) {
    if (k < churns_.size()) churns_[k].victim = victim;
  }

  /// Index of the partition window containing time t, or kNoWindow.
  std::size_t active_partition(Time t) const {
    for (std::size_t k = 0; k < partitions_.size(); ++k)
      if (t >= partitions_[k].at && t < partitions_[k].up_at) return k;
    return kNoWindow;
  }

  /// The installed cut membership of window k (empty if never installed).
  const std::vector<std::uint8_t>& partition_side(std::size_t k) const {
    static const std::vector<std::uint8_t> kEmpty;
    return k < cut_side_.size() ? cut_side_[k] : kEmpty;
  }

  const FaultStats& stats() const { return stats_; }
  const std::vector<CrashEventSpec>& crashes() const { return crashes_; }
  const std::vector<CrashEventSpec>& partitions() const { return partitions_; }
  const std::vector<CrashEventSpec>& churns() const { return churns_; }
  const FaultSpec& spec() const { return spec_; }

 private:
  // A message is retransmitted until it gets through: the cap only bounds
  // the simulated delay (P(8 straight drops) is negligible at sane rates).
  static constexpr int kMaxDrops = 8;

  static Time units_to_ticks_rounded(double units);
  static Time scale_latency(Time lat, double factor);

  FaultSpec spec_{};
  Rng rng_{0};
  std::vector<CrashEventSpec> crashes_;
  std::vector<CrashEventSpec> partitions_;
  std::vector<CrashEventSpec> churns_;
  std::vector<std::vector<std::uint8_t>> cut_side_;  // per window, 1 = cut subtree
  Time retry_ticks_ = kTicksPerUnit;
  Time jitter_max_ticks_ = kTicksPerUnit;
  FaultStats stats_;
};

/// One-time static dispatch, mirroring with_static_latency: invoke `fn`
/// with NoFaults when the spec is inactive (fault-free builds pay nothing)
/// or with a live FaultFilter otherwise.
template <typename Fn>
decltype(auto) with_fault_filter(const FaultSpec& spec, NodeId node_count, Fn&& fn) {
  if (!spec.active()) return fn(NoFaults{});
  return fn(FaultFilter(spec, node_count));
}

}  // namespace arrowdq
