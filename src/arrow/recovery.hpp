// Crash, partition and churn recovery for the arrow drivers, written once.
//
// Both arrow drivers (arrow/one_shot_driver.hpp, arrow/loop_driver.hpp) hold
// one ArrowRecovery when they run on the serial engine with a live fault
// filter; it rewrites the driver's link/tail vectors in place. The recovery
// is a simplified Herlihy-Tirthapura self-stabilizing layer
// (arrow/stabilize.hpp) on top of the path-reversal dynamics:
//
//  * Crash: each window corrupts the victim's pointer (a spurious sink, an
//    arbitrary pointer, or its parent in the caller's tree — which can close
//    a cycle with a child), bumps the message epoch and runs the global
//    wave: a SelfStabilizer pass re-points every arrow toward the anchor (the
//    request root), and the anchor adopts the pending tail of the smallest
//    pre-wave sink so queuing resumes behind a live request. Tails parked at
//    other sinks are forfeited (their successor chains are severed — the
//    cost the simplification accepts).
//  * Stale messages: a queue message from an older epoch was routing through
//    pointer state the wave rebuilt, so it is *absorbed* at the live sink
//    instead of path-reversing. The driver queues it behind that sink's tail
//    (the one-shot driver advances the tail to the end of the stale
//    request's successor chain, so the spliced segment rejoins the queue;
//    the closed loop answers the requester directly).
//  * Partition: a window severs the edge above a cut node. At onset the
//    epoch bumps once and each side that holds a pre-onset sink is
//    stabilized toward its side anchor (the cut root for the isolated
//    subtree, the anchor for the remainder), which adopts the side's
//    smallest pre-onset tail. A side with no sink stays frozen: its traffic
//    queues at the cut, and its stale messages park until the heal. While a
//    window is open the absorb-time sink scan stays on the receiver's side
//    of the cut — bookkeeping never teleports across a severed edge. At heal
//    the global wave merges the two pointer regimes; the filter drains the
//    cross-cut backlog at the same instant in FIFO send order, and it
//    absorbs as stale traffic.
//  * Churn: a departing victim is spliced out by the deterministic
//    re-selection (its pointer resets to its anchored-tree parent) and the
//    global wave re-centers the queue. The filter's node-down window covers
//    its absence; on rejoin its state is already consistent.
//
// Every wave leaves exactly one sink (the anchor, or one per live side while
// a cut is open) holding a real pending tail, so quiescence always ends with
// a unique sink. Windows are scheduled one at a time: crash, partition and
// churn open at t0 in that order, and each handler schedules the next window
// of its schedule (a partition schedules its heal). No new window opens once
// the driver reports its run finished, but a pending heal still merges.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arrow/stabilize.hpp"
#include "graph/tree.hpp"
#include "sim/fault.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace arrowdq {

enum class RecoveryWave : std::uint8_t { kCrash, kPartition, kHeal, kChurn };

/// Window k of the schedule behind `wave` (kHeal closes partition window k).
struct RecoveryStep {
  RecoveryWave wave = RecoveryWave::kCrash;
  std::uint32_t k = 0;
};

/// The one recovery event both arrow drivers schedule: it hands the step to
/// the driver, which applies it through its ArrowRecovery with its own
/// liveness test and schedules the follow-up step.
template <typename Driver>
struct RecoveryEvent {
  Driver* driver;
  RecoveryStep step;
  void operator()() const { driver->recover(step); }
};

/// What a driver holds instead of an ArrowRecovery where no wave can run
/// (fault-free, or on the sharded engine).
struct NoRecovery {};

/// Recovery work done during a run (all zero fault-free).
struct RecoveryCounters {
  int stabilize_rounds = 0;
  int stabilize_corrections = 0;
  std::int32_t crashes = 0;
  std::int32_t partitions = 0;  // windows that opened
  std::int32_t reselections = 0;  // churn splices applied
};

/// Where a stale message absorbs: `sink`, or — when the receiver's side of
/// an open cut has no sink — nowhere yet (kNoNode): park it until
/// `park_until`, the heal instant.
struct AbsorbSite {
  NodeId sink = kNoNode;
  Time park_until = 0;
};

/// Recovery state and waves over a driver's `link` (pointer) and `last_req`
/// (pending tail) vectors. The schedules are the filter's; setup remaps each
/// partition cut and churn victim to a legal node and installs the real
/// cut masks in the filter. `tree` is the caller's tree (crash corruption
/// reads it); the waves converge to `tree` re-rooted at `anchor`. All
/// references must outlive the recovery.
class ArrowRecovery {
 public:
  ArrowRecovery(const Tree& tree, NodeId anchor, FaultFilter& filter, std::vector<NodeId>& link,
                std::vector<RequestId>& last_req);

  /// The epoch current-wave messages carry; older ones are stale.
  std::int32_t epoch() const { return epoch_; }
  const RecoveryCounters& counters() const { return counters_; }

  /// The first window of each non-empty schedule: crash, partition, churn.
  std::vector<RecoveryStep> first_steps() const;
  /// The instant `step` fires.
  Time at(RecoveryStep step) const;
  /// Apply `step`; `live` is false once the run has finished. Returns the
  /// step to schedule next, if any.
  std::optional<RecoveryStep> apply(RecoveryStep step, bool live);

  /// The absorb-time sink scan for a stale message arriving at `at` at
  /// `now`: the first sink on the receiver's side of an open cut, else the
  /// smallest live sink. The sink's pending tail is a real request.
  AbsorbSite absorb_site(NodeId at, Time now) const;

 private:
  /// The pre-wave sink landscape: the smallest live sink (whose tail the
  /// anchor adopts) and whether the anchor already is one.
  struct SinkSnapshot {
    NodeId first_sink = kNoNode;
    bool anchor_was_sink = false;
  };

  SinkSnapshot snapshot_sinks() const;
  void global_wave(SinkSnapshot pre);
  void crash(NodeId victim);
  void partition_onset(std::size_t k);
  void churn(NodeId victim);
  void add(const StabilizeResult& res);

  const Tree& tree_;
  NodeId anchor_;
  FaultFilter& filter_;
  std::vector<NodeId>& link_;
  std::vector<RequestId>& last_req_;
  std::int32_t epoch_ = 0;
  Rng crash_rng_;
  std::optional<SelfStabilizer> stab_;  // built only when a schedule is non-empty
  RecoveryCounters counters_;
};

/// The epoch a driver's messages carry: 0 where no recovery can run.
inline std::int32_t epoch_of(const NoRecovery&) { return 0; }
inline std::int32_t epoch_of(const std::optional<ArrowRecovery>& rec) { return rec->epoch(); }

}  // namespace arrowdq
