#include "arrow/recovery.hpp"

#include "support/assert.hpp"

namespace arrowdq {

ArrowRecovery::ArrowRecovery(const Tree& tree, NodeId anchor, FaultFilter& filter,
                             std::vector<NodeId>& link, std::vector<RequestId>& last_req)
    : tree_(tree),
      anchor_(anchor),
      filter_(filter),
      link_(link),
      last_req_(last_req),
      crash_rng_(mix64(filter.spec().seed ^ 0xa770c4a54ULL)) {
  if (filter.crashes().empty() && filter.partitions().empty() && filter.churns().empty()) return;
  stab_.emplace(tree, anchor);
  const Tree& anchored = stab_->anchored();
  // Remap the raw seeded draws to legal victims and install the real tree
  // bipartition for each cut, so the filter defers exactly the cross-cut
  // traffic (its built-in fallback only isolates one node).
  for (std::size_t k = 0; k < filter.partitions().size(); ++k) {
    NodeId cut = remap_partition_cut(anchored, filter.partitions()[k].victim);
    if (cut != kNoNode) filter.set_partition_cut(k, cut, subtree_mask(anchored, cut));
  }
  for (std::size_t k = 0; k < filter.churns().size(); ++k)
    filter.set_churn_victim(k, remap_churn_victim(anchored, filter.churns()[k].victim,
                                                  filter.spec().churn_leaf_only != 0));
}

std::vector<RecoveryStep> ArrowRecovery::first_steps() const {
  std::vector<RecoveryStep> steps;
  if (!filter_.crashes().empty()) steps.push_back({RecoveryWave::kCrash, 0});
  if (!filter_.partitions().empty()) steps.push_back({RecoveryWave::kPartition, 0});
  if (!filter_.churns().empty()) steps.push_back({RecoveryWave::kChurn, 0});
  return steps;
}

Time ArrowRecovery::at(RecoveryStep step) const {
  switch (step.wave) {
    case RecoveryWave::kCrash: return filter_.crashes()[step.k].at;
    case RecoveryWave::kPartition: return filter_.partitions()[step.k].at;
    case RecoveryWave::kHeal: return filter_.partitions()[step.k].up_at;
    default: return filter_.churns()[step.k].at;
  }
}

std::optional<RecoveryStep> ArrowRecovery::apply(RecoveryStep step, bool live) {
  const std::uint32_t k = step.k;
  const auto next = [k](const std::vector<CrashEventSpec>& schedule,
                        RecoveryWave wave) -> std::optional<RecoveryStep> {
    if (k + 1 < schedule.size()) return RecoveryStep{wave, k + 1};
    return std::nullopt;
  };
  if (step.wave == RecoveryWave::kHeal) {
    // The merge runs even when the run has finished — quiescence must leave
    // a unique sink — but a finished run opens no further window.
    global_wave(snapshot_sinks());
    return live ? next(filter_.partitions(), RecoveryWave::kPartition) : std::nullopt;
  }
  if (!live) return std::nullopt;
  switch (step.wave) {
    case RecoveryWave::kCrash:
      crash(filter_.crashes()[k].victim);
      return next(filter_.crashes(), RecoveryWave::kCrash);
    case RecoveryWave::kPartition:
      partition_onset(k);
      return RecoveryStep{RecoveryWave::kHeal, k};
    default:
      churn(filter_.churns()[k].victim);
      return next(filter_.churns(), RecoveryWave::kChurn);
  }
}

AbsorbSite ArrowRecovery::absorb_site(NodeId at, Time now) const {
  const std::size_t w = filter_.active_partition(now);
  const auto& side = filter_.partition_side(w);  // empty outside an installed cut
  const std::uint8_t tag = side.empty() ? 0 : side[static_cast<std::size_t>(at)];
  NodeId sink = kNoNode;
  for (NodeId v = 0; v < static_cast<NodeId>(link_.size()) && sink == kNoNode; ++v) {
    auto vi = static_cast<std::size_t>(v);
    if (link_[vi] == v && (side.empty() || side[vi] == tag)) sink = v;
  }
  if (sink == kNoNode) {
    ARROWDQ_ASSERT_MSG(!side.empty(), "no sink available to absorb a stale request");
    return {kNoNode, filter_.partitions()[w].up_at};
  }
  ARROWDQ_ASSERT_MSG(last_req_[static_cast<std::size_t>(sink)] != kNoRequest,
                     "absorbing sink without a tail");
  return {sink, 0};
}

ArrowRecovery::SinkSnapshot ArrowRecovery::snapshot_sinks() const {
  SinkSnapshot s;
  for (NodeId v = 0; v < static_cast<NodeId>(link_.size()); ++v) {
    if (link_[static_cast<std::size_t>(v)] == v) {
      if (s.first_sink == kNoNode) s.first_sink = v;
      if (v == anchor_) s.anchor_was_sink = true;
    }
  }
  return s;
}

void ArrowRecovery::add(const StabilizeResult& res) {
  ARROWDQ_ASSERT_MSG(res.converged, "self-stabilization did not converge");
  counters_.stabilize_rounds += res.rounds;
  counters_.stabilize_corrections += res.corrections;
}

/// The shared global wave (crash, churn splice, partition heal): invalidate
/// every in-flight message, stabilize all pointers toward the anchor, and
/// re-center the queue tail there. `pre` is taken before the caller
/// perturbs the pointer state.
void ArrowRecovery::global_wave(SinkSnapshot pre) {
  const auto n = static_cast<NodeId>(link_.size());
  ARROWDQ_ASSERT_MSG(pre.first_sink != kNoNode, "recovery wave with no live sink");
  const RequestId adopted = last_req_[static_cast<std::size_t>(pre.first_sink)];
  ++epoch_;
  auto h = stab_->estimate_hops(link_);
  add(stab_->stabilize(link_, h, 4 * n + 8));
  // The anchor is now the unique sink. If it already was one it keeps its
  // own pending tail; otherwise it adopts the smallest pre-wave sink's.
  if (!pre.anchor_was_sink) {
    ARROWDQ_ASSERT_MSG(adopted != kNoRequest, "pre-wave sink without a tail");
    last_req_[static_cast<std::size_t>(anchor_)] = adopted;
  }
}

void ArrowRecovery::crash(NodeId victim) {
  const auto n = static_cast<NodeId>(link_.size());
  // Snapshot the pending tails before anything changes: the anchor must
  // resume from a real pending request, not a stale one.
  const SinkSnapshot pre = snapshot_sinks();
  auto wi = static_cast<std::size_t>(victim);
  switch (crash_rng_.next_below(3)) {
    case 0: link_[wi] = victim; break;
    case 1:
      link_[wi] = static_cast<NodeId>(crash_rng_.next_below(static_cast<std::uint64_t>(n)));
      break;
    default: link_[wi] = victim == tree_.root() ? victim : tree_.parent(victim); break;
  }
  global_wave(pre);
  ++counters_.crashes;
}

/// One epoch bump, then each side holding a pre-onset sink reconciles
/// toward its side anchor and adopts the side's smallest pre-onset tail. A
/// sinkless side stays frozen — its pointers still lead to the cut.
void ArrowRecovery::partition_onset(std::size_t k) {
  const auto n = static_cast<NodeId>(link_.size());
  const NodeId cut = filter_.partitions()[k].victim;
  const auto& side = filter_.partition_side(k);
  ++counters_.partitions;
  if (side.empty() || cut == kNoNode) return;  // single-node tree: nothing to sever
  NodeId first_sink[2] = {kNoNode, kNoNode};
  bool anchor_sink[2] = {false, false};
  const NodeId side_anchor[2] = {anchor_, cut};  // side 0 keeps the anchor
  for (NodeId v = 0; v < n; ++v) {
    auto vi = static_cast<std::size_t>(v);
    if (link_[vi] != v) continue;
    const std::uint8_t s = side[vi];
    if (first_sink[s] == kNoNode) first_sink[s] = v;
    if (v == side_anchor[s]) anchor_sink[s] = true;
  }
  ++epoch_;
  auto h = stab_->estimate_hops(link_);
  for (std::uint8_t s = 0; s < 2; ++s) {
    if (first_sink[s] == kNoNode) continue;  // frozen side
    const RequestId adopted = last_req_[static_cast<std::size_t>(first_sink[s])];
    add(stab_->stabilize_side(link_, h, 4 * n + 8, side, s, side_anchor[s]));
    if (!anchor_sink[s]) {
      ARROWDQ_ASSERT_MSG(adopted != kNoRequest, "pre-onset sink without a tail");
      last_req_[static_cast<std::size_t>(side_anchor[s])] = adopted;
    }
  }
}

void ArrowRecovery::churn(NodeId victim) {
  if (victim == kNoNode || victim == anchor_) return;
  const SinkSnapshot pre = snapshot_sinks();
  link_[static_cast<std::size_t>(victim)] = stab_->anchored().parent(victim);
  global_wave(pre);
  ++counters_.reselections;
}

}  // namespace arrowdq
