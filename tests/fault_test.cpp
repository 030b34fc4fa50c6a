// Fault injection as a scenario axis: spec parsing, schedule determinism,
// the arrow quiescence property under randomized fault schedules, baseline
// graceful degradation, and thread-count invariance of faulty sweeps.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "arrow/arrow.hpp"
#include "exp/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "support/random.hpp"
#include "testutil.hpp"

namespace arrowdq {
namespace {

// --- FaultSpec parsing ------------------------------------------------------

TEST(FaultSpec, ParsesValidTokens) {
  auto none = parse_fault_spec("none");
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(none->kind, FaultKind::kNone);
  EXPECT_FALSE(none->active());

  auto loss = parse_fault_spec("loss:0.25");
  ASSERT_TRUE(loss.has_value());
  EXPECT_EQ(loss->kind, FaultKind::kLoss);
  EXPECT_DOUBLE_EQ(loss->loss_prob, 0.25);
  EXPECT_TRUE(loss->message_faults());
  EXPECT_FALSE(loss->has_crash());

  auto dup = parse_fault_spec("dup:0.5");
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->kind, FaultKind::kDuplicate);
  EXPECT_DOUBLE_EQ(dup->dup_prob, 0.5);

  auto jitter = parse_fault_spec("jitter:0.3:2.5");
  ASSERT_TRUE(jitter.has_value());
  EXPECT_EQ(jitter->kind, FaultKind::kJitter);
  EXPECT_DOUBLE_EQ(jitter->jitter_prob, 0.3);
  EXPECT_DOUBLE_EQ(jitter->jitter_max_units, 2.5);

  auto spike = parse_fault_spec("spike:0.2:6");
  ASSERT_TRUE(spike.has_value());
  EXPECT_EQ(spike->kind, FaultKind::kSpike);
  EXPECT_DOUBLE_EQ(spike->spike_prob, 0.2);
  EXPECT_DOUBLE_EQ(spike->spike_factor, 6.0);

  auto crash = parse_fault_spec("crash:3:2:8");
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(crash->kind, FaultKind::kCrash);
  EXPECT_EQ(crash->crash_count, 3);
  EXPECT_DOUBLE_EQ(crash->crash_downtime_units, 2.0);
  EXPECT_DOUBLE_EQ(crash->crash_period_units, 8.0);
  EXPECT_TRUE(crash->has_crash());
  EXPECT_FALSE(crash->message_faults());

  auto chaos = parse_fault_spec("chaos");
  ASSERT_TRUE(chaos.has_value());
  EXPECT_EQ(chaos->kind, FaultKind::kChaos);
  EXPECT_TRUE(chaos->message_faults());
  EXPECT_TRUE(chaos->has_crash());
  EXPECT_TRUE(chaos->has_partition());
  EXPECT_TRUE(chaos->has_churn());
}

TEST(FaultSpec, ParsesPartitionAndChurnTokens) {
  auto part = parse_fault_spec("partition:2:4");
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->kind, FaultKind::kPartition);
  EXPECT_EQ(part->partition_count, 2);
  EXPECT_DOUBLE_EQ(part->partition_downtime_units, 4.0);
  EXPECT_DOUBLE_EQ(part->partition_period_units, 24.0);  // default period
  EXPECT_TRUE(part->has_partition());
  EXPECT_TRUE(part->has_topology_faults());
  EXPECT_FALSE(part->has_crash());
  EXPECT_FALSE(part->message_faults());

  auto part3 = parse_fault_spec("partition:3:2.5:6");
  ASSERT_TRUE(part3.has_value());
  EXPECT_EQ(part3->partition_count, 3);
  EXPECT_DOUBLE_EQ(part3->partition_downtime_units, 2.5);
  EXPECT_DOUBLE_EQ(part3->partition_period_units, 6.0);

  auto churn = parse_fault_spec("churn:10");
  ASSERT_TRUE(churn.has_value());
  EXPECT_EQ(churn->kind, FaultKind::kChurn);
  EXPECT_DOUBLE_EQ(churn->churn_rate, 10.0);
  EXPECT_EQ(churn->churn_leaf_only, 0);
  EXPECT_TRUE(churn->has_churn());
  EXPECT_TRUE(churn->has_topology_faults());

  auto leaf = parse_fault_spec("churn:5.5:leaf");
  ASSERT_TRUE(leaf.has_value());
  EXPECT_DOUBLE_EQ(leaf->churn_rate, 5.5);
  EXPECT_EQ(leaf->churn_leaf_only, 1);

  auto any = parse_fault_spec("churn:5:any");
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->churn_leaf_only, 0);
}

TEST(FaultSpec, RejectsMalformedTokens) {
  for (const char* bad :
       {"", "bogus", "loss", "loss:", "loss:0", "loss:-0.1", "loss:1.5", "loss:abc",
        "dup:0:", "dup:2", "jitter:0.5:-1", "jitter:0.5:0", "spike:0.2:abc", "crash",
        "crash:0", "crash:-1", "crash:2:0", "crash:2:4:0", "chaos:0.5", "none:1",
        // Partition grammar: CUTS and DOWNU are mandatory, CUTS is capped at
        // the schedule bound, every span must be positive.
        "partition", "partition:", "partition:1", "partition:0:4", "partition:-1:4",
        "partition:1:0", "partition:1:4:0", "partition:65:4", "partition:1:4:8:9",
        // Churn grammar: positive rate capped at 100, KIND is leaf|any.
        "churn", "churn:", "churn:0", "churn:-2", "churn:100.5", "churn:5:tree",
        "churn:5:leaf:x"}) {
    EXPECT_FALSE(parse_fault_spec(bad).has_value()) << "accepted '" << bad << "'";
  }
}

TEST(FaultSpec, RejectsStrtodResidueInEveryNumericField) {
  // The strict decimal grammar: a numeric field is digits with an optional
  // fraction, fully consumed. strtod-isms — hex, exponents, signs, leading
  // dots, trailing garbage — used to silently truncate (strtod stops at the
  // first bad char); now the whole token is rejected with no residue.
  for (const char* bad :
       {"loss:.5", "loss:+0.5", "loss:0x1", "loss:1e-1", "loss:0.5f",
        "dup:.25", "dup:0x0.8p0", "jitter:0.5:1e0", "jitter:.5", "spike:0.5:0x4",
        "spike:0.5:+4", "crash:0x2", "crash:+2", "crash:2:0x4", "crash:2:4:1e1",
        "crash:2.0", "partition:0x2:4", "partition:2:.5", "partition:2:4:+8",
        "partition:2:1e1", "partition:2.5:4", "churn:.5", "churn:+5", "churn:0x5",
        "churn:1e1", "churn:5:LEAF"}) {
    EXPECT_FALSE(parse_fault_spec(bad).has_value()) << "accepted '" << bad << "'";
  }
}

TEST(FaultSpec, WithoutCrashStripsOnlyTheCrashSchedule) {
  FaultSpec chaos = FaultSpec::chaos();
  FaultSpec stripped = chaos.without_crash();
  EXPECT_FALSE(stripped.has_crash());
  EXPECT_FALSE(stripped.has_partition());
  EXPECT_FALSE(stripped.has_churn());
  EXPECT_TRUE(stripped.message_faults());
  EXPECT_DOUBLE_EQ(stripped.loss_prob, chaos.loss_prob);

  // Pure topology-fault specs strip to inactive.
  EXPECT_FALSE(FaultSpec::crash(2).without_crash().active());
  EXPECT_FALSE(FaultSpec::partition(2).without_crash().active());
  EXPECT_FALSE(FaultSpec::churn(10.0).without_crash().active());
}

TEST(FaultSpec, WithoutCrashAccountsForEveryField) {
  // The field ledger: without_crash() copies the whole struct and then
  // deliberately zeroes the topology-fault schedules. A new FaultSpec field
  // is kept by the copy automatically, but its *fate* must be decided — this
  // static_assert trips on any size change so the decision (keep or strip,
  // plus a line below) cannot be skipped.
  static_assert(sizeof(FaultSpec) == 136,
                "FaultSpec changed: decide whether without_crash() keeps or "
                "strips the new field, then update this test and the assert");

  FaultSpec s;
  s.kind = FaultKind::kChaos;
  s.loss_prob = 0.11;
  s.dup_prob = 0.12;
  s.jitter_prob = 0.13;
  s.jitter_max_units = 1.4;
  s.spike_prob = 0.15;
  s.spike_factor = 5.0;
  s.retry_units = 1.6;
  s.crash_count = 3;
  s.crash_downtime_units = 2.5;
  s.crash_period_units = 7.0;
  s.partition_count = 2;
  s.partition_downtime_units = 3.5;
  s.partition_period_units = 9.0;
  s.churn_rate = 12.0;
  s.churn_leaf_only = 1;
  s.seed = 4242;

  FaultSpec t = s.without_crash();
  // Kept verbatim: message-fault knobs and the seed (the surviving message
  // faults must replay the same draw stream).
  EXPECT_EQ(t.kind, FaultKind::kChaos);
  EXPECT_DOUBLE_EQ(t.loss_prob, 0.11);
  EXPECT_DOUBLE_EQ(t.dup_prob, 0.12);
  EXPECT_DOUBLE_EQ(t.jitter_prob, 0.13);
  EXPECT_DOUBLE_EQ(t.jitter_max_units, 1.4);
  EXPECT_DOUBLE_EQ(t.spike_prob, 0.15);
  EXPECT_DOUBLE_EQ(t.spike_factor, 5.0);
  EXPECT_DOUBLE_EQ(t.retry_units, 1.6);
  EXPECT_EQ(t.seed, 4242u);
  // Stripped: every schedule-count field that makes has_topology_faults()
  // true (churn_leaf_only rides along — it only qualifies churn victims).
  EXPECT_EQ(t.crash_count, 0);
  EXPECT_DOUBLE_EQ(t.churn_rate, 0.0);
  EXPECT_EQ(t.partition_count, 0);
  EXPECT_EQ(t.churn_leaf_only, 0);
  EXPECT_FALSE(t.has_topology_faults());
  // Kept but inert with their counts at zero: window shapes.
  EXPECT_DOUBLE_EQ(t.crash_downtime_units, 2.5);
  EXPECT_DOUBLE_EQ(t.crash_period_units, 7.0);
  EXPECT_DOUBLE_EQ(t.partition_downtime_units, 3.5);
  EXPECT_DOUBLE_EQ(t.partition_period_units, 9.0);
  // Empty schedules follow from the zeroed counts.
  EXPECT_TRUE(crash_schedule(t, 16).empty());
  EXPECT_TRUE(partition_schedule(t, 16).empty());
  EXPECT_TRUE(churn_schedule(t, 16).empty());
}

TEST(FaultSpec, CrashScheduleIsDeterministicAndSorted) {
  FaultSpec spec = FaultSpec::crash(4, /*downtime_units=*/2.0, /*period_units=*/8.0);
  spec.seed = 99;
  auto a = crash_schedule(spec, 32);
  auto b = crash_schedule(spec, 32);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].victim, b[i].victim);
    EXPECT_GT(a[i].up_at, a[i].at);
    EXPECT_GE(a[i].victim, 0);
    EXPECT_LT(a[i].victim, 32);
    if (i > 0) {
      EXPECT_GE(a[i].at, a[i - 1].at);
    }
  }
  // A different seed moves the victims (overwhelmingly likely over 4 draws).
  spec.seed = 100;
  auto c = crash_schedule(spec, 32);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_differs |= a[i].victim != c[i].victim;
  EXPECT_TRUE(any_differs);
}

TEST(FaultSpec, PartitionAndChurnSchedulesAreDeterministicAndSorted) {
  FaultSpec part = FaultSpec::partition(3, /*downtime_units=*/2.0, /*period_units=*/5.0);
  part.seed = 31;
  auto pa = partition_schedule(part, 40);
  auto pb = partition_schedule(part, 40);
  ASSERT_EQ(pa.size(), 3u);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].at, pb[i].at);
    EXPECT_EQ(pa[i].victim, pb[i].victim);
    EXPECT_GT(pa[i].up_at, pa[i].at);
    EXPECT_GE(pa[i].victim, 0);
    EXPECT_LT(pa[i].victim, 40);
    // Window k opens at (k+1) * period; with down < period, windows never
    // overlap and the schedule is strictly sorted.
    EXPECT_EQ(pa[i].at, static_cast<Time>(i + 1) * 5 * kTicksPerUnit);
    if (i > 0) EXPECT_GE(pa[i].at, pa[i - 1].up_at);
  }

  // Downtime longer than the period: windows are clamped to end no later
  // than the next onset (the heal→onset event chain must never schedule
  // into the past), except the last, which keeps its full downtime.
  FaultSpec wide = FaultSpec::partition(3, /*downtime_units=*/7.0, /*period_units=*/2.0);
  wide.seed = 33;
  auto pw = partition_schedule(wide, 40);
  ASSERT_EQ(pw.size(), 3u);
  for (std::size_t i = 0; i < pw.size(); ++i) {
    EXPECT_GT(pw[i].up_at, pw[i].at);
    if (i + 1 < pw.size())
      EXPECT_EQ(pw[i].up_at, pw[i + 1].at);
    else
      EXPECT_EQ(pw[i].up_at, pw[i].at + 7 * kTicksPerUnit);
  }

  FaultSpec churn = FaultSpec::churn(50.0);  // one event every 2 units
  churn.seed = 32;
  auto ca = churn_schedule(churn, 40);
  auto cb = churn_schedule(churn, 40);
  ASSERT_EQ(ca.size(), kMaxChurnEvents);  // capped; short runs see fewer fire
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].at, cb[i].at);
    EXPECT_EQ(ca[i].victim, cb[i].victim);
    EXPECT_GT(ca[i].up_at, ca[i].at);
    EXPECT_GE(ca[i].victim, 0);
    EXPECT_LT(ca[i].victim, 40);
    EXPECT_EQ(ca[i].at, static_cast<Time>(i + 1) * 2 * kTicksPerUnit);
  }

  // The two axes draw from decorrelated victim streams: same seed, same
  // window index, yet the sequences disagree somewhere over 3 draws of 40.
  part.seed = churn.seed = 7;
  auto pv = partition_schedule(part, 40);
  auto cv = churn_schedule(churn, 40);
  bool any_differs = false;
  for (std::size_t i = 0; i < pv.size(); ++i) any_differs |= pv[i].victim != cv[i].victim;
  EXPECT_TRUE(any_differs);
}

// --- the quiescence property ------------------------------------------------

/// A randomized partition schedule with small periods so windows open while
/// the (short) test runs are still in flight.
FaultSpec random_partition(Rng& rng) {
  return FaultSpec::partition(1 + static_cast<std::int32_t>(rng.next_below(3)),
                              /*downtime_units=*/0.5 + 2.0 * rng.next_double(),
                              /*period_units=*/1.0 + 3.0 * rng.next_double());
}

/// A randomized churn schedule; high rates keep the inter-event gap short.
FaultSpec random_churn(Rng& rng) {
  return FaultSpec::churn(30.0 + 70.0 * rng.next_double(), rng.next_bool(0.5));
}

/// A randomized fault spec covering every kind, seeded from `rng`.
FaultSpec random_fault(Rng& rng) {
  const auto pick = rng.next_below(8);
  FaultSpec spec;
  switch (pick) {
    case 0: spec = FaultSpec::loss(0.05 + 0.3 * rng.next_double()); break;
    case 1: spec = FaultSpec::duplicate(0.05 + 0.4 * rng.next_double()); break;
    case 2: spec = FaultSpec::jitter(0.1 + 0.4 * rng.next_double(), 0.5 + rng.next_double()); break;
    case 3: spec = FaultSpec::spike(0.05 + 0.2 * rng.next_double(), 2.0 + 4.0 * rng.next_double()); break;
    case 4:
      spec = FaultSpec::crash(1 + static_cast<std::int32_t>(rng.next_below(3)),
                              1.0 + 3.0 * rng.next_double(), 4.0 + 8.0 * rng.next_double());
      break;
    case 5: spec = random_partition(rng); break;
    case 6: spec = random_churn(rng); break;
    default: spec = FaultSpec::chaos(); break;
  }
  spec.seed = rng.next();
  return spec;
}

TEST(FaultProperty, ArrowReachesQuiescenceUnderRandomizedSchedules) {
  // The tentpole property: for every randomized fault schedule the arrow
  // protocol still reaches quiescence with a unique sink, every request
  // completed no earlier than issued, and — crash-free — a full total order.
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng = testutil::seeded_rng(seed, /*salt=*/0xfa117);
    auto inst = testutil::make_tree_instance(seed);
    FaultSpec fault = random_fault(rng);
    SynchronousLatency sync;
    ArrowEngine engine(inst.tree, sync);
    engine.set_fault(fault);
    QueuingOutcome out = engine.run(inst.requests);

    EXPECT_TRUE(out.is_complete()) << "seed " << seed << " fault " << fault.name();
    // Unique sink: exactly one node's link points to itself.
    int sinks = 0;
    for (NodeId v = 0; v < inst.tree.node_count(); ++v)
      if (engine.links()[static_cast<std::size_t>(v)] == v) ++sinks;
    EXPECT_EQ(sinks, 1) << "seed " << seed << " fault " << fault.name();
    EXPECT_EQ(engine.sink_node(),
              engine.links()[static_cast<std::size_t>(engine.sink_node())]);
    // No request completes before it was issued.
    for (RequestId id = 1; id <= out.request_count(); ++id) {
      EXPECT_GE(out.completion(id).completed_at, inst.requests.by_id(id).time)
          << "seed " << seed << " request " << id;
    }
    if (!fault.has_topology_faults()) {
      // Message faults are delay-only, so the full Definition 3.2 total
      // order must survive them (validate aborts on violation).
      out.validate(inst.requests);
      EXPECT_EQ(out.order().size(), static_cast<std::size_t>(out.request_count() + 1));
    } else {
      // Recovery waves (crash, partition, churn) may sever the pre-fault
      // successor chain, but every request still queues behind a distinct
      // predecessor.
      std::set<RequestId> preds;
      for (RequestId id = 1; id <= out.request_count(); ++id)
        preds.insert(out.completion(id).predecessor);
      EXPECT_EQ(preds.size(), static_cast<std::size_t>(out.request_count()))
          << "seed " << seed << ": duplicate predecessor post-recovery";
    }
  }
}

TEST(FaultProperty, ArrowRunsAreDeterministicPerSpec) {
  auto inst = testutil::make_tree_instance(11);
  FaultSpec fault = FaultSpec::chaos();
  fault.seed = 777;
  auto run_once = [&]() {
    SynchronousLatency sync;
    ArrowEngine engine(inst.tree, sync);
    engine.set_fault(fault);
    QueuingOutcome out = engine.run(inst.requests);
    return std::tuple(engine.messages_sent(), engine.fault_stats().messages_dropped,
                      engine.fault_stats().messages_duplicated, engine.sink_node(),
                      engine.recovery().stabilize_rounds, out.total_hops());
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- partitions and churn ---------------------------------------------------

/// Shared assertions for a one-shot arrow run under a topology-fault spec:
/// quiescence, a unique healed sink, and exactly-once completion (every
/// request answered, behind a distinct predecessor).
void expect_heals_and_completes(int seed, const testutil::TreeInstance& inst,
                                const FaultSpec& fault, ArrowEngine& engine,
                                const QueuingOutcome& out) {
  EXPECT_TRUE(out.is_complete()) << "seed " << seed << " fault " << fault.name();
  int sinks = 0;
  for (NodeId v = 0; v < inst.tree.node_count(); ++v)
    if (engine.links()[static_cast<std::size_t>(v)] == v) ++sinks;
  EXPECT_EQ(sinks, 1) << "seed " << seed << ": heal must restore a unique sink";
  std::set<RequestId> preds;
  for (RequestId id = 1; id <= out.request_count(); ++id) {
    EXPECT_GE(out.completion(id).completed_at, inst.requests.by_id(id).time)
        << "seed " << seed << " request " << id;
    preds.insert(out.completion(id).predecessor);
  }
  EXPECT_EQ(preds.size(), static_cast<std::size_t>(out.request_count()))
      << "seed " << seed << ": a request completed twice or was double-queued";
}

TEST(FaultProperty, ArrowHealsFromRandomizedPartitionSchedules) {
  // 15 randomized cut schedules: windows sever a real subtree mid-run,
  // cross-cut messages queue at the filter, and after every heal the run
  // still quiesces with one sink and exactly-once completions.
  for (int seed = 0; seed < 15; ++seed) {
    Rng rng = testutil::seeded_rng(seed, /*salt=*/0x9a57171);
    auto inst = testutil::make_tree_instance(seed);
    FaultSpec fault = random_partition(rng);
    fault.seed = rng.next();
    SynchronousLatency sync;
    ArrowEngine engine(inst.tree, sync);
    engine.set_fault(fault);
    QueuingOutcome out = engine.run(inst.requests);
    expect_heals_and_completes(seed, inst, fault, engine, out);
    EXPECT_LE(engine.recovery().partitions, fault.partition_count);
  }
}

TEST(FaultProperty, ArrowHealsFromRandomizedChurnSchedules) {
  // 15 randomized leave/rejoin schedules (mixing leaf-only and any-victim):
  // each fired event splices the departed node's pointer toward the anchor
  // through a recovery wave, and the run still completes exactly once.
  for (int seed = 0; seed < 15; ++seed) {
    Rng rng = testutil::seeded_rng(seed, /*salt=*/0xc4a242);
    auto inst = testutil::make_tree_instance(seed);
    FaultSpec fault = random_churn(rng);
    fault.seed = rng.next();
    SynchronousLatency sync;
    ArrowEngine engine(inst.tree, sync);
    engine.set_fault(fault);
    QueuingOutcome out = engine.run(inst.requests);
    expect_heals_and_completes(seed, inst, fault, engine, out);
    EXPECT_GE(engine.recovery().reselections, 0);
  }
}

TEST(FaultProperty, ArrowHealsFromCombinedPartitionChurnSchedules) {
  // 10 schedules running both axes at once (plus crashes on even seeds):
  // overlapping waves must still converge to a single sink.
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng = testutil::seeded_rng(seed, /*salt=*/0xb07b07);
    auto inst = testutil::make_tree_instance(seed + 3);
    FaultSpec fault = random_partition(rng);
    FaultSpec churn = random_churn(rng);
    fault.churn_rate = churn.churn_rate;
    fault.churn_leaf_only = churn.churn_leaf_only;
    if (seed % 2 == 0) fault.crash_count = 1 + static_cast<std::int32_t>(rng.next_below(2));
    fault.seed = rng.next();
    SynchronousLatency sync;
    ArrowEngine engine(inst.tree, sync);
    engine.set_fault(fault);
    QueuingOutcome out = engine.run(inst.requests);
    expect_heals_and_completes(seed, inst, fault, engine, out);
  }
}

TEST(FaultProperty, ClosedLoopDrainsPartitionBacklogAndCompletes) {
  // The closed-loop driver under partitions: every round completes exactly
  // once (n * rounds total), fired windows are reported, and any cross-cut
  // sends the filter queued are accounted as drained heal backlog.
  int cells_with_backlog = 0;
  for (int seed = 0; seed < 8; ++seed) {
    Experiment e;
    e.protocol = ProtocolSpec::arrow_closed_loop();
    e.topology = TopologySpec::random_tree(12 + 2 * seed, seed);
    e.rounds = 12;
    e.fault = FaultSpec::partition(2, /*downtime_units=*/2.0, /*period_units=*/4.0);
    e = e.with_seed(100 + seed);
    RunResult r = run_experiment(e);
    EXPECT_EQ(r.total_requests, static_cast<std::int64_t>(e.topology.nodes) * 12)
        << "seed " << seed << ": a queued cross-cut request was lost or doubled";
    EXPECT_GE(r.partitions, 1) << "seed " << seed;
    EXPECT_LE(r.partitions, 2) << "seed " << seed;
    if (r.partition_backlog_drained > 0) ++cells_with_backlog;
    // partition_delta_units mirrors the twin comparison for partition cells.
    EXPECT_DOUBLE_EQ(r.partition_delta_units, r.recovery_delta_units) << "seed " << seed;
  }
  // With 8 closed loops crossing 2-unit cuts, at least one run must have
  // actually queued traffic at the cut — otherwise the axis tested nothing.
  EXPECT_GT(cells_with_backlog, 0);
}

TEST(FaultProperty, ClosedLoopChurnReselectsAndCompletes) {
  int cells_with_reselection = 0;
  for (int seed = 0; seed < 8; ++seed) {
    Experiment e;
    e.protocol = ProtocolSpec::arrow_closed_loop();
    e.topology = TopologySpec::random_tree(12 + 2 * seed, seed);
    e.rounds = 12;
    e.fault = FaultSpec::churn(seed % 2 == 0 ? 60.0 : 90.0, /*leaf_only=*/seed % 2 == 1);
    e = e.with_seed(200 + seed);
    RunResult r = run_experiment(e);
    EXPECT_EQ(r.total_requests, static_cast<std::int64_t>(e.topology.nodes) * 12)
        << "seed " << seed;
    if (r.reselections > 0) ++cells_with_reselection;
  }
  EXPECT_GT(cells_with_reselection, 0);
}

TEST(FaultProperty, TopologyFaultsRefuseShardingAndImplicitTier) {
  // shardable() and the implicit tier must refuse partitions and churn for
  // the same reason they refuse crashes: recovery waves are global pointer
  // rewrites over a materialized tree.
  for (const FaultSpec& fault :
       {FaultSpec::crash(2), FaultSpec::partition(1), FaultSpec::churn(10.0),
        FaultSpec::chaos()}) {
    Experiment e;
    e.protocol = ProtocolSpec::arrow_closed_loop();
    e.topology = TopologySpec::random_tree(16, 1);
    e.rounds = 4;
    e.fault = fault;
    e.shards = 2;
    EXPECT_TRUE(validate_experiment(e.with_seed(1)).has_value())
        << fault.name() << " must refuse shards > 1";
    e.shards = 1;
    EXPECT_FALSE(validate_experiment(e.with_seed(1)).has_value()) << fault.name();
  }
  // Message-only faults keep sharding.
  Experiment ok;
  ok.protocol = ProtocolSpec::arrow_closed_loop();
  ok.topology = TopologySpec::random_tree(16, 1);
  ok.rounds = 4;
  ok.fault = FaultSpec::loss(0.1);
  ok.shards = 2;
  EXPECT_FALSE(validate_experiment(ok.with_seed(1)).has_value());
}

// --- baselines: graceful degradation ---------------------------------------

TEST(FaultProperty, BaselinesDegradeGracefullyUnderLoss) {
  // Centralized and pointer forwarding never corrupt state (their pointer is
  // in stable storage); loss shows up as drops + extra latency only, and
  // every round still completes.
  for (Protocol proto : {Protocol::kCentralized, Protocol::kPointerForwarding}) {
    Experiment e;
    e.protocol = proto == Protocol::kCentralized
                     ? ProtocolSpec::centralized(0)
                     : ProtocolSpec::pointer_forwarding();
    e.topology = TopologySpec::complete(24);
    e.rounds = 10;
    e.fault = FaultSpec::loss(0.2);
    e = e.with_seed(5);
    RunResult r = run_experiment(e);
    EXPECT_EQ(r.total_requests, 24 * 10) << protocol_name(proto);
    EXPECT_GT(r.messages_dropped, 0u) << protocol_name(proto);
    EXPECT_EQ(r.stabilize_rounds, 0) << protocol_name(proto);
    EXPECT_EQ(r.stabilize_corrections, 0) << protocol_name(proto);

    // The same cell fault-free drops nothing and finishes no later.
    Experiment clean = e;
    clean.fault = FaultSpec::none();
    RunResult base = run_experiment(clean);
    EXPECT_EQ(base.messages_dropped, 0u);
    EXPECT_LE(base.makespan, r.makespan) << protocol_name(proto);
  }
}

TEST(FaultProperty, BaselinesDegradeGracefullyUnderPartitionsAndChurn) {
  // The baselines have no tree, so the filter falls back to isolating the
  // window's victim node: its traffic queues until the heal and every round
  // still completes. No recovery waves, no corrections.
  for (Protocol proto : {Protocol::kCentralized, Protocol::kPointerForwarding}) {
    for (const FaultSpec& fault :
         {FaultSpec::partition(2, /*downtime_units=*/2.0, /*period_units=*/4.0),
          FaultSpec::churn(60.0)}) {
      Experiment e;
      e.protocol = proto == Protocol::kCentralized
                       ? ProtocolSpec::centralized(0)
                       : ProtocolSpec::pointer_forwarding();
      e.topology = TopologySpec::complete(24);
      e.rounds = 10;
      e.fault = fault;
      e = e.with_seed(6);
      RunResult r = run_experiment(e);
      EXPECT_EQ(r.total_requests, 24 * 10) << protocol_name(proto) << " " << fault.name();
      EXPECT_EQ(r.stabilize_rounds, 0) << protocol_name(proto) << " " << fault.name();
      EXPECT_EQ(r.reselections, 0) << protocol_name(proto) << " " << fault.name();
      if (fault.has_partition()) EXPECT_EQ(r.partitions, fault.partition_count);
    }
  }
}

TEST(FaultProperty, TokenPassingStripsCrashesButKeepsMessageFaults) {
  Experiment e;
  e.protocol = ProtocolSpec::token_passing();
  e.topology = TopologySpec::random_tree(20, 3);
  e.workload = WorkloadSpec::poisson(15, 0.5, 7);
  e.fault = FaultSpec::chaos();
  e = e.with_seed(9);
  RunResult r = run_experiment(e);
  EXPECT_EQ(r.total_requests, 15);
  EXPECT_EQ(r.crashes, 0);  // crash schedule stripped
  EXPECT_GT(r.messages_dropped + r.messages_duplicated, 0u);
}

// --- sweep integration ------------------------------------------------------

std::vector<Experiment> faulty_cells() {
  std::vector<Experiment> cells;
  std::uint64_t seed = 40;
  for (const FaultSpec& fault :
       {FaultSpec::loss(0.15), FaultSpec::crash(2),
        FaultSpec::partition(2, /*downtime_units=*/2.0, /*period_units=*/4.0),
        FaultSpec::churn(60.0), FaultSpec::chaos()}) {
    {
      Experiment e;
      e.protocol = ProtocolSpec::arrow_one_shot();
      e.topology = TopologySpec::random_tree(20, 1);
      e.workload = WorkloadSpec::poisson(16, 0.6, 2);
      e.fault = fault;
      cells.push_back(e.with_seed(++seed));
    }
    {
      Experiment e;
      e.protocol = ProtocolSpec::arrow_closed_loop();
      e.topology = TopologySpec::complete(16);
      e.rounds = 8;
      e.fault = fault;
      cells.push_back(e.with_seed(++seed));
    }
    {
      Experiment e;
      e.protocol = ProtocolSpec::pointer_forwarding();
      e.topology = TopologySpec::complete(16);
      e.rounds = 8;
      e.fault = fault;
      cells.push_back(e.with_seed(++seed));
    }
  }
  return cells;
}

TEST(FaultProperty, FaultySweepsAreBitIdenticalAcrossThreadCounts) {
  // The acceptance bar: under a fixed fault schedule, results — fault
  // metrics included — are bit-identical across 1/2/4/5 sweep threads and
  // against the serial path. Each run owns its fault filter, so thread
  // interleavings cannot touch the draw streams.
  auto cells = faulty_cells();
  auto serial = run_experiments(cells);
  ASSERT_EQ(serial.size(), cells.size());
  for (unsigned threads : {1u, 2u, 4u, 5u}) {
    auto parallel = run_experiments(cells, SweepRunner(threads));
    ASSERT_EQ(parallel.size(), serial.size()) << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const RunResult& a = parallel[i].result;
      const RunResult& b = serial[i].result;
      EXPECT_EQ(a.makespan, b.makespan) << threads << " cell " << i;
      EXPECT_EQ(a.messages, b.messages) << threads << " cell " << i;
      EXPECT_EQ(a.total_hops, b.total_hops) << threads << " cell " << i;
      EXPECT_EQ(a.messages_dropped, b.messages_dropped) << threads << " cell " << i;
      EXPECT_EQ(a.messages_duplicated, b.messages_duplicated) << threads << " cell " << i;
      EXPECT_EQ(a.crashes, b.crashes) << threads << " cell " << i;
      EXPECT_EQ(a.stabilize_rounds, b.stabilize_rounds) << threads << " cell " << i;
      EXPECT_EQ(a.stabilize_corrections, b.stabilize_corrections) << threads << " cell " << i;
      EXPECT_DOUBLE_EQ(a.recovery_delta_units, b.recovery_delta_units)
          << threads << " cell " << i;
      EXPECT_EQ(a.partitions, b.partitions) << threads << " cell " << i;
      EXPECT_EQ(a.partition_backlog_drained, b.partition_backlog_drained)
          << threads << " cell " << i;
      EXPECT_EQ(a.reselections, b.reselections) << threads << " cell " << i;
      EXPECT_DOUBLE_EQ(a.partition_delta_units, b.partition_delta_units)
          << threads << " cell " << i;
    }
  }
}

TEST(FaultProperty, RecoveryDeltaFilledOnlyForFaultyCells) {
  Experiment e;
  e.protocol = ProtocolSpec::arrow_closed_loop();
  e.topology = TopologySpec::complete(16);
  e.rounds = 8;
  e = e.with_seed(3);
  RunResult clean = run_experiment(e);
  EXPECT_DOUBLE_EQ(clean.recovery_delta_units, 0.0);
  EXPECT_EQ(clean.messages_dropped, 0u);
  EXPECT_EQ(clean.crashes, 0);

  // A short crash period so the schedule fires within the loop's makespan
  // (the driver reports windows that actually fired, not the nominal count).
  e.fault = FaultSpec::crash(2, /*downtime_units=*/2.0, /*period_units=*/4.0);
  e.fault.seed = 21;
  RunResult faulty = run_experiment(e);
  EXPECT_GE(faulty.crashes, 1);
  EXPECT_LE(faulty.crashes, 2);
  // The twin comparison is the faulty makespan minus the clean one.
  EXPECT_NEAR(faulty.recovery_delta_units,
              static_cast<double>(faulty.makespan - clean.makespan) /
                  static_cast<double>(kTicksPerUnit),
              1e-9);
}

}  // namespace
}  // namespace arrowdq
