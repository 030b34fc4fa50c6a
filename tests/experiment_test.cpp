// Coverage for the unified Experiment API (src/exp/).
//
//  * Every protocol driver in the registry must be tick-identical to the
//    legacy free function it wraps: arrow one-shot (ArrowEngine::run),
//    arrow closed loop (run_arrow_closed_loop), centralized one-shot and
//    closed loop (run_centralized / run_centralized_closed_loop), pointer
//    forwarding (run_pointer_forwarding, both modes) and token passing
//    (run_arrow + simulate_token_passing), on seeded instances across all
//    latency models.
//  * run_experiments must be thread-count invariant on mixed-protocol
//    scenario lists and must match serial run_experiment calls.
//  * The declarative topology/workload specs must materialize exactly the
//    generator calls they describe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/competitive.hpp"
#include "apps/token_sim.hpp"
#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "baseline/centralized.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "exp/experiment.hpp"
#include "exp/registry.hpp"
#include "exp/replication.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/latency.hpp"
#include "support/random.hpp"
#include "testutil.hpp"
#include "workload/workloads.hpp"

namespace arrowdq {
namespace {

LatencySpec latency_spec_for(int seed) {
  switch (seed % 4) {
    case 0:
      return LatencySpec::synchronous();
    case 1:
      return LatencySpec::scaled(0.25 + 0.05 * (seed % 5));
    case 2:
      return LatencySpec::uniform_async(static_cast<std::uint64_t>(seed) * 31 + 7, 0.1);
    default:
      return LatencySpec::truncated_exp(static_cast<std::uint64_t>(seed) * 53 + 11, 0.4);
  }
}

void expect_outcomes_equal(const QueuingOutcome& a, const QueuingOutcome& b, int seed) {
  ASSERT_EQ(a.request_count(), b.request_count()) << "seed " << seed;
  EXPECT_EQ(a.order(), b.order()) << "seed " << seed;
  for (RequestId id = 1; id <= a.request_count(); ++id) {
    const Completion& ca = a.completion(id);
    const Completion& cb = b.completion(id);
    EXPECT_EQ(ca.predecessor, cb.predecessor) << "seed " << seed << " req " << id;
    EXPECT_EQ(ca.completed_at, cb.completed_at) << "seed " << seed << " req " << id;
    EXPECT_EQ(ca.hops, cb.hops) << "seed " << seed << " req " << id;
    EXPECT_EQ(ca.distance, cb.distance) << "seed " << seed << " req " << id;
  }
}

/// Experiment over a pre-built (tree, requests) instance.
Experiment instance_experiment(const testutil::TreeInstance& inst, ProtocolSpec protocol,
                               LatencySpec latency) {
  Experiment e;
  e.protocol = protocol;
  e.topology = TopologySpec::custom(inst.tree.as_graph(), inst.tree);
  e.workload = WorkloadSpec::fixed(inst.requests);
  e.latency = latency;
  e.keep_outcome = true;
  return e;
}

// --- tick-identity vs the legacy entry points ------------------------------

TEST(Experiment, ArrowOneShotMatchesLegacy) {
  for (int seed = 0; seed < 12; ++seed) {
    auto inst = testutil::make_tree_instance(seed);
    const Time service = seed % 3 == 1 ? kTicksPerUnit / 8 : 0;

    Experiment e = instance_experiment(
        inst, ProtocolSpec::arrow_one_shot(service), latency_spec_for(seed));
    RunResult res = run_experiment(e);

    auto legacy_model = latency_spec_for(seed).make();
    ArrowEngine engine(inst.tree, *legacy_model);
    engine.set_service_time(service);
    QueuingOutcome legacy = engine.run(inst.requests);

    ASSERT_TRUE(res.outcome.has_value()) << "seed " << seed;
    expect_outcomes_equal(*res.outcome, legacy, seed);
    EXPECT_EQ(res.messages, engine.messages_sent()) << "seed " << seed;
    EXPECT_EQ(res.total_requests, inst.requests.size()) << "seed " << seed;
    EXPECT_EQ(res.total_hops, legacy.total_hops()) << "seed " << seed;
    EXPECT_EQ(res.total_distance, legacy.total_distance()) << "seed " << seed;
    EXPECT_EQ(res.total_latency, legacy.total_latency(inst.requests)) << "seed " << seed;
  }
}

TEST(Experiment, ArrowClosedLoopMatchesLegacy) {
  for (int seed = 0; seed < 8; ++seed) {
    auto inst = testutil::make_tree_instance(seed);
    const Time service = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
    const std::int64_t rounds = 12 + seed % 9;

    Experiment e;
    e.protocol = ProtocolSpec::arrow_closed_loop(service);
    e.topology = TopologySpec::custom(inst.tree.as_graph(), inst.tree);
    e.latency = latency_spec_for(seed);
    e.rounds = rounds;
    RunResult res = run_experiment(e);

    auto legacy_model = latency_spec_for(seed).make();
    ClosedLoopConfig cfg;
    cfg.requests_per_node = rounds;
    cfg.service_time = service;
    ClosedLoopResult legacy = run_arrow_closed_loop(inst.tree, *legacy_model, cfg);

    EXPECT_EQ(res.makespan, legacy.makespan) << "seed " << seed;
    EXPECT_EQ(res.total_requests, legacy.total_requests) << "seed " << seed;
    EXPECT_EQ(res.messages, legacy.tree_messages + legacy.notify_messages) << "seed " << seed;
    EXPECT_EQ(res.total_hops, static_cast<std::int64_t>(legacy.tree_messages))
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(res.avg_hops_per_request, legacy.avg_hops_per_request) << "seed " << seed;
    EXPECT_DOUBLE_EQ(res.avg_round_latency_units, legacy.avg_round_latency_units)
        << "seed " << seed;
  }
}

TEST(Experiment, DeclarativeCompleteTopologyMatchesSection5Setup) {
  // TopologySpec::complete must reproduce the balanced-binary-overlay
  // construction the Figure 10 reproduction uses.
  for (NodeId n : {13, 32, 64}) {
    Experiment e;
    e.protocol = ProtocolSpec::arrow_closed_loop(kTicksPerUnit / 16);
    e.topology = TopologySpec::complete(n);
    e.latency = LatencySpec::synchronous();
    e.rounds = 20;
    RunResult res = run_experiment(e);

    Graph g = make_complete(n);
    Tree t = balanced_binary_overlay(g);
    SynchronousLatency sync;
    ClosedLoopConfig cfg;
    cfg.requests_per_node = 20;
    cfg.service_time = kTicksPerUnit / 16;
    ClosedLoopResult legacy = run_arrow_closed_loop(t, sync, cfg);
    EXPECT_EQ(res.makespan, legacy.makespan) << n;
    EXPECT_EQ(res.messages, legacy.tree_messages + legacy.notify_messages) << n;
  }
}

TEST(Experiment, CentralizedOneShotMatchesLegacy) {
  for (int seed = 0; seed < 10; ++seed) {
    auto inst = testutil::make_instance(seed);
    const NodeId center = inst.tree.root();
    const Time service = seed % 2 ? kTicksPerUnit / 16 : 0;

    Experiment e;
    e.protocol = ProtocolSpec::centralized(center, service);
    e.topology = TopologySpec::custom(inst.graph, inst.tree);
    e.workload = WorkloadSpec::fixed(inst.requests);
    e.keep_outcome = true;
    RunResult res = run_experiment(e);

    // The custom topology routes distances through an APSP oracle.
    AllPairs apsp(inst.graph);
    CentralizedConfig cfg;
    cfg.center = center;
    cfg.service_time = service;
    QueuingOutcome legacy = run_centralized(inst.graph.node_count(), inst.requests,
                                            apsp_dist_fn(apsp), cfg);
    ASSERT_TRUE(res.outcome.has_value()) << "seed " << seed;
    expect_outcomes_equal(*res.outcome, legacy, seed);
    EXPECT_EQ(res.total_latency, legacy.total_latency(inst.requests)) << "seed " << seed;
  }
}

TEST(Experiment, CentralizedClosedLoopMatchesLegacy) {
  for (NodeId n : {8, 24, 48}) {
    Experiment e;
    e.protocol = ProtocolSpec::centralized(0, kTicksPerUnit / 16);
    e.topology = TopologySpec::complete(n);
    e.rounds = 30;
    RunResult res = run_experiment(e);

    CentralizedConfig cfg;
    cfg.center = 0;
    cfg.service_time = kTicksPerUnit / 16;
    CentralizedLoopResult legacy = run_centralized_closed_loop(n, 30, unit_dist_fn(), cfg);
    EXPECT_EQ(res.makespan, legacy.makespan) << n;
    EXPECT_EQ(res.total_requests, legacy.total_requests) << n;
    EXPECT_EQ(res.messages, legacy.messages) << n;
    EXPECT_DOUBLE_EQ(res.avg_round_latency_units, legacy.avg_round_latency_units) << n;
  }
}

TEST(Experiment, PointerForwardingClosedLoopMatchesLegacy) {
  // rounds > 0 switches kPointerForwarding to the closed-loop driver; the
  // registry path must be tick-identical to the direct call with the same
  // APSP oracle and initial owner.
  for (int seed = 0; seed < 8; ++seed) {
    auto inst = testutil::make_instance(seed);
    const auto mode = seed % 2 ? ForwardingMode::kReverseToSender
                               : ForwardingMode::kCompressToRequester;
    const Time service = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
    const std::int64_t rounds = 6 + seed % 7;

    Experiment e;
    e.protocol = ProtocolSpec::pointer_forwarding(mode, service);
    e.topology = TopologySpec::custom(inst.graph, inst.tree);
    e.rounds = rounds;
    RunResult res = run_experiment(e);

    AllPairs apsp(inst.graph);
    PointerForwardingConfig cfg;
    cfg.mode = mode;
    cfg.service_time = service;
    cfg.initial_owner = inst.tree.root();
    ForwardingLoopResult legacy = run_pointer_forwarding_closed_loop(
        inst.graph.node_count(), rounds, apsp_dist_fn(apsp), cfg);

    EXPECT_EQ(res.makespan, legacy.makespan) << "seed " << seed;
    EXPECT_EQ(res.total_requests, legacy.total_requests) << "seed " << seed;
    EXPECT_EQ(res.messages, legacy.find_messages + legacy.reply_messages) << "seed " << seed;
    EXPECT_EQ(res.total_hops, static_cast<std::int64_t>(legacy.find_messages))
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(res.avg_hops_per_request, legacy.avg_hops_per_request) << "seed " << seed;
    EXPECT_DOUBLE_EQ(res.avg_round_latency_units, legacy.avg_round_latency_units)
        << "seed " << seed;
  }
}

TEST(Experiment, PointerForwardingMatchesLegacyBothModes) {
  for (int seed = 0; seed < 10; ++seed) {
    auto inst = testutil::make_instance(seed);
    const auto mode = seed % 2 ? ForwardingMode::kReverseToSender
                               : ForwardingMode::kCompressToRequester;
    const Time service = seed % 3 == 2 ? kTicksPerUnit / 16 : 0;

    Experiment e;
    e.protocol = ProtocolSpec::pointer_forwarding(mode, service);
    e.topology = TopologySpec::custom(inst.graph, inst.tree);
    e.workload = WorkloadSpec::fixed(inst.requests);
    e.keep_outcome = true;
    RunResult res = run_experiment(e);

    AllPairs apsp(inst.graph);
    PointerForwardingConfig cfg;
    cfg.mode = mode;
    cfg.service_time = service;
    cfg.initial_owner = inst.tree.root();
    QueuingOutcome legacy = run_pointer_forwarding(inst.graph.node_count(), inst.requests,
                                                   apsp_dist_fn(apsp), cfg);
    ASSERT_TRUE(res.outcome.has_value()) << "seed " << seed;
    expect_outcomes_equal(*res.outcome, legacy, seed);
  }
}

TEST(Experiment, TokenPassingMatchesLegacySequence) {
  for (int seed = 0; seed < 8; ++seed) {
    auto inst = testutil::make_tree_instance(seed);
    const Time hold = seed % 2 ? kTicksPerUnit / 4 : 0;

    Experiment e = instance_experiment(inst, ProtocolSpec::token_passing(hold),
                                       latency_spec_for(seed));
    RunResult res = run_experiment(e);

    // Legacy sequence: one model drives the arrow run and then the token.
    auto legacy_model = latency_spec_for(seed).make();
    ArrowEngine engine(inst.tree, *legacy_model);
    QueuingOutcome out = engine.run(inst.requests);
    TokenSimResult legacy =
        simulate_token_passing(inst.tree, inst.requests, out, hold, *legacy_model);

    EXPECT_EQ(res.makespan, legacy.makespan) << "seed " << seed;
    EXPECT_EQ(res.total_distance, legacy.token_travel) << "seed " << seed;
    EXPECT_EQ(res.total_hops, static_cast<std::int64_t>(legacy.token_messages))
        << "seed " << seed;
    EXPECT_EQ(res.messages, engine.messages_sent() + legacy.token_messages) << "seed " << seed;
  }
}

// A centralized center outside [0, nodes) is a diagnostic up front, not an
// assertion inside the driver; so is a latency fraction outside (0, 1].
TEST(Experiment, CentralizedCenterOutOfRangeIsRejected) {
  for (const TopologySpec& topo :
       {TopologySpec::geometric(40, /*seed=*/2), TopologySpec::complete(40)}) {
    for (std::int64_t rounds : {0, 3}) {
      Experiment e;
      e.topology = topo;
      e.rounds = rounds;
      for (NodeId bad : {-1, 40, 1000}) {
        e.protocol = ProtocolSpec::centralized(bad);
        const auto err = validate_experiment(e);
        ASSERT_TRUE(err.has_value()) << topo.family_name() << " center " << bad;
        EXPECT_NE(err->find("center"), std::string::npos) << *err;
      }
      for (NodeId ok : {0, 39}) {
        e.protocol = ProtocolSpec::centralized(ok);
        EXPECT_EQ(validate_experiment(e), std::nullopt) << topo.family_name() << " center " << ok;
      }
    }
  }
  Experiment e;
  e.topology = TopologySpec::complete(8);
  for (double bad : {2.0, 1.5, 0.0, -0.5}) {
    for (const LatencySpec& spec : {LatencySpec::scaled(bad), LatencySpec::uniform_async(1, bad),
                                    LatencySpec::truncated_exp(1, bad)}) {
      e.latency = spec;
      const auto err = validate_experiment(e);
      ASSERT_TRUE(err.has_value()) << spec.name() << " " << bad;
      EXPECT_NE(err->find("(0, 1]"), std::string::npos) << *err;
    }
  }
  for (const LatencySpec& spec : {LatencySpec::synchronous(), LatencySpec::scaled(1.0),
                                  LatencySpec::uniform_async(1, 0.05),
                                  LatencySpec::truncated_exp(1, 0.3)}) {
    e.latency = spec;
    EXPECT_EQ(validate_experiment(e), std::nullopt) << spec.name();
  }
}

// --- the registry ----------------------------------------------------------

TEST(Experiment, RegistryCoversEveryProtocol) {
  for (int p = 0; p < kProtocolCount; ++p)
    EXPECT_NE(exp_detail::kDriverRegistry[static_cast<std::size_t>(p)], nullptr) << p;
  EXPECT_STREQ(protocol_name(Protocol::kArrowOneShot), "arrow");
  EXPECT_STREQ(protocol_name(Protocol::kArrowClosedLoop), "arrow-loop");
  EXPECT_STREQ(protocol_name(Protocol::kCentralized), "centralized");
  EXPECT_STREQ(protocol_name(Protocol::kPointerForwarding), "forwarding");
  EXPECT_STREQ(protocol_name(Protocol::kTokenPassing), "token");
}

// --- mixed-protocol sweeps --------------------------------------------------

std::vector<Experiment> mixed_protocol_list() {
  std::vector<Experiment> exps;
  int i = 0;
  for (NodeId n : {12, 25, 40}) {
    Experiment arrow_loop;
    arrow_loop.protocol = ProtocolSpec::arrow_closed_loop(kTicksPerUnit / 16);
    arrow_loop.topology = TopologySpec::complete(n);
    arrow_loop.latency =
        LatencySpec::uniform_async(400 + static_cast<std::uint64_t>(i), 0.1);
    arrow_loop.rounds = 8 + i;
    exps.push_back(arrow_loop);

    Experiment central = arrow_loop;
    central.protocol = ProtocolSpec::centralized(0, kTicksPerUnit / 16);
    exps.push_back(central);

    Experiment arrow_shot;
    arrow_shot.protocol = ProtocolSpec::arrow_one_shot();
    arrow_shot.topology = TopologySpec::random_tree(n, 70 + static_cast<std::uint64_t>(i));
    arrow_shot.workload = WorkloadSpec::poisson(10 + i, 0.6, 90 + static_cast<std::uint64_t>(i));
    arrow_shot.latency = LatencySpec::truncated_exp(500 + static_cast<std::uint64_t>(i), 0.4);
    exps.push_back(arrow_shot);

    Experiment forward = arrow_shot;
    forward.protocol = ProtocolSpec::pointer_forwarding();
    exps.push_back(forward);

    Experiment token = arrow_shot;
    token.protocol = ProtocolSpec::token_passing(kTicksPerUnit / 8);
    exps.push_back(token);

    // PR-5 axes: closed-loop pointer forwarding on a torus, a one-shot
    // forwarding run on a seeded geometric graph, arrow on a hypercube.
    Experiment forward_loop;
    forward_loop.protocol =
        ProtocolSpec::pointer_forwarding(ForwardingMode::kCompressToRequester,
                                         kTicksPerUnit / 16);
    forward_loop.topology = TopologySpec::torus(3 + i, 4);
    forward_loop.rounds = 6 + i;
    exps.push_back(forward_loop);

    Experiment geo = arrow_shot;
    geo.protocol = ProtocolSpec::pointer_forwarding(ForwardingMode::kReverseToSender);
    geo.topology = TopologySpec::geometric(n, 130 + static_cast<std::uint64_t>(i), 0.4);
    exps.push_back(geo);

    Experiment cube = arrow_shot;
    cube.topology = TopologySpec::hypercube(4 + i % 2);
    exps.push_back(cube);
    ++i;
  }
  return exps;
}

TEST(ExperimentSweep, MixedProtocolResultsIndependentOfThreadCount) {
  auto exps = mixed_protocol_list();
  auto r1 = run_experiments(exps, SweepRunner(1));
  auto r2 = run_experiments(exps, SweepRunner(2));
  auto r5 = run_experiments(exps, SweepRunner(5));
  ASSERT_EQ(r1.size(), exps.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    for (const auto* r : {&r2, &r5}) {
      EXPECT_EQ(r1[i].label, (*r)[i].label) << i;
      EXPECT_EQ(r1[i].result.makespan, (*r)[i].result.makespan) << i;
      EXPECT_EQ(r1[i].result.total_requests, (*r)[i].result.total_requests) << i;
      EXPECT_EQ(r1[i].result.messages, (*r)[i].result.messages) << i;
      EXPECT_EQ(r1[i].result.total_hops, (*r)[i].result.total_hops) << i;
      EXPECT_EQ(r1[i].result.total_latency, (*r)[i].result.total_latency) << i;
    }
  }
}

TEST(ExperimentSweep, MatchesSerialExecution) {
  auto exps = mixed_protocol_list();
  auto parallel = run_experiments(exps, SweepRunner(4));
  for (std::size_t i = 0; i < exps.size(); ++i) {
    RunResult serial = run_experiment(exps[i]);
    EXPECT_EQ(parallel[i].result.makespan, serial.makespan) << i;
    EXPECT_EQ(parallel[i].result.messages, serial.messages) << i;
    EXPECT_EQ(parallel[i].result.total_latency, serial.total_latency) << i;
  }
}

// --- replication ------------------------------------------------------------

TEST(Replication, NormalQuantileMatchesKnownValues) {
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-7);
  EXPECT_NEAR(normal_quantile(0.95), 1.6448536269514722, 1e-7);
  EXPECT_NEAR(normal_quantile(0.995), 2.5758293035489004, 1e-7);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963984540054, 1e-7);
  // Tail regime (p < 0.02425) goes through a separate rational fit.
  EXPECT_NEAR(normal_quantile(0.001), -3.0902323061678132, 1e-6);
}

TEST(Replication, StudentTQuantileMatchesKnownValues) {
  // Reference values for t(0.975, dof) — dof 1 and 2 exercise the closed
  // forms, the rest the incomplete-beta inversion.
  EXPECT_NEAR(student_t_quantile(0.975, 1), 12.706204736432095, 1e-9);
  EXPECT_NEAR(student_t_quantile(0.975, 2), 4.302652729911275, 1e-9);
  EXPECT_NEAR(student_t_quantile(0.975, 3), 3.182446305284263, 1e-9);
  EXPECT_NEAR(student_t_quantile(0.975, 4), 2.7764451051977987, 1e-9);
  EXPECT_NEAR(student_t_quantile(0.975, 7), 2.364624251592785, 1e-9);
  EXPECT_NEAR(student_t_quantile(0.975, 9), 2.2621571627409915, 1e-9);
  EXPECT_NEAR(student_t_quantile(0.975, 29), 2.045229642132703, 1e-9);
  // Symmetry and the median.
  EXPECT_NEAR(student_t_quantile(0.025, 7), -2.364624251592785, 1e-9);
  EXPECT_DOUBLE_EQ(student_t_quantile(0.5, 7), 0.0);
  // Converges to the normal quantile as dof grows.
  EXPECT_NEAR(student_t_quantile(0.975, 2000), normal_quantile(0.975), 2e-3);
}

TEST(Replication, FoldMetricMatchesClosedForm) {
  // Textbook sample: mean 5, sum of squared deviations 32 over n-1 = 7.
  const std::vector<double> samples = {2, 4, 4, 4, 5, 5, 7, 9};
  MetricStats s = fold_metric(samples, 0.95);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  // Student-t half-width at 7 degrees of freedom: t(0.975, 7) = 2.3646...
  // (the old normal-approximation z = 1.96 understated the interval).
  const double half = 2.364624251592785 * std::sqrt(32.0 / 7.0) / std::sqrt(8.0);
  EXPECT_NEAR(s.ci_lo, 5.0 - half, 1e-7);
  EXPECT_NEAR(s.ci_hi, 5.0 + half, 1e-7);

  // Degenerate folds: single sample has no dispersion and a zero-width CI.
  MetricStats one = fold_metric({3.25}, 0.95);
  EXPECT_DOUBLE_EQ(one.mean, 3.25);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.ci_lo, 3.25);
  EXPECT_DOUBLE_EQ(one.ci_hi, 3.25);
  EXPECT_DOUBLE_EQ(one.min, 3.25);
  EXPECT_DOUBLE_EQ(one.max, 3.25);
}

TEST(Replication, FoldReplicasAggregatesEveryMetric) {
  std::vector<RunResult> runs(3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].protocol = Protocol::kArrowClosedLoop;
    runs[i].makespan = static_cast<Time>((i + 1) * kTicksPerUnit);  // 1, 2, 3 units
    runs[i].total_requests = 10;
    runs[i].messages = 100 + 10 * i;  // 100, 110, 120
    runs[i].total_hops = static_cast<std::int64_t>(50 + i);
    runs[i].avg_hops_per_request = 5.0 + static_cast<double>(i);
    runs[i].avg_round_latency_units = 0.5;
    runs[i].total_latency = static_cast<Time>(2 * kTicksPerUnit);
  }
  ReplicatedResult res = fold_replicas(std::move(runs), 0.95);
  EXPECT_EQ(res.protocol, Protocol::kArrowClosedLoop);
  EXPECT_EQ(res.replicas, 3);
  ASSERT_EQ(res.runs.size(), 3u);

  EXPECT_DOUBLE_EQ(res.makespan_units.mean, 2.0);
  EXPECT_DOUBLE_EQ(res.makespan_units.min, 1.0);
  EXPECT_DOUBLE_EQ(res.makespan_units.max, 3.0);
  EXPECT_NEAR(res.makespan_units.stddev, 1.0, 1e-12);  // var = (1+0+1)/2
  EXPECT_DOUBLE_EQ(res.messages.mean, 110.0);
  EXPECT_NEAR(res.messages.stddev, 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(res.total_requests.mean, 10.0);
  EXPECT_DOUBLE_EQ(res.total_requests.stddev, 0.0);
  EXPECT_DOUBLE_EQ(res.total_hops.mean, 51.0);
  EXPECT_DOUBLE_EQ(res.avg_hops_per_request.mean, 6.0);
  EXPECT_DOUBLE_EQ(res.avg_round_latency_units.mean, 0.5);
  EXPECT_DOUBLE_EQ(res.avg_round_latency_units.stddev, 0.0);
  EXPECT_DOUBLE_EQ(res.total_latency_units.mean, 2.0);
  // runs[0] is preserved verbatim as the point sample.
  EXPECT_EQ(res.runs[0].messages, 100u);
}

TEST(Replication, ReplicaSeedsAreDistinctAndStable) {
  std::vector<std::uint64_t> seen;
  for (std::size_t cell = 0; cell < 40; ++cell)
    for (int r = 1; r < 6; ++r) seen.push_back(replica_seed(7, cell, r));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "replica seed collision";
  EXPECT_EQ(replica_seed(7, 3, 2), replica_seed(7, 3, 2));
  EXPECT_NE(replica_seed(7, 3, 2), replica_seed(8, 3, 2));
}

void expect_stats_equal(const MetricStats& a, const MetricStats& b, const char* what,
                        std::size_t i) {
  EXPECT_EQ(a.mean, b.mean) << what << " cell " << i;
  EXPECT_EQ(a.stddev, b.stddev) << what << " cell " << i;
  EXPECT_EQ(a.min, b.min) << what << " cell " << i;
  EXPECT_EQ(a.max, b.max) << what << " cell " << i;
  EXPECT_EQ(a.ci_lo, b.ci_lo) << what << " cell " << i;
  EXPECT_EQ(a.ci_hi, b.ci_hi) << what << " cell " << i;
}

TEST(Replication, ReplicatedSweepBitIdenticalAcrossThreadCounts) {
  // The acceptance bar: replicated mixed-protocol sweeps — including
  // closed-loop pointer forwarding and the torus/geometric/hypercube
  // families — must produce bit-identical statistics for any thread count
  // and vs the serial overload.
  auto cells = mixed_protocol_list();
  const ReplicationSpec spec{3, 77, 0.95};
  auto serial = run_replicated(cells, spec);
  ASSERT_EQ(serial.size(), cells.size());
  for (unsigned threads : {1u, 2u, 4u, 5u}) {
    auto parallel = run_replicated(cells, spec, SweepRunner(threads));
    ASSERT_EQ(parallel.size(), serial.size()) << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].label, serial[i].label) << i;
      EXPECT_EQ(parallel[i].result.replicas, 3) << i;
      expect_stats_equal(parallel[i].result.makespan_units, serial[i].result.makespan_units,
                         "makespan", i);
      expect_stats_equal(parallel[i].result.messages, serial[i].result.messages, "messages",
                         i);
      expect_stats_equal(parallel[i].result.total_hops, serial[i].result.total_hops, "hops",
                         i);
      expect_stats_equal(parallel[i].result.total_latency_units,
                         serial[i].result.total_latency_units, "latency", i);
      expect_stats_equal(parallel[i].result.avg_round_latency_units,
                         serial[i].result.avg_round_latency_units, "round-latency", i);
      ASSERT_EQ(parallel[i].result.runs.size(), serial[i].result.runs.size()) << i;
      for (std::size_t r = 0; r < serial[i].result.runs.size(); ++r) {
        EXPECT_EQ(parallel[i].result.runs[r].makespan, serial[i].result.runs[r].makespan)
            << i << " replica " << r;
        EXPECT_EQ(parallel[i].result.runs[r].messages, serial[i].result.runs[r].messages)
            << i << " replica " << r;
      }
    }
  }
}

TEST(Replication, CountOneDegeneratesToUnreplicatedSweep) {
  // R = 1 must reproduce run_experiments exactly: replica 0 is the cell as
  // given, and the statistics collapse onto the point sample.
  auto cells = mixed_protocol_list();
  const ReplicationSpec spec{1, 99, 0.95};
  auto folded = run_replicated(cells, spec);
  auto plain = run_experiments(cells);
  ASSERT_EQ(folded.size(), plain.size());
  for (std::size_t i = 0; i < folded.size(); ++i) {
    EXPECT_EQ(folded[i].result.replicas, 1) << i;
    EXPECT_EQ(folded[i].result.runs.front().makespan, plain[i].result.makespan) << i;
    EXPECT_EQ(folded[i].result.runs.front().messages, plain[i].result.messages) << i;
    EXPECT_DOUBLE_EQ(folded[i].result.makespan_units.mean,
                     ticks_to_units_d(plain[i].result.makespan))
        << i;
    EXPECT_DOUBLE_EQ(folded[i].result.makespan_units.stddev, 0.0) << i;
  }
}

TEST(Replication, ReplicasActuallyVaryOnRandomizedCells) {
  // A randomized topology/workload cell must show dispersion across
  // replicas — otherwise the seed-derivation policy is broken and every
  // "replica" reruns the same point.
  Experiment e;
  e.protocol = ProtocolSpec::arrow_one_shot();
  e.topology = TopologySpec::random_tree(24, 5);
  e.workload = WorkloadSpec::poisson(20, 0.5, 9);
  e.latency = LatencySpec::truncated_exp(11, 0.4);
  auto folded = run_replicated({e}, ReplicationSpec{6, 123, 0.95});
  ASSERT_EQ(folded.size(), 1u);
  const ReplicatedResult& r = folded[0].result;
  EXPECT_GT(r.makespan_units.stddev, 0.0);
  EXPECT_LT(r.makespan_units.ci_lo, r.makespan_units.mean);
  EXPECT_GT(r.makespan_units.ci_hi, r.makespan_units.mean);
  EXPECT_LE(r.makespan_units.min, r.makespan_units.mean);
  EXPECT_GE(r.makespan_units.max, r.makespan_units.mean);
}

TEST(Replication, ReplicaLabelsRetainedInReplicaOrder) {
  // Reseeded replicas can label differently from the cell (seed-dependent
  // topology tokens), so run_replicated keeps every replica's label;
  // replica_labels[0] is the cell's own.
  Experiment e;
  e.protocol = ProtocolSpec::arrow_one_shot();
  e.topology = TopologySpec::random_tree(24, 5);
  e.workload = WorkloadSpec::poisson(20, 0.5, 9);
  e.label = e.default_label();
  auto folded = run_replicated({e}, ReplicationSpec{4, 7, 0.95});
  ASSERT_EQ(folded.size(), 1u);
  ASSERT_EQ(folded[0].replica_labels.size(), 4u);
  EXPECT_EQ(folded[0].replica_labels.front(), folded[0].label);
  for (const std::string& label : folded[0].replica_labels) EXPECT_FALSE(label.empty());
}

// --- competitive analysis wiring --------------------------------------------

TEST(Experiment, AnalyzeFlagMatchesDirectAnalyzeCompetitive) {
  for (int seed : {0, 3, 5, 8}) {
    auto inst = testutil::make_instance(seed);
    Experiment e;
    e.protocol = ProtocolSpec::arrow_one_shot();
    e.topology = TopologySpec::custom(inst.graph, inst.tree);
    e.workload = WorkloadSpec::fixed(inst.requests);
    e.latency = LatencySpec::synchronous();
    e.keep_outcome = true;
    e.analyze = true;
    RunResult res = run_experiment(e);
    ASSERT_TRUE(res.outcome.has_value()) << seed;
    ASSERT_TRUE(res.competitive.has_value()) << seed;

    CompetitiveReport direct =
        analyze_competitive(inst.graph, inst.tree, inst.requests, *res.outcome);
    EXPECT_EQ(res.competitive->cost_arrow, direct.cost_arrow) << seed;
    EXPECT_EQ(res.competitive->ct_sum, direct.ct_sum) << seed;
    EXPECT_EQ(res.competitive->t_last, direct.t_last) << seed;
    EXPECT_EQ(res.competitive->lemma310_exact, direct.lemma310_exact) << seed;
    EXPECT_EQ(res.competitive->opt.exact, direct.opt.exact) << seed;
    EXPECT_EQ(res.competitive->opt.mst_cm, direct.opt.mst_cm) << seed;
    EXPECT_EQ(res.competitive->opt.value, direct.opt.value) << seed;
    EXPECT_DOUBLE_EQ(res.competitive->ratio, direct.ratio) << seed;
    EXPECT_DOUBLE_EQ(res.competitive->s_log_d, direct.s_log_d) << seed;
    EXPECT_DOUBLE_EQ(res.competitive->stretch, direct.stretch) << seed;
    EXPECT_EQ(res.competitive->tree_diameter, direct.tree_diameter) << seed;
    // The synchronous arrow run satisfies Lemma 3.10 exactly, so the wired
    // report carries real content, not zeros.
    EXPECT_TRUE(res.competitive->lemma310_exact) << seed;
  }
}

TEST(Experiment, AnalyzeIsNoOpForClosedLoops) {
  Experiment e;
  e.protocol = ProtocolSpec::arrow_closed_loop();
  e.topology = TopologySpec::complete(16);
  e.rounds = 5;
  e.keep_outcome = true;  // closed loops produce no outcome to keep
  e.analyze = true;
  RunResult res = run_experiment(e);
  EXPECT_FALSE(res.outcome.has_value());
  EXPECT_FALSE(res.competitive.has_value());
}

// --- spec plumbing ----------------------------------------------------------

TEST(Experiment, DefaultLabelAndWithSeed) {
  Experiment e;
  e.protocol = ProtocolSpec::centralized();
  e.topology = TopologySpec::complete(32);
  e.latency = LatencySpec::uniform_async(1, 0.1);
  EXPECT_EQ(e.default_label(), "centralized complete-32 uniform-async");

  Experiment a = e.with_seed(7), b = e.with_seed(7), c = e.with_seed(8);
  EXPECT_EQ(a.latency.seed, b.latency.seed);
  EXPECT_NE(a.latency.seed, c.latency.seed);
  EXPECT_NE(a.topology.seed, a.workload.seed);  // decorrelated sub-streams
}

TEST(Experiment, WorkloadSpecsMaterializeGeneratorCalls) {
  // Each declarative kind must reproduce the direct generator call that
  // bench/tests historically made.
  const NodeId n = 20;
  {
    RequestSet want = one_shot_all(n, 3);
    RequestSet got = WorkloadSpec::one_shot_all().build(n, 3);
    ASSERT_EQ(got.size(), want.size());
    for (RequestId id = 1; id <= want.size(); ++id) {
      EXPECT_EQ(got.by_id(id).node, want.by_id(id).node);
      EXPECT_EQ(got.by_id(id).time, want.by_id(id).time);
    }
  }
  {
    // Same spec twice -> identical schedules; different seed -> different.
    WorkloadSpec w = WorkloadSpec::poisson(15, 0.5, 99);
    RequestSet a = w.build(n, 0);
    RequestSet b = w.build(n, 0);
    ASSERT_EQ(a.size(), b.size());
    bool identical = true;
    for (RequestId id = 1; id <= a.size(); ++id)
      identical = identical && a.by_id(id).node == b.by_id(id).node &&
                  a.by_id(id).time == b.by_id(id).time;
    EXPECT_TRUE(identical);
    WorkloadSpec w2 = WorkloadSpec::poisson(15, 0.5, 100);
    RequestSet c = w2.build(n, 0);
    bool all_same = a.size() == c.size();
    if (all_same)
      for (RequestId id = 1; id <= a.size(); ++id)
        all_same = all_same && a.by_id(id).node == c.by_id(id).node &&
                   a.by_id(id).time == c.by_id(id).time;
    EXPECT_FALSE(all_same);
  }
}

TEST(Experiment, SkewedPoissonConcentratesOnTheHotNode) {
  const NodeId n = 20;
  const NodeId hot = 7;
  // build() routes through poisson_hotspot exactly (same derived RNG stream
  // as the uniform branch).
  {
    WorkloadSpec w = WorkloadSpec::poisson_skewed(300, 0.5, hot, 0.9, /*seed=*/42);
    RequestSet got = w.build(n, 0);
    Rng rng(mix64(42 + 0x10ad0001));
    RequestSet want = poisson_hotspot(n, /*root=*/0, 300, 0.5, hot, 0.9, rng);
    ASSERT_EQ(got.size(), want.size());
    int hot_count = 0;
    for (RequestId id = 1; id <= got.size(); ++id) {
      EXPECT_EQ(got.by_id(id).node, want.by_id(id).node);
      EXPECT_EQ(got.by_id(id).time, want.by_id(id).time);
      if (got.by_id(id).node == hot) ++hot_count;
    }
    // At P = 0.9 the hot node must dominate: at minimum well past the ~5%
    // a uniform draw over 20 nodes would give it (loose bound, no flakes).
    EXPECT_GT(hot_count, static_cast<int>(got.size()) / 2);
  }
  // hot_probability = 0 stays on the uniform generator: no node dominates.
  {
    RequestSet uniform = WorkloadSpec::poisson(300, 0.5, /*seed=*/42).build(n, 0);
    int hot_count = 0;
    for (RequestId id = 1; id <= uniform.size(); ++id)
      if (uniform.by_id(id).node == hot) ++hot_count;
    EXPECT_LT(hot_count, static_cast<int>(uniform.size()) / 2);
  }
}

TEST(Experiment, TopologySpecsMaterializeGenerators) {
  {
    Graph g = TopologySpec::complete(16).build_graph();
    EXPECT_EQ(g.node_count(), 16);
    EXPECT_EQ(g.edge_count(), 16u * 15u / 2u);
    Tree t = TopologySpec::complete(16).build_tree(g);
    for (NodeId v = 1; v < 16; ++v) EXPECT_EQ(t.parent(v), (v - 1) / 2);
  }
  {
    TopologySpec spec = TopologySpec::grid(4, 5);
    Graph g = spec.build_graph();
    EXPECT_EQ(g.node_count(), 20);
    Tree t = spec.build_tree(g);
    EXPECT_EQ(t.root(), 0);
  }
  {
    TopologySpec spec = TopologySpec::weighted_tree(18, 5, 7);
    Graph g = spec.build_graph();
    EXPECT_EQ(g.node_count(), 18);
    EXPECT_EQ(g.edge_count(), 17u);
    bool weighted = false;
    for (const Edge& e : g.edges()) {
      EXPECT_GE(e.weight, 1);
      EXPECT_LE(e.weight, 7);
      weighted = weighted || e.weight > 1;
    }
    EXPECT_TRUE(weighted);
    // Same seed rebuilds the same graph (value-object determinism).
    Graph g2 = spec.build_graph();
    ASSERT_EQ(g2.edge_count(), g.edge_count());
    for (std::size_t i = 0; i < g.edges().size(); ++i) {
      EXPECT_EQ(g.edges()[i].u, g2.edges()[i].u);
      EXPECT_EQ(g.edges()[i].v, g2.edges()[i].v);
      EXPECT_EQ(g.edges()[i].weight, g2.edges()[i].weight);
    }
  }
}

}  // namespace
}  // namespace arrowdq
