// Bit-identity pins for the sharded conservative engine.
//
// The contract under test (src/sim/parallel/): for any shard count K, every
// sharded entry point reproduces its serial driver's observable outcome bit
// for bit — same completions, same makespan, same message counts, same
// exact-sum latency averages. The strongest form of that claim is replayed
// here: all 30 golden hashes from tests/golden_test.cpp, pinned against the
// original serial core, must come out of the sharded engine unchanged at
// K = 2 and K = 4. On top of the pins, randomized property runs cross
// topology x latency model x fault schedule and compare K in {1, 2, 4}
// against the serial driver field by field, the forced-lookahead-1
// lock-step fallback is exercised on the same pins, and custom partition
// bounds stress same-tick cross-shard ties at the barrier merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "baseline/centralized.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "exp/experiment.hpp"
#include "graph/implicit.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/queuing.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/parallel/parallel.hpp"
#include "testutil.hpp"

namespace arrowdq {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t x) { add(static_cast<std::uint64_t>(x)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_outcome(Fnv1a& h, const QueuingOutcome& out) {
  for (RequestId id : out.order()) h.add_signed(id);
  for (RequestId id = 1; id <= out.request_count(); ++id) {
    const Completion& c = out.completion(id);
    h.add_signed(c.predecessor);
    h.add_signed(c.completed_at);
    h.add_signed(c.hops);
    h.add_signed(c.distance);
  }
}

ShardSpec spec_of(int shards, Time force_lookahead = 0) {
  ShardSpec s;
  s.shards = shards;
  s.force_lookahead = force_lookahead;
  return s;
}

// The four case recipes below replicate tests/golden_test.cpp exactly —
// same instances, same latency models, same fold order — with the serial
// entry swapped for the sharded one. Each must reproduce the serial pin.

std::uint64_t sharded_arrow_case_hash(int seed, const ShardSpec& spec) {
  auto inst = testutil::make_tree_instance(seed);
  std::unique_ptr<LatencyModel> lat =
      seed % 2 ? make_uniform_async(static_cast<std::uint64_t>(seed) * 29 + 5, 0.1)
               : make_synchronous();
  const Time service = seed % 3 == 2 ? kTicksPerUnit / 8 : 0;
  ShardedArrowRun r =
      run_arrow_one_shot_sharded(inst.tree, inst.requests, *lat, service, FaultSpec{}, spec);
  r.out.validate(inst.requests);
  Fnv1a h;
  hash_outcome(h, r.out);
  for (NodeId link : r.links) h.add_signed(link);
  h.add_signed(r.sink);
  h.add(r.messages);
  h.add_signed(r.makespan);
  return h.value();
}

std::uint64_t sharded_closed_loop_case_hash(int seed, const ShardSpec& spec) {
  auto inst = testutil::make_tree_instance(seed);
  std::unique_ptr<LatencyModel> lat =
      seed % 2 ? make_truncated_exp(static_cast<std::uint64_t>(seed) * 17 + 3, 0.4)
               : make_synchronous();
  ClosedLoopConfig cfg;
  cfg.requests_per_node = 20 + seed % 7;
  cfg.service_time = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
  ClosedLoopResult res = run_arrow_closed_loop_sharded(inst.tree, *lat, cfg, spec);
  Fnv1a h;
  h.add_signed(res.makespan);
  h.add_signed(res.total_requests);
  h.add(res.tree_messages);
  h.add(res.notify_messages);
  return h.value();
}

std::uint64_t sharded_baseline_case_hash(int seed, const ShardSpec& spec) {
  auto inst = testutil::make_instance(seed);
  AllPairs apsp(inst.graph);
  auto dist = apsp_dist_fn(apsp);
  Fnv1a h;
  {
    CentralizedConfig cfg;
    cfg.center = inst.requests.root();
    cfg.service_time = seed % 2 ? kTicksPerUnit / 8 : 0;
    QueuingOutcome out =
        run_centralized_sharded(inst.graph.node_count(), inst.requests, dist, cfg, spec);
    out.validate(inst.requests);
    hash_outcome(h, out);
  }
  {
    PointerForwardingConfig cfg;
    cfg.mode = seed % 2 ? ForwardingMode::kReverseToSender : ForwardingMode::kCompressToRequester;
    cfg.initial_owner = inst.requests.root();
    QueuingOutcome out =
        run_pointer_forwarding_sharded(inst.graph.node_count(), inst.requests, dist, cfg, spec);
    out.validate(inst.requests);
    hash_outcome(h, out);
  }
  return h.value();
}

std::uint64_t sharded_forwarding_loop_case_hash(int seed, const ShardSpec& spec) {
  auto inst = testutil::make_instance(seed);
  AllPairs apsp(inst.graph);
  PointerForwardingConfig cfg;
  cfg.mode = seed % 2 ? ForwardingMode::kReverseToSender : ForwardingMode::kCompressToRequester;
  cfg.service_time = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
  cfg.initial_owner = inst.requests.root();
  ForwardingLoopResult res = run_pointer_forwarding_closed_loop_sharded(
      inst.graph.node_count(), 10 + seed % 6, apsp_dist_fn(apsp), cfg, spec);
  Fnv1a h;
  h.add_signed(res.makespan);
  h.add_signed(res.total_requests);
  h.add(res.find_messages);
  h.add(res.reply_messages);
  return h.value();
}

// Pins copied verbatim from tests/golden_test.cpp (recorded against the
// serial seed core) — the sharded engine must reproduce them unchanged.
constexpr int kArrowCases = 12;
constexpr int kLoopCases = 6;
constexpr int kBaselineCases = 6;
constexpr int kForwardLoopCases = 6;

constexpr std::uint64_t kArrowGolden[kArrowCases] = {
    0xa3ade1240818de46ULL, 0x274910a9ef0bc26cULL, 0x404b9d9836515fa4ULL,
    0xa7ebda7ee0383d5eULL, 0x53bd9a048b4452f3ULL, 0x5a18688a32ef00adULL,
    0xe6c14bbbd76a9fc6ULL, 0xbc8e13cfa33e9702ULL, 0x518c82754f88fbcbULL,
    0x67dc5498a20ecb10ULL, 0x2c56d49a5d19d2f2ULL, 0xebc3eb6f5728fafbULL,
};
constexpr std::uint64_t kLoopGolden[kLoopCases] = {
    0xa2b7a93c0f54b90dULL, 0x01a7ddb264d4e040ULL, 0xfec69f80e67ecc6bULL,
    0xc70b1c1a7415989fULL, 0x8fd7e09eb5015d8fULL, 0x1f545d89b56fe700ULL,
};
constexpr std::uint64_t kBaselineGolden[kBaselineCases] = {
    0x7d578953c5317ac1ULL, 0x67756554244e97e0ULL, 0xe4d98f25eb225b1eULL,
    0x8f7019033c6c7ccdULL, 0xf41286ee244fee07ULL, 0xe6ab23ba7db16448ULL,
};
constexpr std::uint64_t kForwardLoopGolden[kForwardLoopCases] = {
    0xa69e76166af37bffULL, 0x7a8ed0ca0849b181ULL, 0xe24b0d7463ce83a0ULL,
    0x92289a766347d17dULL, 0x6935c587a2e6cea1ULL, 0xf5f47e33a0435fb2ULL,
};

class ShardedGolden : public ::testing::TestWithParam<int> {};

TEST_P(ShardedGolden, ArrowOneShot) {
  const ShardSpec spec = spec_of(GetParam());
  for (int seed = 0; seed < kArrowCases; ++seed)
    EXPECT_EQ(sharded_arrow_case_hash(seed, spec), kArrowGolden[seed])
        << "arrow seed " << seed << " K=" << GetParam();
}

TEST_P(ShardedGolden, ArrowClosedLoop) {
  const ShardSpec spec = spec_of(GetParam());
  for (int seed = 0; seed < kLoopCases; ++seed)
    EXPECT_EQ(sharded_closed_loop_case_hash(seed, spec), kLoopGolden[seed])
        << "closed-loop seed " << seed << " K=" << GetParam();
}

TEST_P(ShardedGolden, Baselines) {
  const ShardSpec spec = spec_of(GetParam());
  for (int seed = 0; seed < kBaselineCases; ++seed)
    EXPECT_EQ(sharded_baseline_case_hash(seed, spec), kBaselineGolden[seed])
        << "baseline seed " << seed << " K=" << GetParam();
}

TEST_P(ShardedGolden, PointerForwardingClosedLoop) {
  const ShardSpec spec = spec_of(GetParam());
  for (int seed = 0; seed < kForwardLoopCases; ++seed)
    EXPECT_EQ(sharded_forwarding_loop_case_hash(seed, spec), kForwardLoopGolden[seed])
        << "forwarding-loop seed " << seed << " K=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedGolden, ::testing::Values(2, 4),
                         [](const auto& info) { return "K" + std::to_string(info.param); });

// Forcing lookahead 1 degenerates every window to a single tick — the
// fallback for models whose latency floor the engine cannot bound above
// zero. The merge machinery then runs at maximum barrier frequency and must
// still reproduce the pins.
TEST(ShardedLockstep, ForcedLookaheadOneReproducesGoldens) {
  const ShardSpec spec = spec_of(4, /*force_lookahead=*/1);
  for (int seed : {0, 1, 5}) {
    EXPECT_EQ(sharded_arrow_case_hash(seed, spec), kArrowGolden[seed]) << "arrow seed " << seed;
    EXPECT_EQ(sharded_closed_loop_case_hash(seed, spec), kLoopGolden[seed])
        << "closed-loop seed " << seed;
  }
  EXPECT_EQ(sharded_baseline_case_hash(2, spec), kBaselineGolden[2]);
  EXPECT_EQ(sharded_forwarding_loop_case_hash(3, spec), kForwardLoopGolden[3]);
}

// A synchronous one-shot burst on a path makes *every* message between the
// two halves land on the same ticks: the barrier merge sees cross-shard
// entries tied on time every window and must order them by the serial
// (parent seq, call index) key. Lopsided explicit bounds move the cut so
// ties cross at different tree depths.
TEST(ShardedDeterminism, SameTickCrossShardTies) {
  const Tree tree = testutil::path_tree(32, /*root=*/0);
  const RequestSet burst = one_shot_all(32, 0);
  auto reference_hash = [&]() {
    auto lat = make_synchronous();
    ArrowEngine engine(tree, *lat);
    QueuingOutcome out = engine.run(burst);
    Fnv1a h;
    hash_outcome(h, out);
    for (NodeId link : engine.links()) h.add_signed(link);
    h.add_signed(engine.sink_node());
    h.add(engine.messages_sent());
    h.add_signed(engine.sim().now());
    return h.value();
  }();
  const std::vector<std::vector<NodeId>> partitions = {
      {0, 16, 32}, {0, 1, 32}, {0, 31, 32}, {0, 5, 11, 23, 32}, {0, 8, 16, 24, 32}};
  for (const auto& bounds : partitions) {
    ShardSpec spec;
    spec.shards = static_cast<int>(bounds.size()) - 1;
    spec.bounds = bounds;
    auto lat = make_synchronous();
    ShardedArrowRun r = run_arrow_one_shot_sharded(tree, burst, *lat, 0, FaultSpec{}, spec);
    Fnv1a h;
    hash_outcome(h, r.out);
    for (NodeId link : r.links) h.add_signed(link);
    h.add_signed(r.sink);
    h.add(r.messages);
    h.add_signed(r.makespan);
    EXPECT_EQ(h.value(), reference_hash) << "bounds[1]=" << bounds[1];
  }
}

void expect_loop_results_equal(const ClosedLoopResult& a, const ClosedLoopResult& b,
                               const char* what, int k) {
  EXPECT_EQ(a.makespan, b.makespan) << what << " K=" << k;
  EXPECT_EQ(a.total_requests, b.total_requests) << what << " K=" << k;
  EXPECT_EQ(a.tree_messages, b.tree_messages) << what << " K=" << k;
  EXPECT_EQ(a.notify_messages, b.notify_messages) << what << " K=" << k;
  EXPECT_EQ(a.avg_hops_per_request, b.avg_hops_per_request) << what << " K=" << k;
  EXPECT_EQ(a.avg_round_latency_units, b.avg_round_latency_units) << what << " K=" << k;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << what << " K=" << k;
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated) << what << " K=" << k;
}

// Randomized equivalence sweep: topology x latency model x message-fault
// schedule, serial closed loop vs sharded at K in {1, 2, 4}. Every field is
// compared exactly, including the two doubles — exact integer latency sums
// make even the averages bit-identical.
TEST(ShardedEquivalence, ClosedLoopUnderMessageFaults) {
  const FaultSpec faults[] = {
      FaultSpec::none(),          FaultSpec::loss(0.08),
      FaultSpec::duplicate(0.1),  FaultSpec::jitter(0.2, 1.5),
      FaultSpec::spike(0.15, 4.0), FaultSpec::chaos().without_crash(),
  };
  for (int seed = 0; seed < 6; ++seed) {
    auto inst = testutil::make_tree_instance(seed * 7 + 1);
    ClosedLoopConfig cfg;
    cfg.requests_per_node = 6 + seed % 4;
    cfg.service_time = seed % 2 ? kTicksPerUnit / 16 : 0;
    cfg.fault = faults[seed % 6];
    cfg.fault.seed = static_cast<std::uint64_t>(seed) * 101 + 7;
    auto make_lat = [&]() -> std::unique_ptr<LatencyModel> {
      switch (seed % 3) {
        case 0: return make_synchronous();
        case 1: return make_uniform_async(static_cast<std::uint64_t>(seed) * 31 + 11, 0.25);
        default: return make_truncated_exp(static_cast<std::uint64_t>(seed) * 13 + 5, 0.5);
      }
    };
    auto serial_lat = make_lat();
    const ClosedLoopResult serial = run_arrow_closed_loop(inst.tree, *serial_lat, cfg);
    for (int k : {1, 2, 4}) {
      auto lat = make_lat();
      ParallelStats stats;
      const ClosedLoopResult sharded =
          run_arrow_closed_loop_sharded(inst.tree, *lat, cfg, spec_of(k), &stats);
      expect_loop_results_equal(serial, sharded, "closed loop", k);
      EXPECT_GE(stats.lookahead, 1) << "K=" << k;
      EXPECT_GE(stats.windows, 1u) << "K=" << k;
      EXPECT_GT(stats.events_executed, 0u) << "K=" << k;
    }
  }
}

// The implicit (million-node) tier through the sharded engine: every
// closed-form family, serial CompactSimulator driver vs sharded lanes.
TEST(ShardedEquivalence, ImplicitClosedLoopAllFamilies) {
  const ImplicitTopology topos[] = {
      {ImplicitFamily::kComplete, 48, 0, 0, /*root=*/3, false},
      {ImplicitFamily::kComplete, 64, 0, 0, /*root=*/0, /*balanced_binary=*/true},
      {ImplicitFamily::kPath, 200, 0, 0, /*root=*/7, false},
      {ImplicitFamily::kRing, 151, 0, 0, /*root=*/20, false},
      {ImplicitFamily::kGrid, 12 * 13, 12, 13, /*root=*/5, false},
      {ImplicitFamily::kTorus, 9 * 11, 9, 11, /*root=*/0, false},
      {ImplicitFamily::kHypercube, 128, 0, 0, /*root=*/0, false},
  };
  int seed = 0;
  for (const auto& topo : topos) {
    ClosedLoopConfig cfg;
    cfg.requests_per_node = 3;
    cfg.service_time = seed % 2 ? kTicksPerUnit / 16 : 0;
    if (seed % 3 == 2) cfg.fault = FaultSpec::duplicate(0.05);
    auto make_lat = [&]() -> std::unique_ptr<LatencyModel> {
      return seed % 2 ? make_truncated_exp(static_cast<std::uint64_t>(seed) * 19 + 3, 0.4)
                      : std::unique_ptr<LatencyModel>(make_synchronous());
    };
    auto serial_lat = make_lat();
    const ClosedLoopResult serial = run_arrow_closed_loop_implicit(topo, *serial_lat, cfg);
    for (int k : {1, 2, 4}) {
      auto lat = make_lat();
      const ClosedLoopResult sharded =
          run_arrow_closed_loop_implicit_sharded(topo, *lat, cfg, spec_of(k));
      expect_loop_results_equal(serial, sharded, "implicit", k);
    }
    ++seed;
  }
}

// One-shot arrow under message faults: the outcome (every completion
// record), pointer state, sink, message count, and makespan must all match
// the serial engine run with the same schedule.
TEST(ShardedEquivalence, ArrowOneShotUnderMessageFaults) {
  const FaultSpec faults[] = {
      FaultSpec::loss(0.1),
      FaultSpec::duplicate(0.15),
      FaultSpec::jitter(0.25, 2.0),
      FaultSpec::chaos().without_crash(),
  };
  for (int seed = 0; seed < 8; ++seed) {
    auto inst = testutil::make_tree_instance(seed * 5 + 2);
    FaultSpec fault = faults[seed % 4];
    fault.seed = static_cast<std::uint64_t>(seed) * 73 + 19;
    const Time service = seed % 2 ? kTicksPerUnit / 8 : 0;
    auto make_lat = [&]() -> std::unique_ptr<LatencyModel> {
      return seed % 2 ? make_uniform_async(static_cast<std::uint64_t>(seed) * 41 + 9, 0.2)
                      : std::unique_ptr<LatencyModel>(make_synchronous());
    };
    auto serial_hash = [&]() {
      auto lat = make_lat();
      ArrowEngine engine(inst.tree, *lat);
      engine.set_service_time(service);
      engine.set_fault(fault);
      QueuingOutcome out = engine.run(inst.requests);
      Fnv1a h;
      hash_outcome(h, out);
      for (NodeId link : engine.links()) h.add_signed(link);
      h.add_signed(engine.sink_node());
      h.add(engine.messages_sent());
      h.add_signed(engine.sim().now());
      return h.value();
    }();
    for (int k : {1, 2, 4}) {
      auto lat = make_lat();
      ShardedArrowRun r =
          run_arrow_one_shot_sharded(inst.tree, inst.requests, *lat, service, fault, spec_of(k));
      Fnv1a h;
      hash_outcome(h, r.out);
      for (NodeId link : r.links) h.add_signed(link);
      h.add_signed(r.sink);
      h.add(r.messages);
      h.add_signed(r.makespan);
      EXPECT_EQ(h.value(), serial_hash) << "seed " << seed << " K=" << k;
    }
  }
}

// Forwarding closed loop under message faults, all fields exact.
TEST(ShardedEquivalence, ForwardingLoopUnderMessageFaults) {
  for (int seed = 0; seed < 6; ++seed) {
    auto inst = testutil::make_instance(seed * 3 + 1);
    AllPairs apsp(inst.graph);
    auto dist = apsp_dist_fn(apsp);
    PointerForwardingConfig cfg;
    cfg.mode = seed % 2 ? ForwardingMode::kReverseToSender : ForwardingMode::kCompressToRequester;
    cfg.service_time = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
    cfg.initial_owner = inst.requests.root();
    if (seed % 2) {
      cfg.fault = FaultSpec::jitter(0.3, 1.0);
      cfg.fault.seed = static_cast<std::uint64_t>(seed) * 57 + 1;
    }
    const std::int64_t rounds = 4 + seed % 3;
    const ForwardingLoopResult serial =
        run_pointer_forwarding_closed_loop(inst.graph.node_count(), rounds, dist, cfg);
    for (int k : {1, 2, 4}) {
      const ForwardingLoopResult sharded = run_pointer_forwarding_closed_loop_sharded(
          inst.graph.node_count(), rounds, dist, cfg, spec_of(k));
      EXPECT_EQ(serial.makespan, sharded.makespan) << "seed " << seed << " K=" << k;
      EXPECT_EQ(serial.total_requests, sharded.total_requests) << "seed " << seed << " K=" << k;
      EXPECT_EQ(serial.find_messages, sharded.find_messages) << "seed " << seed << " K=" << k;
      EXPECT_EQ(serial.reply_messages, sharded.reply_messages) << "seed " << seed << " K=" << k;
      EXPECT_EQ(serial.avg_hops_per_request, sharded.avg_hops_per_request)
          << "seed " << seed << " K=" << k;
      EXPECT_EQ(serial.avg_round_latency_units, sharded.avg_round_latency_units)
          << "seed " << seed << " K=" << k;
      EXPECT_EQ(serial.messages_dropped, sharded.messages_dropped) << "seed " << seed << " K=" << k;
      EXPECT_EQ(serial.messages_duplicated, sharded.messages_duplicated)
          << "seed " << seed << " K=" << k;
    }
  }
}

// More shards than nodes: the partition clamps K to n (no empty lanes) and
// the run still reproduces the serial pin.
TEST(ShardedDeterminism, ShardCountExceedingNodesClamps) {
  EXPECT_EQ(sharded_arrow_case_hash(0, spec_of(64)), kArrowGolden[0]);
  EXPECT_EQ(sharded_closed_loop_case_hash(0, spec_of(64)), kLoopGolden[0]);
}

// Experiment::shards routes kArrowClosedLoop through the sharded engine —
// both the materialized and implicit tiers — with identical RunResults, and
// validate_experiment rejects the combinations the engine cannot run.
TEST(ShardedExperiment, RegistryRoutingAndValidation) {
  Experiment base;
  base.protocol = ProtocolSpec::arrow_closed_loop(kTicksPerUnit / 16);
  base.latency = LatencySpec::uniform_async(/*seed=*/11, 0.2);
  base.rounds = 5;
  for (TopologySpec topo :
       {TopologySpec::complete(80), TopologySpec::random_tree(64, /*seed=*/9)}) {
    Experiment e = base;
    e.topology = topo;
    RunResult serial = run_experiment(e);
    e.shards = 4;
    EXPECT_EQ(validate_experiment(e), std::nullopt);
    RunResult sharded = run_experiment(e);
    EXPECT_EQ(serial.makespan, sharded.makespan) << topo.family_name();
    EXPECT_EQ(serial.total_requests, sharded.total_requests) << topo.family_name();
    EXPECT_EQ(serial.messages, sharded.messages) << topo.family_name();
    EXPECT_EQ(serial.total_hops, sharded.total_hops) << topo.family_name();
    EXPECT_EQ(serial.avg_hops_per_request, sharded.avg_hops_per_request) << topo.family_name();
    EXPECT_EQ(serial.avg_round_latency_units, sharded.avg_round_latency_units)
        << topo.family_name();
  }
  {
    // CLI "centralized" is always closed-loop; its reply loop has no
    // sharded mirror, so shards > 1 stays a validation error there.
    Experiment e = base;
    e.topology = TopologySpec::complete(32);
    e.protocol = ProtocolSpec::centralized(0);
    e.shards = 2;
    EXPECT_NE(validate_experiment(e), std::nullopt) << "unwired protocol must be rejected";
  }
  {
    Experiment e = base;
    e.topology = TopologySpec::complete(32);
    e.fault = FaultSpec::crash(2);
    e.shards = 2;
    EXPECT_NE(validate_experiment(e), std::nullopt) << "crash schedule must be rejected";
  }
  {
    Experiment e = base;
    e.topology = TopologySpec::complete(32);
    e.protocol = ProtocolSpec::token_passing();
    e.shards = 2;
    EXPECT_NE(validate_experiment(e), std::nullopt)
        << "token passing replays an analytic order — inherently serial";
  }
}

// Every mirror wired through Experiment::shards beyond the original
// arrow-closed-loop path: one-shot arrow, centralized one-shot (rounds = 0),
// and pointer forwarding in both modes and both loop shapes. Each must be
// field-by-field identical to its serial run at K in {2, 4}.
TEST(ShardedExperiment, NewlyWiredMirrorsMatchSerial) {
  auto expect_match = [](Experiment e, const char* what) {
    e = e.with_seed(23);
    const RunResult serial = run_experiment(e);
    for (int k : {2, 4}) {
      Experiment sharded_e = e;
      sharded_e.shards = k;
      EXPECT_EQ(validate_experiment(sharded_e), std::nullopt) << what;
      const RunResult sharded = run_experiment(sharded_e);
      EXPECT_EQ(serial.makespan, sharded.makespan) << what << " K=" << k;
      EXPECT_EQ(serial.total_requests, sharded.total_requests) << what << " K=" << k;
      EXPECT_EQ(serial.messages, sharded.messages) << what << " K=" << k;
      EXPECT_EQ(serial.total_hops, sharded.total_hops) << what << " K=" << k;
      EXPECT_EQ(serial.avg_hops_per_request, sharded.avg_hops_per_request)
          << what << " K=" << k;
      EXPECT_EQ(serial.avg_round_latency_units, sharded.avg_round_latency_units)
          << what << " K=" << k;
      EXPECT_EQ(serial.messages_dropped, sharded.messages_dropped) << what << " K=" << k;
    }
  };

  Experiment arrow_os;
  arrow_os.protocol = ProtocolSpec::arrow_one_shot(kTicksPerUnit / 16);
  arrow_os.topology = TopologySpec::random_tree(48, /*seed=*/3);
  arrow_os.latency = LatencySpec::uniform_async(/*seed=*/7, 0.2);
  arrow_os.workload = WorkloadSpec::poisson(40, 0.5, /*seed=*/0);
  expect_match(arrow_os, "arrow one-shot");

  Experiment arrow_faulty = arrow_os;
  arrow_faulty.fault = FaultSpec::loss(0.1);
  expect_match(arrow_faulty, "arrow one-shot + message loss");

  Experiment central_os;
  central_os.protocol = ProtocolSpec::centralized(0, kTicksPerUnit / 16);
  central_os.topology = TopologySpec::complete(40);
  central_os.latency = LatencySpec::uniform_async(/*seed=*/5, 0.2);
  central_os.workload = WorkloadSpec::poisson(30, 0.5, /*seed=*/0);
  expect_match(central_os, "centralized one-shot");

  for (ForwardingMode mode :
       {ForwardingMode::kCompressToRequester, ForwardingMode::kReverseToSender}) {
    Experiment fwd_os;
    fwd_os.protocol = ProtocolSpec::pointer_forwarding(mode, kTicksPerUnit / 16);
    fwd_os.topology = TopologySpec::complete(40);
    fwd_os.latency = LatencySpec::uniform_async(/*seed=*/9, 0.2);
    fwd_os.workload = WorkloadSpec::poisson(30, 0.5, /*seed=*/0);
    expect_match(fwd_os, mode == ForwardingMode::kCompressToRequester
                             ? "forwarding one-shot (compress)"
                             : "forwarding one-shot (reverse)");

    Experiment fwd_loop = fwd_os;
    fwd_loop.workload = WorkloadSpec::one_shot_all();
    fwd_loop.rounds = 6;
    expect_match(fwd_loop, mode == ForwardingMode::kCompressToRequester
                               ? "forwarding closed loop (compress)"
                               : "forwarding closed loop (reverse)");
  }
}

// Four threads released together query one fresh table, each in its own
// pair order, so rows are filled and read concurrently: every answer must
// match the serial reference, and TSan checks the fill and its publication.
TEST(AllPairsConcurrency, ThreadsShareOneLazyTable) {
  const Graph g = TopologySpec::geometric(200, /*seed=*/17).build_graph();
  const NodeId n = g.node_count();
  std::vector<std::vector<Weight>> ref;
  for (NodeId u = 0; u < n; ++u) ref.push_back(sssp(g, u));
  const AllPairs table(g);
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::int64_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (NodeId i = 0; i < n; ++i)
        for (NodeId j = 0; j < n; ++j) {
          // Thread t starts a quarter further round the rows, odd ones
          // walk each row backwards.
          const NodeId u = (i + t * n / kThreads) % n;
          const NodeId v = t % 2 ? n - 1 - j : j;
          if (table.dist(u, v) != ref[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)])
            ++mismatches[static_cast<std::size_t>(t)];
        }
    });
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << t;
  EXPECT_LE(table.rows_filled(), n);
}

// On an irregular family both one-shot baselines read a fresh AllPairs
// table through the shared oracle. Every node requests at t = 0, so the
// K = 2 lanes start forwarding finds in the same window and fill rows
// concurrently (TSan covers the fill). Every observable, the full queuing
// outcome included, must equal the K = 1 run.
TEST(ShardedExperiment, SharedLazyTableMatchesSerial) {
  Experiment base;
  base.topology = TopologySpec::geometric(160, /*seed=*/21);
  base.latency = LatencySpec::uniform_async(/*seed=*/13, 0.3);
  base.workload = WorkloadSpec::one_shot_all();
  base.keep_outcome = true;
  const auto outcome_hash = [](const RunResult& r) {
    Fnv1a h;
    hash_outcome(h, *r.outcome);
    return h.value();
  };
  for (const ProtocolSpec& p :
       {ProtocolSpec::centralized(/*center=*/37, kTicksPerUnit / 16),
        ProtocolSpec::pointer_forwarding(ForwardingMode::kCompressToRequester),
        ProtocolSpec::pointer_forwarding(ForwardingMode::kReverseToSender, kTicksPerUnit / 8)}) {
    Experiment e = base;
    e.protocol = p;
    e.shards = 1;
    const RunResult serial = run_experiment(e);
    e.shards = 2;
    ASSERT_EQ(validate_experiment(e), std::nullopt) << p.name();
    const RunResult sharded = run_experiment(e);
    EXPECT_EQ(outcome_hash(serial), outcome_hash(sharded)) << p.name();
    EXPECT_EQ(serial.makespan, sharded.makespan) << p.name();
    EXPECT_EQ(serial.messages, sharded.messages) << p.name();
    EXPECT_EQ(serial.total_hops, sharded.total_hops) << p.name();
    EXPECT_EQ(serial.total_latency, sharded.total_latency) << p.name();
    EXPECT_EQ(serial.total_distance, sharded.total_distance) << p.name();
    EXPECT_EQ(serial.avg_hops_per_request, sharded.avg_hops_per_request) << p.name();
  }
}

}  // namespace
}  // namespace arrowdq
