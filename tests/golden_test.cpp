// Golden determinism pins for the event core.
//
// Each case runs a seeded (tree, schedule, latency) instance through the
// full simulation stack and folds the complete observable outcome — the
// total order, every completion record (predecessor, completion time, hops,
// weighted distance), the post-run pointer state and sink — into one 64-bit
// FNV-1a hash, pinned below. The pins were recorded against the original
// std::priority_queue + std::function core, so any event-core rewrite that
// perturbs tie-breaking, FIFO clamping, or service-time serialization by
// even one tick flips a hash and fails loudly.
//
// Regenerate (only when an *intentional* behavior change is made): run with
// --gtest_also_run_disabled_tests and copy the table printed by
// DISABLED_PrintActualHashes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "baseline/centralized.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "proto/queuing.hpp"
#include "sim/latency.hpp"
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

/// Arrow one-shot on a seeded instance; odd seeds use an async latency
/// model (exercising the per-edge FIFO clamp), seeds 2 mod 3 add a serial
/// service time (exercising the busy-until chain).
std::uint64_t arrow_case_hash(int seed) {
  auto inst = testutil::make_tree_instance(seed);
  std::unique_ptr<LatencyModel> lat =
      seed % 2 ? make_uniform_async(static_cast<std::uint64_t>(seed) * 29 + 5, 0.1)
               : make_synchronous();
  ArrowEngine engine(inst.tree, *lat);
  if (seed % 3 == 2) engine.set_service_time(kTicksPerUnit / 8);
  QueuingOutcome out = engine.run(inst.requests);
  out.validate(inst.requests);
  Fnv1a h;
  hash_outcome(h, out);
  for (NodeId link : engine.links()) h.add_signed(link);
  h.add_signed(engine.sink_node());
  h.add(engine.messages_sent());
  h.add_signed(engine.makespan());
  return h.value();
}

/// Closed-loop arrow (Figure 10 driver): service time and an async model so
/// both the FIFO clamp and the two-phase service path are on the hot path.
std::uint64_t closed_loop_case_hash(int seed) {
  auto inst = testutil::make_tree_instance(seed);
  std::unique_ptr<LatencyModel> lat =
      seed % 2 ? make_truncated_exp(static_cast<std::uint64_t>(seed) * 17 + 3, 0.4)
               : make_synchronous();
  ClosedLoopConfig cfg;
  cfg.requests_per_node = 20 + seed % 7;
  cfg.service_time = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
  ClosedLoopResult res = run_arrow_closed_loop(inst.tree, *lat, cfg);
  Fnv1a h;
  h.add_signed(res.makespan);
  h.add_signed(res.total_requests);
  h.add(res.tree_messages);
  h.add(res.notify_messages);
  return h.value();
}

/// Baselines share the Simulator/Network core via send_with_latency.
std::uint64_t baseline_case_hash(int seed) {
  auto inst = testutil::make_instance(seed);
  AllPairs apsp(inst.graph);
  auto dist = ApspDist{&apsp};
  Fnv1a h;
  {
    CentralizedConfig cfg;
    cfg.center = inst.requests.root();
    cfg.service_time = seed % 2 ? kTicksPerUnit / 8 : 0;
    QueuingOutcome out = run_centralized(inst.graph.node_count(), inst.requests, dist, cfg);
    out.validate(inst.requests);
    hash_outcome(h, out);
  }
  {
    PointerForwardingConfig cfg;
    cfg.mode = seed % 2 ? ForwardingMode::kReverseToSender : ForwardingMode::kCompressToRequester;
    cfg.initial_owner = inst.requests.root();
    QueuingOutcome out =
        run_pointer_forwarding(inst.graph.node_count(), inst.requests, dist, cfg);
    out.validate(inst.requests);
    hash_outcome(h, out);
  }
  return h.value();
}

/// Closed-loop pointer forwarding (PR 5's find-completion reply driver):
/// seeded graphs with APSP latencies, both pointer-update rules, with and
/// without a serial service time.
std::uint64_t forwarding_loop_case_hash(int seed) {
  auto inst = testutil::make_instance(seed);
  AllPairs apsp(inst.graph);
  PointerForwardingConfig cfg;
  cfg.mode = seed % 2 ? ForwardingMode::kReverseToSender : ForwardingMode::kCompressToRequester;
  cfg.service_time = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
  cfg.initial_owner = inst.requests.root();
  ForwardingLoopResult res = run_pointer_forwarding_closed_loop(
      inst.graph.node_count(), 10 + seed % 6, ApspDist{&apsp}, cfg);
  Fnv1a h;
  h.add_signed(res.makespan);
  h.add_signed(res.total_requests);
  h.add(res.find_messages);
  h.add(res.reply_messages);
  return h.value();
}

// --- recovery pins ----------------------------------------------------------
//
// Crash, partition and churn recovery (the epoch + SelfStabilizer waves) on
// both arrow drivers. Each case is (instance, schedule): kRecoverySchedules
// topology-fault schedules dense enough to fire several windows mid-run.

constexpr int kRecoverySchedules = 4;  // crash, partition, churn, combined
constexpr int kRecoveryInstances = 4;
constexpr int kRecoveryCases = kRecoverySchedules * kRecoveryInstances;

FaultSpec recovery_fault(int schedule, int instance) {
  FaultSpec f;
  switch (schedule) {
    case 0: f = FaultSpec::crash(4, 1.0, 2.0); break;
    case 1: f = FaultSpec::partition(3, 2.0, 3.0); break;
    case 2: f = FaultSpec::churn(40.0, instance % 2 == 1); break;
    default:
      f = FaultSpec::partition(2, 1.5, 4.0);
      f.crash_count = 3;
      f.crash_downtime_units = 1.0;
      f.crash_period_units = 3.0;
      f.churn_rate = 30.0;
      break;
  }
  f.seed = 0x5eed00ULL + static_cast<std::uint64_t>(schedule * 131 + instance * 17);
  return f;
}

/// Hash of the recovery counters both drivers report.
void hash_recovery(Fnv1a& h, const RecoveryCounters& rc) {
  h.add_signed(rc.stabilize_rounds);
  h.add_signed(rc.stabilize_corrections);
  h.add_signed(rc.crashes);
  h.add_signed(rc.partitions);
  h.add_signed(rc.reselections);
}

/// One-shot arrow under a topology-fault schedule. Instance 1 runs an async
/// latency model; instance 3 roots the caller's tree away from the request
/// root, so crash corruption (which reads the caller's tree) and the
/// anchored tree (which the waves converge to) differ.
std::uint64_t arrow_recovery_case_hash(int c, RecoveryCounters* seen = nullptr) {
  const int schedule = c % kRecoverySchedules;
  const int instance = c / kRecoverySchedules;
  constexpr int kSeeds[kRecoveryInstances] = {3, 5, 7, 11};
  auto inst = testutil::make_tree_instance(kSeeds[instance]);
  if (instance == 3)
    inst.tree = inst.tree.rerooted((inst.requests.root() + 1) % inst.tree.node_count());
  std::unique_ptr<LatencyModel> lat =
      instance == 1 ? make_uniform_async(41, 0.1) : make_synchronous();
  ArrowEngine engine(inst.tree, *lat);
  engine.set_fault(recovery_fault(schedule, instance));
  QueuingOutcome out = engine.run(inst.requests);
  Fnv1a h;
  for (RequestId id = 1; id <= out.request_count(); ++id) {
    const Completion& cp = out.completion(id);
    h.add_signed(cp.predecessor);
    h.add_signed(cp.completed_at);
    h.add_signed(cp.hops);
    h.add_signed(cp.distance);
  }
  for (NodeId link : engine.links()) h.add_signed(link);
  h.add_signed(engine.sink_node());
  h.add(engine.messages_sent());
  h.add_signed(engine.makespan());
  h.add(engine.fault_stats().partition_deferred);
  hash_recovery(h, engine.recovery());
  if (seen) *seen = engine.recovery();
  return h.value();
}

/// Closed-loop arrow under a topology-fault schedule. Instance 2 runs an
/// async latency model; instance 3 adds a serial service time.
std::uint64_t loop_recovery_case_hash(int c, RecoveryCounters* seen = nullptr) {
  const int schedule = c % kRecoverySchedules;
  const int instance = c / kRecoverySchedules;
  constexpr int kSeeds[kRecoveryInstances] = {0, 4, 6, 9};
  auto inst = testutil::make_tree_instance(kSeeds[instance]);
  std::unique_ptr<LatencyModel> lat =
      instance == 2 ? make_truncated_exp(23, 0.4) : make_synchronous();
  ClosedLoopConfig cfg;
  cfg.requests_per_node = 12;
  cfg.service_time = instance == 3 ? kTicksPerUnit / 16 : 0;
  cfg.fault = recovery_fault(schedule, instance);
  ClosedLoopResult res = run_arrow_closed_loop(inst.tree, *lat, cfg);
  Fnv1a h;
  h.add_signed(res.makespan);
  h.add_signed(res.total_requests);
  h.add(res.tree_messages);
  h.add(res.notify_messages);
  h.add(res.partition_backlog);
  h.add(static_cast<std::uint64_t>(res.avg_round_latency_units * 1e6));
  hash_recovery(h, res.recovery);
  if (seen) *seen = res.recovery;
  return h.value();
}

constexpr int kArrowCases = 12;
constexpr int kLoopCases = 6;
constexpr int kBaselineCases = 6;
constexpr int kForwardLoopCases = 6;

// Pinned against the seed core (PR 1, commit ca30709).
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
// Pinned against the initial closed-loop forwarding driver (PR 5).
constexpr std::uint64_t kForwardLoopGolden[kForwardLoopCases] = {
    0xa69e76166af37bffULL, 0x7a8ed0ca0849b181ULL, 0xe24b0d7463ce83a0ULL,
    0x92289a766347d17dULL, 0x6935c587a2e6cea1ULL, 0xf5f47e33a0435fb2ULL,
};

// Pinned against the per-driver recovery waves (before ArrowRecovery).
constexpr std::uint64_t kArrowRecoveryGolden[kRecoveryCases] = {
    0x683803199c04f0fbULL, 0xcf3a93fdb59a0ce0ULL, 0xd23eb6b9d190795bULL,
    0xd10a3f3b23e6077bULL, 0x5b3063a38b852ee7ULL, 0x4563a59acb1b15d6ULL,
    0x53f5a73182bd5637ULL, 0x63e1e305e34de213ULL, 0xd9c85473fbe79464ULL,
    0x8a1cdd1cc46280f2ULL, 0xf83bb56c7cea60c4ULL, 0x76cb12fc3561e31aULL,
    0x8edb911d00ec3bf4ULL, 0xf44840e72b3cb760ULL, 0x7c239d75c18dbd59ULL,
    0xe4226f7fd1c47719ULL,
};
constexpr std::uint64_t kLoopRecoveryGolden[kRecoveryCases] = {
    0xb274719def7a8eb2ULL, 0xee21bd85595f1c99ULL, 0xb1eb7933cb20abffULL,
    0x6ee7ed87538828e3ULL, 0x1ad064758f5c04b1ULL, 0xf3f3685bb1ca65aaULL,
    0xe2c909da483571d3ULL, 0x9017714b074a4b99ULL, 0xafea8a413f1e6b30ULL,
    0x3fea13065676efd9ULL, 0x5a2883bcedf3f70cULL, 0x6f87a05e68c312e5ULL,
    0xf0dc752da3046f3eULL, 0x9a4f99a61aa6b0b0ULL, 0x15db0ebc6ac05f98ULL,
    0x1571243b553c69a6ULL,
};

/// Every pinned schedule must fire the waves it names, or its pin would
/// only cover the fault-free path.
void expect_fired(int c, const RecoveryCounters& seen) {
  const int schedule = c % kRecoverySchedules;
  const bool combined = schedule == 3;
  EXPECT_TRUE(seen.crashes > 0 || (schedule != 0 && !combined)) << "no crash fired, case " << c;
  EXPECT_TRUE(seen.partitions > 0 || (schedule != 1 && !combined))
      << "no partition fired, case " << c;
  EXPECT_TRUE(seen.reselections > 0 || (schedule != 2 && !combined))
      << "no churn splice fired, case " << c;
}

TEST(GoldenDeterminism, ArrowOneShot) {
  for (int seed = 0; seed < kArrowCases; ++seed)
    EXPECT_EQ(arrow_case_hash(seed), kArrowGolden[seed]) << "arrow seed " << seed;
}

TEST(GoldenDeterminism, ArrowClosedLoop) {
  for (int seed = 0; seed < kLoopCases; ++seed)
    EXPECT_EQ(closed_loop_case_hash(seed), kLoopGolden[seed]) << "closed-loop seed " << seed;
}

TEST(GoldenDeterminism, Baselines) {
  for (int seed = 0; seed < kBaselineCases; ++seed)
    EXPECT_EQ(baseline_case_hash(seed), kBaselineGolden[seed]) << "baseline seed " << seed;
}

TEST(GoldenDeterminism, PointerForwardingClosedLoop) {
  for (int seed = 0; seed < kForwardLoopCases; ++seed)
    EXPECT_EQ(forwarding_loop_case_hash(seed), kForwardLoopGolden[seed])
        << "forwarding-loop seed " << seed;
}

// The closed-loop forwarding driver at one request per node with free local
// processing is exactly the one-shot burst: same request count, same number
// of pointer-chase hops (the property property_arrow_test.cpp pins for the
// arrow closed loop). The replies ride outside the find dynamics, so they
// must not perturb the chase.
TEST(GoldenDeterminism, ForwardingClosedLoopOneRoundMatchesOneShot) {
  for (int seed = 0; seed < 10; ++seed) {
    auto inst = testutil::make_instance(seed);
    const NodeId n = inst.graph.node_count();
    const NodeId owner = inst.requests.root();
    AllPairs apsp(inst.graph);
    auto dist = ApspDist{&apsp};
    for (auto mode : {ForwardingMode::kCompressToRequester, ForwardingMode::kReverseToSender}) {
      PointerForwardingConfig cfg;
      cfg.mode = mode;
      cfg.initial_owner = owner;
      ForwardingLoopResult loop = run_pointer_forwarding_closed_loop(n, 1, dist, cfg);

      RequestSet burst = one_shot_all(n, owner);
      QueuingOutcome out = run_pointer_forwarding(n, burst, dist, cfg);

      EXPECT_EQ(loop.total_requests, static_cast<std::int64_t>(n)) << "seed " << seed;
      EXPECT_EQ(loop.find_messages, static_cast<std::uint64_t>(out.total_hops()))
          << "seed " << seed << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(GoldenDeterminism, ArrowOneShotRecovery) {
  for (int c = 0; c < kRecoveryCases; ++c) {
    RecoveryCounters seen;
    EXPECT_EQ(arrow_recovery_case_hash(c, &seen), kArrowRecoveryGolden[c])
        << "arrow recovery case " << c;
    expect_fired(c, seen);
  }
}

TEST(GoldenDeterminism, ArrowClosedLoopRecovery) {
  for (int c = 0; c < kRecoveryCases; ++c) {
    RecoveryCounters seen;
    EXPECT_EQ(loop_recovery_case_hash(c, &seen), kLoopRecoveryGolden[c])
        << "closed-loop recovery case " << c;
    expect_fired(c, seen);
  }
}

TEST(GoldenDeterminism, DISABLED_PrintActualHashes) {
  std::printf("kArrowGolden:\n");
  for (int s = 0; s < kArrowCases; ++s) std::printf("0x%016llxULL,\n", (unsigned long long)arrow_case_hash(s));
  std::printf("kLoopGolden:\n");
  for (int s = 0; s < kLoopCases; ++s) std::printf("0x%016llxULL,\n", (unsigned long long)closed_loop_case_hash(s));
  std::printf("kBaselineGolden:\n");
  for (int s = 0; s < kBaselineCases; ++s) std::printf("0x%016llxULL,\n", (unsigned long long)baseline_case_hash(s));
  std::printf("kForwardLoopGolden:\n");
  for (int s = 0; s < kForwardLoopCases; ++s) std::printf("0x%016llxULL,\n", (unsigned long long)forwarding_loop_case_hash(s));
  std::printf("kArrowRecoveryGolden:\n");
  for (int c = 0; c < kRecoveryCases; ++c) std::printf("0x%016llxULL,\n", (unsigned long long)arrow_recovery_case_hash(c));
  std::printf("kLoopRecoveryGolden:\n");
  for (int c = 0; c < kRecoveryCases; ++c) std::printf("0x%016llxULL,\n", (unsigned long long)loop_recovery_case_hash(c));
}

}  // namespace
}  // namespace arrowdq
