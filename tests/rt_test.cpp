// The shared-memory runtime (src/rt/) under test.
//
// Runtime runs are not bit-reproducible — real-thread interleavings differ
// per run — so these tests pin the things that must hold on *every* run:
//
//  * mailbox contract — per-producer FIFO through the bounded ring and its
//    overflow path, single-threaded and under a genuine MPSC thread stress;
//  * checker soundness on real runs — 36 randomized runtime executions
//    (4 topology families x T in {1, 2, 4} x 3 round/capacity variants) all
//    produce histories that rt::check_history accepts, with exact op and
//    token counts;
//  * app semantics — the counter app's values match chain positions (the
//    checker's rule 5), the directory app accounts positive travel;
//  * checker completeness — seeded corruptions of a genuinely valid history
//    (dropped release, overlapping critical sections, reordered acquires,
//    forked predecessor chain, counter skew, wrong-node event) are each
//    REJECTED: a checker that cannot fail proves nothing;
//  * the Experiment bridge — run_rt_cross_validated runs the sim twin and
//    reports a positive hop ratio with a passing check.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "rt/history.hpp"
#include "rt/mailbox.hpp"
#include "rt/runtime.hpp"
#include "rt/service.hpp"
#include "testutil.hpp"

namespace arrowdq {
namespace {

using rt::CheckResult;
using rt::CheckSpec;
using rt::Event;
using rt::EventKind;
using rt::History;
using rt::RtApp;
using rt::RtConfig;
using rt::RtResult;

// --- mailbox -------------------------------------------------------------

TEST(RtMailbox, RingIsFifoAndBounded) {
  rt::RingMailbox<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99)) << "ring must refuse pushes past capacity";
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
  // Wraparound: indices keep working past one full cycle.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(10 * round + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, 10 * round + i);
    }
  }
}

TEST(RtMailbox, OverflowPathPreservesFifo) {
  // Tiny ring so most pushes take the overflow path; interleave pops so the
  // batch / ring / overflow handoff points are all crossed.
  rt::Mailbox<int> mbox(2);
  int next_push = 0, next_pop = 0, out = -1;
  auto push_n = [&](int n) {
    for (int i = 0; i < n; ++i) mbox.push(next_push++);
  };
  auto pop_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(mbox.try_pop(out));
      EXPECT_EQ(out, next_pop++);
    }
  };
  push_n(7);  // 2 in the ring, 5 overflowed
  pop_n(3);   // drains the ring, takes the overflow batch
  push_n(6);  // mid-batch pushes: ring again (overflow was swapped out)
  pop_n(7);
  EXPECT_TRUE(mbox.maybe_nonempty());
  pop_n(3);
  EXPECT_FALSE(mbox.try_pop(out));
  EXPECT_FALSE(mbox.maybe_nonempty());
}

TEST(RtMailbox, MpscStressKeepsPerProducerOrder) {
  // 4 producer threads x 4000 messages through a 8-slot ring: the overflow
  // path runs constantly. The consumer checks every producer's sequence
  // numbers come out strictly ascending — the FIFO contract the arrow
  // protocol needs from its links.
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 4000;
  rt::Mailbox<std::uint64_t> mbox(8);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&mbox, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) mbox.push((p << 32) | i);
    });
  // Violations are recorded, not asserted, until the producers are joined:
  // a failing ASSERT here would return with joinable threads and abort the
  // whole binary instead of failing this test.
  std::uint64_t received = 0;
  std::uint64_t next_seq[kProducers] = {0, 0, 0, 0};
  std::string first_violation;
  while (received < kProducers * kPerProducer) {
    std::uint64_t v;
    if (!mbox.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    ++received;
    const auto p = static_cast<std::size_t>(v >> 32);
    const std::uint64_t seq = v & 0xffffffffu;
    if (p >= static_cast<std::size_t>(kProducers)) {
      if (first_violation.empty()) first_violation = "unknown producer " + std::to_string(p);
      continue;
    }
    if (seq != next_seq[p] && first_violation.empty())
      first_violation = "producer " + std::to_string(p) + " reordered: got " +
                        std::to_string(seq) + ", expected " + std::to_string(next_seq[p]);
    next_seq[p] = seq + 1;
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(first_violation, "");
  std::uint64_t v;
  EXPECT_FALSE(mbox.try_pop(v));
}

// --- randomized runtime runs through the checker -------------------------

Tree make_family_tree(int family, Rng& rng) {
  switch (family) {
    case 0: return balanced_binary_overlay(make_complete(24));
    case 1: return testutil::path_tree(17);
    case 2: return testutil::grid_tree(4, 5);
    default: return testutil::random_tree(23, rng);
  }
}

TEST(RtRuntime, RandomizedRunsPassChecker) {
  // 4 families x 3 thread counts x 3 variants = 36 independent runs, each
  // judged by the history checker — the runtime's replacement for goldens.
  const std::int64_t rounds_of[3] = {5, 9, 20};
  const int capacity_of[3] = {2, 8, 64};  // 2 forces the mailbox overflow path
  int runs = 0;
  for (int family = 0; family < 4; ++family) {
    for (int threads : {1, 2, 4}) {
      for (int variant = 0; variant < 3; ++variant) {
        Rng rng = testutil::seeded_rng(family * 100 + threads * 10 + variant);
        const Tree tree = make_family_tree(family, rng);
        RtConfig cfg;
        cfg.threads = threads;
        cfg.rounds_per_node = rounds_of[variant];
        cfg.mailbox_capacity = capacity_of[variant];
        cfg.app = RtApp::kMutex;
        const RtResult res = run_runtime(tree, cfg);
        const std::int64_t expect_ops =
            static_cast<std::int64_t>(tree.node_count()) * rounds_of[variant];
        EXPECT_EQ(res.ops, expect_ops);
        EXPECT_EQ(static_cast<std::int64_t>(res.token_messages), expect_ops)
            << "every op is granted by exactly one token transfer";
        EXPECT_EQ(res.history.events.size(), static_cast<std::size_t>(4 * expect_ops));
        CheckSpec spec;
        spec.nodes = tree.node_count();
        spec.rounds = rounds_of[variant];
        const CheckResult check = rt::check_history(res.history, spec);
        EXPECT_TRUE(check.ok) << "family=" << family << " T=" << threads
                              << " variant=" << variant << ": " << check.error;
        ++runs;
      }
    }
  }
  EXPECT_GE(runs, 30);
}

TEST(RtRuntime, CounterAppMatchesChainPositions) {
  const Tree tree = testutil::grid_tree(3, 4);
  RtConfig cfg;
  cfg.threads = 2;
  cfg.rounds_per_node = 7;
  cfg.app = RtApp::kCounter;
  const RtResult res = run_runtime(tree, cfg);
  CheckSpec spec{tree.node_count(), 7, RtApp::kCounter};
  const CheckResult check = rt::check_history(res.history, spec);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(RtRuntime, DirectoryAppAccountsTravel) {
  const Tree tree = testutil::path_tree(9);
  RtConfig cfg;
  cfg.threads = 2;
  cfg.rounds_per_node = 6;
  cfg.app = RtApp::kDirectory;
  const RtResult res = run_runtime(tree, cfg);
  // 9 nodes taking 6 turns each on a path: the object must move.
  EXPECT_GT(res.token_travel_units, 0);
  CheckSpec spec{tree.node_count(), 6, RtApp::kDirectory};
  const CheckResult check = rt::check_history(res.history, spec);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(RtRuntime, SingleNodeDegenerateRun) {
  // n = 1: every request self-queues behind the previous one; no queue
  // messages ever cross an edge.
  Tree tree{std::vector<NodeId>{kNoNode}, std::vector<Weight>{1}, 0};
  RtConfig cfg;
  cfg.threads = 2;  // clamped to 1 owned range
  cfg.rounds_per_node = 5;
  const RtResult res = run_runtime(tree, cfg);
  EXPECT_EQ(res.ops, 5);
  EXPECT_EQ(res.queue_messages, 0u);
  CheckSpec spec{1, 5, RtApp::kMutex};
  EXPECT_TRUE(rt::check_history(res.history, spec).ok);
}

// --- checker completeness: corrupted histories must be rejected ----------

struct ValidRun {
  History history;
  CheckSpec spec;
};

ValidRun make_valid_run(RtApp app) {
  const Tree tree = testutil::path_tree(6);
  RtConfig cfg;
  cfg.threads = 2;
  cfg.rounds_per_node = 3;
  cfg.app = app;
  RtResult res = run_runtime(tree, cfg);
  ValidRun run;
  run.history = std::move(res.history);
  run.spec = CheckSpec{tree.node_count(), 3, app};
  // Precondition for every corruption test: the pristine history passes.
  EXPECT_TRUE(rt::check_history(run.history, run.spec).ok);
  return run;
}

/// Index of the i-th event (in stamp order — merge sorts) of `kind`.
std::size_t nth_of_kind(const History& h, EventKind kind, int i) {
  for (std::size_t j = 0; j < h.events.size(); ++j)
    if (h.events[j].kind == kind && i-- == 0) return j;
  ADD_FAILURE() << "history has too few events of the requested kind";
  return 0;
}

TEST(RtChecker, RejectsDroppedRelease) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  const std::size_t i = nth_of_kind(run.history, EventKind::kRelease, 0);
  run.history.events.erase(run.history.events.begin() + static_cast<std::ptrdiff_t>(i));
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("missing release"), std::string::npos) << check.error;
}

TEST(RtChecker, RejectsOverlappingCriticalSections) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  // Push the chain-first release (smallest release stamp — releases ascend
  // along the chain) past everything: its successor now acquires before the
  // predecessor released.
  Event& rel = run.history.events[nth_of_kind(run.history, EventKind::kRelease, 0)];
  rel.stamp = run.history.events.back().stamp + 1000;
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("critical sections overlap"), std::string::npos) << check.error;
}

TEST(RtChecker, RejectsReorderedAcquires) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  // Swap the stamps of the two chain-first acquires: the first request now
  // acquires after its own release.
  Event& a0 = run.history.events[nth_of_kind(run.history, EventKind::kAcquire, 0)];
  Event& a1 = run.history.events[nth_of_kind(run.history, EventKind::kAcquire, 1)];
  std::swap(a0.stamp, a1.stamp);
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok) << "swapped acquire stamps must not pass";
  EXPECT_FALSE(check.error.empty());
}

TEST(RtChecker, RejectsForkedPredecessorChain) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  // Two requests recorded behind the same predecessor: the total order
  // forks, which a single queue can never produce.
  const Event& e0 = run.history.events[nth_of_kind(run.history, EventKind::kEnqueue, 0)];
  Event& e1 = run.history.events[nth_of_kind(run.history, EventKind::kEnqueue, 1)];
  e1.aux = e0.aux;
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("same predecessor"), std::string::npos) << check.error;
}

TEST(RtChecker, RejectsCounterSkew) {
  ValidRun run = make_valid_run(RtApp::kCounter);
  Event& acq = run.history.events[nth_of_kind(run.history, EventKind::kAcquire, 0)];
  acq.aux += 7;  // a lost or doubled increment
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("counter value"), std::string::npos) << check.error;
}

TEST(RtChecker, RejectsWrongNodeEvent) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  Event& acq = run.history.events[nth_of_kind(run.history, EventKind::kAcquire, 0)];
  acq.node = static_cast<NodeId>((acq.node + 1) % run.spec.nodes);
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("wrong node"), std::string::npos) << check.error;
}

// --- the Experiment bridge -----------------------------------------------

TEST(RtService, CrossValidatesAgainstTheSim) {
  Experiment e;
  e.protocol = ProtocolSpec::arrow_closed_loop(kTicksPerUnit / 16);
  e.topology = TopologySpec::complete(16);
  e.rounds = 5;
  e = e.with_seed(11);
  RtConfig cfg;
  cfg.threads = 2;
  const rt::RtCrossValidation cv = rt::run_rt_cross_validated(e, cfg);
  EXPECT_TRUE(cv.check.ok) << cv.check.error;
  EXPECT_EQ(cv.rt.ops, 16 * 5);
  EXPECT_EQ(cv.sim.total_requests, 16 * 5);
  EXPECT_GT(cv.rt_hops_per_op, 0.0);
  EXPECT_GT(cv.sim_hops_per_op, 0.0);
  // The loops differ (the sim re-issues on queuing completion, the runtime
  // on release), so the ratio is an O(1) sanity band, not an identity.
  EXPECT_GT(cv.hops_ratio, 0.05);
  EXPECT_LT(cv.hops_ratio, 20.0);
}

}  // namespace
}  // namespace arrowdq
