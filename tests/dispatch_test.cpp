// Coverage for the statically dispatched hot path, the same-tick batch
// drain, and the parallel sweep runner.
//
//  * with_static_latency must hand each of the four models its concrete
//    sampler, sharing state with the model (same draw sequence).
//  * Runs on the static path must replay tick-identically from equally
//    seeded models and draw exactly once per message from the model's
//    stream.
//  * Batch draining must preserve exact (time, seq) FIFO order under heavy
//    same-instant load, including events scheduled mid-batch, at both arena
//    slot widths.
//  * SweepRunner results must not depend on the thread count (including 1)
//    and map() must return results in index order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "support/random.hpp"
#include "testutil.hpp"

namespace arrowdq {
namespace {

TEST(StaticDispatch, SamplersShareStateWithModels) {
  // Stateful models: the dispatched sampler must draw from the *same*
  // stream as the model (not a reseeded copy) — sampling alternately
  // through both views must equal one straight virtual sequence.
  UniformAsyncLatency reference(99, 0.1);
  UniformAsyncLatency dispatched(99, 0.1);
  with_static_latency(dispatched, [&](auto sampler) {
    for (int i = 0; i < 50; ++i) {
      Time want_a = reference.sample(0, 1, 3);
      Time want_b = reference.sample(1, 2, 2);
      EXPECT_EQ(sampler(0, 1, 3), want_a) << i;
      EXPECT_EQ(dispatched.sample(1, 2, 2), want_b) << i;
    }
  });

  TruncatedExpLatency exp_ref(42, 0.3);
  TruncatedExpLatency exp_disp(42, 0.3);
  with_static_latency(exp_disp, [&](auto sampler) {
    for (int i = 0; i < 50; ++i) EXPECT_EQ(sampler(0, 1, 2), exp_ref.sample(0, 1, 2)) << i;
  });
}

TEST(StaticDispatch, EachModelDispatchesToItsConcreteSampler) {
  SynchronousLatency sync;
  with_static_latency(sync, [](auto sampler) {
    EXPECT_TRUE((std::is_same_v<decltype(sampler), SyncSampler>));
    EXPECT_EQ(sampler(0, 1, 3), units_to_ticks(3));
  });
  ScaledLatency scaled(0.25);
  with_static_latency(scaled, [](auto sampler) {
    EXPECT_TRUE((std::is_same_v<decltype(sampler), ScaledSampler>));
    EXPECT_EQ(sampler(0, 1, 4), units_to_ticks(1));
  });
  UniformAsyncLatency uniform(3, 0.2);
  with_static_latency(uniform, [](auto sampler) {
    EXPECT_TRUE((std::is_same_v<decltype(sampler), SamplerRef<UniformSampler>>));
  });
  TruncatedExpLatency exp(4, 0.3);
  with_static_latency(exp, [](auto sampler) {
    EXPECT_TRUE((std::is_same_v<decltype(sampler), SamplerRef<TruncExpSampler>>));
  });
  // The result of the callable passes through.
  EXPECT_EQ(with_static_latency(sync, [](auto) { return 17; }), 17);
}

std::unique_ptr<LatencyModel> model_for(int seed) {
  switch (seed % 4) {
    case 0: return make_synchronous();
    case 1: return make_scaled(0.25 + 0.05 * (seed % 5));
    case 2: return make_uniform_async(static_cast<std::uint64_t>(seed) * 31 + 7, 0.1);
    default: return make_truncated_exp(static_cast<std::uint64_t>(seed) * 53 + 11, 0.4);
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

TEST(StaticDispatch, OneShotReplaysAndDrawsOncePerMessage) {
  // Two independently built, equally seeded models give tick-identical
  // runs, and a run consumes exactly one draw of the model's own stream per
  // message: a fresh twin advanced by messages_sent() draws lands on the
  // same next draw as the model the run used.
  for (int seed = 0; seed < 16; ++seed) {
    auto inst = testutil::make_tree_instance(seed);
    auto m_a = model_for(seed);
    auto m_b = model_for(seed);
    ArrowEngine e_a(inst.tree, *m_a);
    ArrowEngine e_b(inst.tree, *m_b);
    if (seed % 3 == 1) {
      e_a.set_service_time(kTicksPerUnit / 8);
      e_b.set_service_time(kTicksPerUnit / 8);
    }
    expect_outcomes_equal(e_a.run(inst.requests), e_b.run(inst.requests), seed);
    EXPECT_EQ(e_a.links(), e_b.links()) << "seed " << seed;
    EXPECT_EQ(e_a.sink_node(), e_b.sink_node()) << "seed " << seed;
    EXPECT_EQ(e_a.messages_sent(), e_b.messages_sent()) << "seed " << seed;
    EXPECT_EQ(e_a.sim().now(), e_b.sim().now()) << "seed " << seed;

    auto twin = model_for(seed);
    for (std::uint64_t i = 0; i < e_a.messages_sent(); ++i) twin->sample(0, 1, 1);
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(m_a->sample(0, 1, 5), twin->sample(0, 1, 5)) << "seed " << seed;
  }
}

TEST(StaticDispatch, ClosedLoopReplaysIdenticallyUnderEveryModel) {
  for (int seed = 0; seed < 10; ++seed) {
    auto inst = testutil::make_tree_instance(seed);
    auto m_a = model_for(seed);
    auto m_b = model_for(seed);
    ClosedLoopConfig cfg;
    cfg.requests_per_node = 15 + seed % 9;
    cfg.service_time = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
    ClosedLoopResult ra = run_arrow_closed_loop(inst.tree, *m_a, cfg);
    ClosedLoopResult rb = run_arrow_closed_loop(inst.tree, *m_b, cfg);
    EXPECT_EQ(ra.total_requests, cfg.requests_per_node * inst.tree.node_count())
        << "seed " << seed;
    EXPECT_EQ(ra.makespan, rb.makespan) << "seed " << seed;
    EXPECT_EQ(ra.total_requests, rb.total_requests) << "seed " << seed;
    EXPECT_EQ(ra.tree_messages, rb.tree_messages) << "seed " << seed;
    EXPECT_EQ(ra.notify_messages, rb.notify_messages) << "seed " << seed;
    EXPECT_DOUBLE_EQ(ra.avg_hops_per_request, rb.avg_hops_per_request) << "seed " << seed;
    EXPECT_DOUBLE_EQ(ra.avg_round_latency_units, rb.avg_round_latency_units) << "seed " << seed;
  }
}

// --- batch drain ----------------------------------------------------------

/// Heavy same-instant load with nested same-tick scheduling: execution
/// order must equal schedule order within each instant, instants in time
/// order, children after all parents of their instant.
template <typename Sim>
void drive_batch_fifo() {
  Sim sim;
  std::vector<int> log;
  // Three instants, interleaved scheduling across them.
  for (int i = 0; i < 30; ++i) {
    const Time t = 10 + 10 * (i % 3);  // 10, 20, 30, 10, 20, ...
    sim.at(t, [&log, &sim, i, t] {
      log.push_back(i);
      if (i % 4 == 0) {
        // Same-instant child: must run after every already-scheduled event
        // of this instant.
        sim.at(t, [&log, i] { log.push_back(1000 + i); });
      }
    });
  }
  sim.run();
  ASSERT_EQ(log.size(), 38u);
  // Expected: per instant, parents i≡instant (mod 3) ascending, then their
  // children in parent order.
  std::vector<int> want;
  for (int instant = 0; instant < 3; ++instant) {
    for (int i = instant; i < 30; i += 3) want.push_back(i);
    for (int i = instant; i < 30; i += 3)
      if (i % 4 == 0) want.push_back(1000 + i);
  }
  EXPECT_EQ(log, want);
}

TEST(BatchDrain, FifoUnderManySameInstantEvents) {
  drive_batch_fifo<Simulator>();
  drive_batch_fifo<CompactSimulator>();
}

TEST(BatchDrain, RandomizedScheduleRunsInTimeSeqOrder) {
  // Property: on a random schedule with heavy duplicate times, including
  // nested scheduling from inside handlers, every event runs exactly once,
  // instants run in time order, and within an instant events run in
  // schedule order (tags are handed out in schedule order).
  for (int seed = 0; seed < 6; ++seed) {
    Simulator sim;
    Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
    std::vector<std::pair<Time, int>> log;
    int next_tag = 0;
    for (int i = 0; i < 400; ++i) {
      const Time t = static_cast<Time>(rng.next_below(40));
      const int tag = next_tag++;
      sim.at(t, [&log, &sim, &rng, &next_tag, t, tag] {
        log.emplace_back(t, tag);
        if (rng.next_bool(0.25)) {
          const Time t2 = t + static_cast<Time>(rng.next_below(3));  // may tie with t
          const int tag2 = next_tag++;
          sim.at(t2, [&log, t2, tag2] { log.emplace_back(t2, tag2); });
        }
      });
    }
    sim.run();
    EXPECT_EQ(log.size(), static_cast<std::size_t>(next_tag)) << "seed " << seed;
    EXPECT_EQ(sim.events_executed(), log.size()) << "seed " << seed;
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_LE(log[i - 1].first, log[i].first) << "seed " << seed;
      if (log[i - 1].first == log[i].first) {
        EXPECT_LT(log[i - 1].second, log[i].second) << "seed " << seed;
      }
    }
  }
}

TEST(BatchDrain, StepAndRunUntilInteroperate) {
  Simulator sim;
  std::vector<int> log;
  for (int i = 0; i < 5; ++i) sim.at(10, [&log, i] { log.push_back(i); });
  for (int i = 5; i < 8; ++i) sim.at(20, [&log, i] { log.push_back(i); });
  // Single-step through part of the first batch.
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.events_pending(), 6u);
  // run_until must finish the batch but not cross t=20.
  sim.run_until(15);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 15);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(sim.now(), 20);
}

// --- sweep runner ---------------------------------------------------------

std::vector<SweepScenario> test_scenarios() {
  std::vector<SweepScenario> scenarios;
  int i = 0;
  for (NodeId n : {13, 32, 61}) {
    Graph g = make_complete(n);
    Tree t = balanced_binary_overlay(g);
    for (LatencySpec spec : {LatencySpec::synchronous(),
                             LatencySpec::uniform_async(100 + static_cast<std::uint64_t>(i), 0.1),
                             LatencySpec::truncated_exp(200 + static_cast<std::uint64_t>(i), 0.4)}) {
      ClosedLoopConfig cfg;
      cfg.requests_per_node = 8 + i;
      cfg.service_time = i % 2 ? kTicksPerUnit / 16 : 0;
      scenarios.push_back(SweepScenario{"s" + std::to_string(i), t, spec, cfg});
      ++i;
    }
  }
  return scenarios;
}

TEST(SweepRunner, ResultsIndependentOfThreadCount) {
  auto scenarios = test_scenarios();
  auto r1 = SweepRunner(1).run(scenarios);
  auto r2 = SweepRunner(2).run(scenarios);
  auto r4 = SweepRunner(4).run(scenarios);
  auto r7 = SweepRunner(7).run(scenarios);
  ASSERT_EQ(r1.size(), scenarios.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].label, scenarios[i].label) << i;
    for (const auto* r : {&r2, &r4, &r7}) {
      EXPECT_EQ(r1[i].result.makespan, (*r)[i].result.makespan) << i;
      EXPECT_EQ(r1[i].result.total_requests, (*r)[i].result.total_requests) << i;
      EXPECT_EQ(r1[i].result.tree_messages, (*r)[i].result.tree_messages) << i;
      EXPECT_EQ(r1[i].result.notify_messages, (*r)[i].result.notify_messages) << i;
      EXPECT_EQ(r1[i].label, (*r)[i].label) << i;
    }
  }
}

TEST(SweepRunner, MatchesSerialExecution) {
  auto scenarios = test_scenarios();
  auto parallel = SweepRunner(4).run(scenarios);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    auto model = scenarios[i].latency.make();
    ClosedLoopResult serial = run_arrow_closed_loop(scenarios[i].tree, *model,
                                                    scenarios[i].config);
    EXPECT_EQ(parallel[i].result.makespan, serial.makespan) << i;
    EXPECT_EQ(parallel[i].result.tree_messages, serial.tree_messages) << i;
  }
}

TEST(SweepRunner, MapReturnsResultsInIndexOrder) {
  SweepRunner runner(4);
  auto out = runner.map<std::uint64_t>(100, [](std::size_t i) { return mix64(i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], mix64(i)) << i;
  EXPECT_TRUE(runner.map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(SweepRunner, LatencySpecFactoriesMatchModels) {
  // Spec-built models must reproduce the directly constructed ones.
  auto spec = LatencySpec::uniform_async(555, 0.2).make();
  UniformAsyncLatency direct(555, 0.2);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(spec->sample(0, 1, 2), direct.sample(0, 1, 2));
  EXPECT_STREQ(spec->name(), "uniform-async");
  EXPECT_STREQ(LatencySpec::synchronous().make()->name(), "synchronous");
  EXPECT_STREQ(LatencySpec::scaled(0.5).make()->name(), "scaled");
  EXPECT_STREQ(LatencySpec::truncated_exp(1, 0.3).make()->name(), "trunc-exp");
}

}  // namespace
}  // namespace arrowdq
