#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "graph/generators.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace arrowdq {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> log;
  sim.at(30, [&] { log.push_back(3); });
  sim.at(10, [&] { log.push_back(1); });
  sim.at(20, [&] { log.push_back(2); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, TiesExecuteInScheduleOrder) {
  Simulator sim;
  std::vector<int> log;
  for (int i = 0; i < 10; ++i) sim.at(5, [&log, i] { log.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<Time> times;
  sim.at(1, [&] {
    times.push_back(sim.now());
    sim.in(4, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{1, 5}));
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 2);
}

// run_until peeks at the next pending time and stops short of it; the
// caller may then schedule anywhere in [t_end, next pending time). The peek
// must not move the queue's window past those times, whether the pending
// event sits within the queue's wheel or beyond it.
TEST(SimulatorTest, ScheduleBetweenRunUntilEndAndNextPendingRunsInOrder) {
  constexpr auto kWheel = static_cast<Time>(BucketedEventQueue::kWheel);
  for (const Time next : {Time{3000}, 40 * kWheel}) {
    SCOPED_TRACE(next);
    Simulator sim;
    std::vector<int> order;
    sim.at(100, [&] { order.push_back(0); });
    sim.at(next, [&] { order.push_back(4); });
    const Time t_end = next / 2;
    sim.run_until(t_end);
    EXPECT_EQ(sim.now(), t_end);
    sim.at(next - 1, [&] { order.push_back(3); });
    sim.at(t_end, [&] { order.push_back(1); });
    sim.at(t_end + 1, [&] { order.push_back(2); });
    sim.at(next, [&] { order.push_back(5); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  }
}

// Regression for the event-core rewrite: equal-time ties must execute in
// schedule order even when many events share one instant and new same-time
// events are scheduled from inside handlers (the old core's
// const_cast-move-from-top() hack lived exactly on this path).
TEST(SimulatorTest, EqualTimeFifoAcrossManyEventsWithNestedScheduling) {
  Simulator sim;
  std::vector<int> log;
  for (int i = 0; i < 6; ++i) {
    sim.at(7, [&log, &sim, i] {
      log.push_back(i);
      // Same-instant children must run after all six parents, in the order
      // the parents executed.
      sim.at(7, [&log, i] { log.push_back(100 + i); });
    });
  }
  sim.run();
  ASSERT_EQ(log.size(), 12u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)], i);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(log[static_cast<std::size_t>(6 + i)], 100 + i);
  EXPECT_EQ(sim.now(), 7);
  EXPECT_EQ(sim.events_executed(), 12u);
}

// Ties must also hold across the two scheduling paths (inline arena slot vs
// heap-boxed fallback for oversized callables) at both slot widths.
TEST(SimulatorTest, EqualTimeFifoAcrossInlineAndBoxedEvents) {
  std::vector<int> log;
  auto drive = [&log](auto& sim) {
    log.clear();
    struct Big {
      std::array<std::uint64_t, 16> pad;  // > kInlineStorage: boxed path
      std::vector<int>* out;
      int tag;
      void operator()() const { out->push_back(tag); }
    };
    for (int i = 0; i < 8; ++i) {
      if (i % 2) {
        sim.at(3, Big{{}, &log, i});
      } else {
        sim.at(3, [&log, i] { log.push_back(i); });
      }
    }
    sim.run();
  };
  Simulator sim;
  drive(sim);
  ASSERT_EQ(log.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)], i);
  CompactSimulator compact;
  drive(compact);
  ASSERT_EQ(log.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)], i);
}

// Abandoning a simulator with pending boxed events must free them (the
// destructor and move-assignment share discard_pending).
TEST(SimulatorTest, DiscardsPendingBoxedEventsOnReset) {
  auto counter = std::make_shared<int>(0);
  Simulator sim;
  sim.at(5, [counter, big = std::array<std::uint64_t, 16>{}] { ++*counter; });
  EXPECT_EQ(sim.events_pending(), 1u);
  sim = Simulator{};  // shared_ptr in the boxed closure must be released
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_EQ(*counter, 0);
}

// Moving from a non-empty simulator must leave the source empty and usable
// at both slot widths (the queue's moved-from size and map scalars need an
// explicit reset).
TEST(SimulatorTest, MovedFromSimulatorIsEmptyAndUsable) {
  auto drive = [](auto sim) {
    int fired = 0;
    sim.at(1, [&fired] { ++fired; });
    auto taken = std::move(sim);
    EXPECT_TRUE(sim.idle());          // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(sim.events_pending(), 0u);
    sim.at(2, [&fired] { fired += 10; });
    sim.run();
    taken.run();
    EXPECT_EQ(fired, 11);
  };
  drive(Simulator{});
  drive(CompactSimulator{});
}

TEST(SimulatorTest, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.at(0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Latency, SynchronousIsExact) {
  SynchronousLatency lat;
  EXPECT_EQ(lat.sample(0, 1, 1), kTicksPerUnit);
  EXPECT_EQ(lat.sample(0, 1, 5), 5 * kTicksPerUnit);
}

TEST(Latency, ScaledFraction) {
  ScaledLatency lat(0.5);
  EXPECT_EQ(lat.sample(0, 1, 2), kTicksPerUnit);
}

TEST(Latency, UniformAsyncWithinBounds) {
  UniformAsyncLatency lat(123, 0.1);
  for (int i = 0; i < 1000; ++i) {
    Time t = lat.sample(0, 1, 1);
    EXPECT_GE(t, kTicksPerUnit / 10 - 1);
    EXPECT_LE(t, kTicksPerUnit);
  }
}

TEST(Latency, TruncatedExpWithinBounds) {
  TruncatedExpLatency lat(9, 0.3);
  for (int i = 0; i < 1000; ++i) {
    Time t = lat.sample(0, 1, 1);
    EXPECT_GE(t, 1);
    EXPECT_LE(t, kTicksPerUnit);
  }
}

TEST(Latency, DeterministicPerSeed) {
  UniformAsyncLatency a(77), b(77);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.sample(0, 1, 3), b.sample(0, 1, 3));
}

struct TestMsg {
  int payload = 0;
};

using TestHandler = std::function<void(NodeId from, NodeId to, const TestMsg& msg)>;

TEST(NetworkTest, DeliversAfterLatency) {
  Graph g = make_path(2);
  Simulator sim;
  Network<TestMsg, SyncSampler, TestHandler> net(g, sim, SyncSampler{});
  std::vector<std::pair<Time, int>> got;
  net.set_handler([&](NodeId, NodeId, const TestMsg& m) { got.emplace_back(sim.now(), m.payload); });
  net.send(0, 1, {42});
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, kTicksPerUnit);
  EXPECT_EQ(got[0].second, 42);
  EXPECT_EQ(net.stats().edge_messages, 1u);
}

TEST(NetworkTest, FifoPreservedUnderRandomLatency) {
  Graph g = make_path(2);
  Simulator sim;
  UniformAsyncLatency lat(5, 0.05);
  Network<TestMsg, SamplerRef<UniformSampler>, TestHandler> net(g, sim, {&lat.sampler()});
  std::vector<int> got;
  net.set_handler([&](NodeId, NodeId, const TestMsg& m) { got.push_back(m.payload); });
  for (int i = 0; i < 50; ++i) net.send(0, 1, {i});
  sim.run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(NetworkTest, FifoIsPerDirectedEdge) {
  Graph g = make_path(3);
  Simulator sim;
  UniformAsyncLatency lat(6, 0.05);
  Network<TestMsg, SamplerRef<UniformSampler>, TestHandler> net(g, sim, {&lat.sampler()});
  std::vector<int> at2;
  net.set_handler([&](NodeId, NodeId to, const TestMsg& m) {
    if (to == 2) at2.push_back(m.payload);
  });
  for (int i = 0; i < 20; ++i) net.send(1, 2, {i});
  sim.run();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(at2[static_cast<std::size_t>(i)], i);
}

TEST(NetworkTest, SendWithLatencyDirect) {
  Graph g = make_path(4);  // no edge 0-3
  Simulator sim;
  Network<TestMsg, SyncSampler, TestHandler> net(g, sim, SyncSampler{});
  Time delivered = -1;
  net.set_handler([&](NodeId from, NodeId to, const TestMsg&) {
    EXPECT_EQ(from, 0);
    EXPECT_EQ(to, 3);
    delivered = sim.now();
  });
  net.send_with_latency(0, 3, 3 * kTicksPerUnit, {1});
  sim.run();
  EXPECT_EQ(delivered, 3 * kTicksPerUnit);
  EXPECT_EQ(net.stats().direct_messages, 1u);
}

TEST(NetworkTest, ServiceTimeSerializesANode) {
  Graph g = make_star(3);  // center 0
  Simulator sim;
  Network<TestMsg, SyncSampler, TestHandler> net(g, sim, SyncSampler{});
  net.set_service_time(100);
  std::vector<Time> handled;
  net.set_handler([&](NodeId, NodeId, const TestMsg&) { handled.push_back(sim.now()); });
  // Two messages arrive at node 0 at the same instant; service serializes.
  net.send(1, 0, {1});
  net.send(2, 0, {2});
  sim.run();
  ASSERT_EQ(handled.size(), 2u);
  EXPECT_EQ(handled[0], kTicksPerUnit + 100);
  EXPECT_EQ(handled[1], kTicksPerUnit + 200);
}

TEST(NetworkTest, ZeroServiceHandlesInParallel) {
  Graph g = make_star(3);
  Simulator sim;
  Network<TestMsg, SyncSampler, TestHandler> net(g, sim, SyncSampler{});
  std::vector<Time> handled;
  net.set_handler([&](NodeId, NodeId, const TestMsg&) { handled.push_back(sim.now()); });
  net.send(1, 0, {1});
  net.send(2, 0, {2});
  sim.run();
  ASSERT_EQ(handled.size(), 2u);
  EXPECT_EQ(handled[0], kTicksPerUnit);
  EXPECT_EQ(handled[1], kTicksPerUnit);
}

TEST(NetworkTest, LatencyStatsAccumulate) {
  Graph g = make_path(2);
  Simulator sim;
  Network<TestMsg, SyncSampler, TestHandler> net(g, sim, SyncSampler{});
  net.set_handler([](NodeId, NodeId, const TestMsg&) {});
  net.send(0, 1, {1});
  net.send(1, 0, {2});
  sim.run();
  EXPECT_EQ(net.stats().edge_messages, 2u);
  EXPECT_EQ(net.stats().total_edge_latency, 2 * kTicksPerUnit);
}

}  // namespace
}  // namespace arrowdq
