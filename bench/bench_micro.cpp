// Engine microbenchmarks (google-benchmark): event-queue throughput, tree
// distance queries, and end-to-end arrow simulation rates. These guard the
// simulator's performance so the Figure 10 experiment stays cheap to re-run
// at the paper's full 100000 requests/processor scale.
#include <benchmark/benchmark.h>

#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "support/random.hpp"
#include "workload/workloads.hpp"

namespace arrowdq {
namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i)
      sim.at(static_cast<Time>(mix64(i) % 100000), [&sink] { ++sink; });
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_TreeDistanceQueries(benchmark::State& state) {
  Rng rng(1);
  Graph g = make_random_tree(static_cast<NodeId>(state.range(0)), rng);
  Tree t = shortest_path_tree(g, 0);
  Rng qrng(2);
  for (auto _ : state) {
    auto u = static_cast<NodeId>(qrng.next_below(static_cast<std::uint64_t>(t.node_count())));
    auto v = static_cast<NodeId>(qrng.next_below(static_cast<std::uint64_t>(t.node_count())));
    benchmark::DoNotOptimize(t.distance(u, v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeDistanceQueries)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ArrowOneShot(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Graph g = make_complete(n);
  Tree t = balanced_binary_overlay(g);
  auto reqs = one_shot_all(n, 0);
  SynchronousLatency sync;
  for (auto _ : state) {
    ArrowEngine engine(t, sync);
    auto out = engine.run(reqs);
    benchmark::DoNotOptimize(out.total_hops());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ArrowOneShot)->Arg(16)->Arg(64)->Arg(256);

void BM_ArrowClosedLoopRequests(benchmark::State& state) {
  Graph g = make_complete(32);
  Tree t = balanced_binary_overlay(g);
  SynchronousLatency sync;
  ClosedLoopConfig cfg;
  cfg.requests_per_node = state.range(0);
  cfg.service_time = kTicksPerUnit / 16;
  for (auto _ : state) {
    auto res = run_arrow_closed_loop(t, sync, cfg);
    benchmark::DoNotOptimize(res.makespan);
  }
  state.SetItemsProcessed(state.iterations() * 32 * state.range(0));
}
BENCHMARK(BM_ArrowClosedLoopRequests)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace arrowdq

BENCHMARK_MAIN();
