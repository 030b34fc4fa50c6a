// Distributed mutual exclusion over the arrow queue: 16 nodes on a random
// tree contend for a lock under Poisson arrivals; we verify mutual exclusion
// and report lock-handoff efficiency versus a centralized lock server.
//
//   $ ./distributed_mutex
#include <cstdio>

#include "apps/mutex.hpp"
#include "arrow/arrow.hpp"
#include "baseline/centralized.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "support/random.hpp"
#include "workload/workloads.hpp"

using namespace arrowdq;

int main() {
  Rng rng(2024);
  const NodeId n = 16;
  Graph g = make_random_tree(n, rng);
  Tree t = shortest_path_tree(g, 0);

  // 40 lock requests arriving at ~1 request per 2 time units, from random
  // nodes (high contention: handoffs chain through the tree).
  RequestSet reqs = poisson_uniform(n, /*root=*/0, /*count=*/40, /*rate=*/0.5, rng);

  const Time cs = units_to_ticks(1);  // each node holds the lock 1 unit
  MutexResult m = run_mutex(t, reqs, cs);

  std::printf("distributed mutex on a random tree (n=%d, %d lock requests)\n", n, reqs.size());
  std::printf("  mutual exclusion: %s\n", m.mutual_exclusion ? "verified" : "VIOLATED");
  std::printf("  makespan        : %.1f units\n", ticks_to_units_d(m.makespan));
  std::printf("  token travel    : %lld units over the tree\n",
              static_cast<long long>(m.token_travel));

  std::printf("\nfirst 10 critical sections (queue order):\n");
  int shown = 0;
  for (RequestId id = 1; id <= reqs.size() && shown < 10; ++id, ++shown) {
    std::printf("  request %2d: acquired %.1f, released %.1f\n", id,
                ticks_to_units_d(m.acquire[static_cast<std::size_t>(id)]),
                ticks_to_units_d(m.release[static_cast<std::size_t>(id)]));
  }

  // Compare the queuing layer alone against a centralized lock server.
  AllPairs apsp(g);
  auto out_central =
      run_centralized(n, reqs, ApspDist{&apsp}, CentralizedConfig{/*center=*/0});
  auto out_arrow = run_arrow(t, reqs);
  std::printf("\nqueuing-layer comparison (total latency, lower is better):\n");
  std::printf("  arrow      : %.1f units, %lld hops\n",
              ticks_to_units_d(out_arrow.total_latency(reqs)),
              static_cast<long long>(out_arrow.total_hops()));
  std::printf("  centralized: %.1f units, %lld hops\n",
              ticks_to_units_d(out_central.total_latency(reqs)),
              static_cast<long long>(out_central.total_hops()));
  return 0;
}
