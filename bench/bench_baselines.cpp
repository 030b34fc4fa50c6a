// Ablation A4: the queuing-protocol landscape of the related-work section —
// arrow vs. the centralized protocol vs. the Ivy/NTA pointer-forwarding
// family (with and without path compression) on a complete graph.
//
// Expected shape: under high contention arrow has the fewest hops per
// request; centralized always pays exactly 2; pointer forwarding with
// compression stays logarithmic, without compression it is worse.
#include <cstdio>

#include "arrow/arrow.hpp"
#include "baseline/centralized.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "support/random.hpp"
#include "support/table.hpp"
#include "workload/workloads.hpp"

using namespace arrowdq;

int main() {
  std::printf("=== Ablation A4: queuing protocol landscape (complete graph) ===\n\n");
  Table table({"n", "load", "protocol", "total_latency(units)", "avg_hops", "total_msgs"});

  for (NodeId n : {16, 32, 64}) {
    Graph g = make_complete(n);
    Tree t = balanced_binary_overlay(g);
    struct Load {
      const char* name;
      RequestSet reqs;
    };
    Rng rng(static_cast<std::uint64_t>(n));
    Rng r1 = rng.split(), r2 = rng.split();
    std::vector<Load> loads;
    loads.push_back({"burst", one_shot_all(n, 0)});
    loads.push_back({"poisson", poisson_uniform(n, 0, 4 * n, 2.0, r1)});
    loads.push_back({"sequential", sequential_random(n, 0, 2 * n, 4, r2)});

    for (auto& load : loads) {
      auto report = [&](const char* proto, const QueuingOutcome& out) {
        table.row()
            .cell(static_cast<std::int64_t>(n))
            .cell(load.name)
            .cell(proto)
            .cell(ticks_to_units_d(out.total_latency(load.reqs)), 1)
            .cell(static_cast<double>(out.total_hops()) / load.reqs.size(), 2)
            .cell(out.total_hops());
      };
      report("arrow", run_arrow(t, load.reqs));
      report("centralized",
             run_centralized(n, load.reqs, complete_dist(n), CentralizedConfig{0}));
      {
        PointerForwardingConfig cfg;
        cfg.mode = ForwardingMode::kCompressToRequester;
        report("ivy/nta", run_pointer_forwarding(n, load.reqs, complete_dist(n), cfg));
      }
      {
        PointerForwardingConfig cfg;
        cfg.mode = ForwardingMode::kReverseToSender;
        report("reversal-only", run_pointer_forwarding(n, load.reqs, complete_dist(n), cfg));
      }
    }
  }
  emit_table(table, "baselines");
  std::printf("\nexpected shape: arrow's hops/request lowest under burst loads; "
              "centralized fixed at 2; compression beats plain reversal at scale.\n");
  return 0;
}
