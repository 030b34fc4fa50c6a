#include "arrow/arrow.hpp"

#include <utility>

#include "arrow/one_shot_driver.hpp"

namespace arrowdq {

ArrowEngine::ArrowEngine(const Tree& tree, LatencyModel& latency)
    : tree_(tree), latency_(latency), tree_graph_(tree.as_graph()) {}

template <typename Latency, typename Faults>
QueuingOutcome ArrowEngine::run_with(Latency latency, Faults faults,
                                     const RequestSet& requests) {
  QueuingOutcome out(requests.size());
  detail::ArrowOneShotDriver<Latency, Faults, OnSerial> driver(
      tree_, tree_graph_, std::move(latency), std::move(faults), service_time_, requests, fault_,
      out);
  driver.run(requests);
  link_ = std::move(driver.links());
  sim_ = std::move(driver.engine().sim());  // keeps the run's clock for sim()
  messages_ = driver.engine().stats().edge_messages;
  fault_stats_ = driver.engine().fault_stats();
  stabilize_rounds_ = driver.stabilize_rounds();
  stabilize_corrections_ = driver.stabilize_corrections();
  crashes_applied_ = driver.crashes_applied();
  partitions_applied_ = driver.partitions_applied();
  reselections_ = driver.reselections();
  return out;
}

QueuingOutcome ArrowEngine::run(const RequestSet& requests) {
  return with_static_latency(latency_, [&](auto lat) {
    return with_fault_filter(fault_, tree_.node_count(), [&](auto filt) {
      return run_with(std::move(lat), std::move(filt), requests);
    });
  });
}

NodeId ArrowEngine::sink_node() const { return detail::unique_sink(link_); }

QueuingOutcome run_arrow(const Tree& tree, const RequestSet& requests, LatencyModel& latency) {
  ArrowEngine engine(tree, latency);
  auto out = engine.run(requests);
  out.validate(requests);
  return out;
}

QueuingOutcome run_arrow(const Tree& tree, const RequestSet& requests) {
  SynchronousLatency sync;
  return run_arrow(tree, requests, sync);
}

}  // namespace arrowdq
