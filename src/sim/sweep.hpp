// Parallel scenario sweep runner.
//
// The Figure 9/10/11 reproductions and the competitive-ratio tables all have
// the same shape: many *independent* simulations over (tree, latency model,
// config) points. A single simulation is inherently serial (one event loop),
// but the sweep across points is embarrassingly parallel — this module
// shards scenarios over a thread pool while keeping runs bit-identical to a
// serial sweep:
//
//  * Scenarios are value objects. A worker builds its own latency model
//    from the scenario's LatencySpec (per-scenario RNG seed), so no mutable
//    state is shared between threads.
//  * map() writes each result into a pre-sized slot per index, so the
//    output order is the scenario order no matter how threads interleave,
//    and the result values themselves are independent of the thread count.
//
// The scenario layer on top is run_experiments (exp/experiment.hpp): any
// mix of protocols/topologies/workloads as declarative Experiment values,
// mapped through map(); tests/experiment_test.cpp pins its results as
// independent of the thread count, including 1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/latency.hpp"

namespace arrowdq {

/// Declarative latency-model description: a value object a worker thread can
/// turn into a private model instance (randomized kinds get their own
/// deterministic per-scenario stream from `seed`).
struct LatencySpec {
  enum class Kind : std::uint8_t { kSynchronous, kScaled, kUniformAsync, kTruncatedExp };
  Kind kind = Kind::kSynchronous;
  double param = 1.0;          // fraction / min_fraction / mean_fraction
  std::uint64_t seed = 0;      // RNG seed for the randomized kinds

  std::unique_ptr<LatencyModel> make() const;
  const char* name() const;

  static LatencySpec synchronous() { return {Kind::kSynchronous, 1.0, 0}; }
  static LatencySpec scaled(double fraction) { return {Kind::kScaled, fraction, 0}; }
  static LatencySpec uniform_async(std::uint64_t seed, double min_fraction = 0.05) {
    return {Kind::kUniformAsync, min_fraction, seed};
  }
  static LatencySpec truncated_exp(std::uint64_t seed, double mean_fraction = 0.3) {
    return {Kind::kTruncatedExp, mean_fraction, seed};
  }
};

class SweepRunner {
 public:
  /// threads == 0 → std::thread::hardware_concurrency() (at least 1).
  explicit SweepRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  /// Generic deterministic parallel map: out[i] = fn(i) for i in [0, n).
  /// fn must be safe to call concurrently for different i and R must be
  /// default-constructible. Workers claim indices from an atomic counter,
  /// so scheduling is dynamic but the output order is fixed.
  template <typename R, typename Fn>
  std::vector<R> map(std::size_t n, Fn&& fn) const {
    std::vector<R> out(n);
    for_indices(n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// The parallel-for primitive behind map.
  void for_indices(std::size_t n, const std::function<void(std::size_t)>& body) const;

 private:
  unsigned threads_;
};

}  // namespace arrowdq
