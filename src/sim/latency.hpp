// Message latency models.
//
// Synchronous model (Section 3.1): every unit-weight edge delivers in exactly
// one time unit. Asynchronous model (Section 3.8): delays are arbitrary but
// normalized so the slowest message between adjacent nodes takes one unit;
// we provide randomized models whose per-message delay is uniform or
// heavy-tailed within (0, 1] units per unit of edge weight.
//
// The *samplers* (SyncSampler, ScaledSampler, UniformSampler,
// TruncExpSampler) are concrete value types with an inline `operator()`; the
// Network templates over them, so no vtable sits between a send and its
// latency draw. `LatencyModel` is the configuration handle callers own (via
// unique_ptr, LatencySpec::make): a sealed hierarchy of exactly four final
// adapters, one per sampler. `with_static_latency` turns a model into its
// concrete sampler *once per run*; every driver is instantiated for those
// four sampler types and nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "support/assert.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace arrowdq {

namespace detail {
/// fraction of the synchronous latency, floored at one tick.
inline Time fraction_ticks(double fraction, Weight weight) {
  double ticks = fraction * static_cast<double>(units_to_ticks(weight));
  return std::max<Time>(1, static_cast<Time>(std::llround(ticks)));
}
}  // namespace detail

// ---------------------------------------------------------------------------
// Value-type samplers: the statically dispatched tier. Each is a callable
// `Time operator()(NodeId from, NodeId to, Weight weight)` returning >= 1.
// ---------------------------------------------------------------------------

/// Synchronous: exactly weight * kTicksPerUnit.
struct SyncSampler {
  Time operator()(NodeId, NodeId, Weight weight) const { return units_to_ticks(weight); }
  const char* name() const { return "synchronous"; }
};

/// Constant fraction of the synchronous latency (0 < fraction <= 1):
/// models a uniformly fast asynchronous network.
struct ScaledSampler {
  double fraction = 1.0;
  Time operator()(NodeId, NodeId, Weight weight) const {
    return detail::fraction_ticks(fraction, weight);
  }
  const char* name() const { return "scaled"; }
};

/// Uniform in [min_fraction, 1] of the synchronous latency per message.
struct UniformSampler {
  Rng rng;
  double min_fraction = 0.05;
  Time operator()(NodeId, NodeId, Weight weight) {
    return detail::fraction_ticks(rng.next_double(min_fraction, 1.0), weight);
  }
  const char* name() const { return "uniform-async"; }
};

/// Heavy-tailed: latency = clamp(exp-distributed, (0,1]) of synchronous;
/// most messages fast, occasional slow ones — the adversarial flavour of
/// Section 3.8 where the "1" normalization is achieved by the slowest link.
struct TruncExpSampler {
  Rng rng;
  double mean_fraction = 0.3;
  Time operator()(NodeId, NodeId, Weight weight) {
    double f = std::min(1.0, rng.next_exponential(1.0 / mean_fraction));
    return detail::fraction_ticks(f, weight);
  }
  const char* name() const { return "trunc-exp"; }
};

/// Non-owning handle to a sampler living elsewhere (typically inside a
/// LatencyModel adapter): keeps the RNG state shared with the owner while
/// the call itself stays direct and inlinable.
template <typename S>
struct SamplerRef {
  S* sampler = nullptr;
  Time operator()(NodeId from, NodeId to, Weight weight) {
    return (*sampler)(from, to, weight);
  }
  const char* name() const { return sampler->name(); }
};

// ---------------------------------------------------------------------------
// LatencyModel: the owning configuration handle over the samplers.
// ---------------------------------------------------------------------------

/// Sealed: the private constructor admits exactly the four final models
/// below, so with_static_latency covers every model there can be.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Latency in ticks for one message across edge (from, to) of the given
  /// weight (in units). Must be >= 1 tick.
  virtual Time sample(NodeId from, NodeId to, Weight weight) = 0;

  /// A human-readable name for benchmark output.
  virtual const char* name() const = 0;

 private:
  LatencyModel() = default;
  friend class SynchronousLatency;
  friend class ScaledLatency;
  friend class UniformAsyncLatency;
  friend class TruncatedExpLatency;
};

class SynchronousLatency final : public LatencyModel {
 public:
  Time sample(NodeId from, NodeId to, Weight weight) override { return s_(from, to, weight); }
  const char* name() const override { return s_.name(); }
  SyncSampler& sampler() { return s_; }

 private:
  SyncSampler s_;
};

class ScaledLatency final : public LatencyModel {
 public:
  explicit ScaledLatency(double fraction);
  Time sample(NodeId from, NodeId to, Weight weight) override { return s_(from, to, weight); }
  const char* name() const override { return s_.name(); }
  ScaledSampler& sampler() { return s_; }

 private:
  ScaledSampler s_;
};

class UniformAsyncLatency final : public LatencyModel {
 public:
  UniformAsyncLatency(std::uint64_t seed, double min_fraction = 0.05);
  Time sample(NodeId from, NodeId to, Weight weight) override { return s_(from, to, weight); }
  const char* name() const override { return s_.name(); }
  UniformSampler& sampler() { return s_; }

 private:
  UniformSampler s_;
};

class TruncatedExpLatency final : public LatencyModel {
 public:
  TruncatedExpLatency(std::uint64_t seed, double mean_fraction = 0.3);
  Time sample(NodeId from, NodeId to, Weight weight) override { return s_(from, to, weight); }
  const char* name() const override { return s_.name(); }
  TruncExpSampler& sampler() { return s_; }

 private:
  TruncExpSampler s_;
};

std::unique_ptr<LatencyModel> make_synchronous();
std::unique_ptr<LatencyModel> make_scaled(double fraction);
std::unique_ptr<LatencyModel> make_uniform_async(std::uint64_t seed, double min_fraction = 0.05);
std::unique_ptr<LatencyModel> make_truncated_exp(std::uint64_t seed, double mean_fraction = 0.3);

/// One-time static dispatch: invoke `fn` with the concrete sampler behind
/// `model` (state shared with the model, stateless kinds passed by value).
/// The cost of the dynamic_cast chain is paid once per *run*, not per
/// message — callers templated on the sampler type then sample with a
/// direct call.
template <typename Fn>
decltype(auto) with_static_latency(LatencyModel& model, Fn&& fn) {
  if (auto* p = dynamic_cast<SynchronousLatency*>(&model)) return fn(p->sampler());
  if (auto* p = dynamic_cast<ScaledLatency*>(&model)) return fn(p->sampler());
  if (auto* p = dynamic_cast<UniformAsyncLatency*>(&model))
    return fn(SamplerRef<UniformSampler>{&p->sampler()});
  auto* p = dynamic_cast<TruncatedExpLatency*>(&model);
  ARROWDQ_ASSERT_MSG(p != nullptr, "LatencyModel is sealed to the four models above");
  return fn(SamplerRef<TruncExpSampler>{&p->sampler()});
}

}  // namespace arrowdq
