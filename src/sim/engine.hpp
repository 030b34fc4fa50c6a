// One protocol driver, two engines.
//
// Every protocol driver (arrow closed loop and one-shot, centralized and
// pointer-forwarding baselines) is written once, as a class template over an
// engine selector: OnSerial runs it on the serial core (one Simulator plus
// one Network), OnShards (sim/parallel/sharded_sim.hpp) on the sharded
// conservative engine. Both engines offer a driver the same surface:
//
//   engine  ctx_of(v), post_initial(owner, t, fn), run(), makespan(),
//           stats(), fault_stats(), faults(), lane_count(), set_handler(h),
//           set_service_time(t), reserve(events, messages)
//   ctx     now(), lane(), send(from, to, msg),
//           send_with_latency(from, to, latency, msg), at(t, fn), in(d, fn)
//
// A driver handles deliveries in receive(ctx, from, at, msg) and schedules
// only through a ctx, so each of its statements makes the same schedule call
// on either engine. That is what lets the sharded engine reproduce the serial
// (time, seq) execution order bit for bit (see sharded_sim.hpp).
//
// Three things cannot run unchanged on concurrent lanes. Each has one rule
// that serves both engines (the serial engine is a single lane):
//
//  * Request ids: lane l of K allocates 1 + l + K*i (LaneTally::next_id). At
//    K = 1 this is the serial 1, 2, 3, ... after kRootRequest == 0. Ids feed
//    asserts and ride in messages whose handlers ignore the value, so the
//    stride is unobservable.
//  * Latency averages: one exact __int128 sum per lane, added up after the
//    run. Integer addition is order-free, so the mean is bit-identical for
//    any K.
//  * Completions (CompletionLog): the serial engine records them at once,
//    because the fault-recovery paths read the outcome mid-run. Lanes buffer
//    them and record after run(). The outcome is keyed by request id and
//    successor, both unique per record, so any flush order rebuilds the
//    same outcome.
//
// Fault recovery (crash, partition, churn) rewrites pointers globally, which
// no safe window can do; drivers keep it serial-only behind `if constexpr`
// and the sharded engine refuses topology-fault schedules.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "proto/queuing.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// The network handler every driver installs: forwards a delivery to the
/// driver's receive(ctx, from, at, msg). The sharded engine passes the
/// delivering lane's context; Network delivers without one, so the serial
/// context is taken from the driver's engine.
template <typename D>
struct ReceiveHandler {
  D* d = nullptr;
  template <typename Ctx, typename M>
  void operator()(Ctx& ctx, NodeId from, NodeId at, const M& m) const {
    d->receive(ctx, from, at, m);
  }
  template <typename M>
  void operator()(NodeId from, NodeId at, const M& m) const {
    auto ctx = d->engine().ctx_of(at);
    d->receive(ctx, from, at, m);
  }
};

/// The serial engine: one Simulator and one Network, a single lane. Handler
/// is the Network's (from, to, msg) callable.
template <typename M, typename Latency, typename Handler, typename Faults = NoFaults,
          typename Index = Graph, typename S = Simulator>
class SerialNetSim {
 public:
  using Sim = S;
  static constexpr bool kSharded = false;

  class Ctx {
   public:
    explicit Ctx(SerialNetSim* eng) : eng_(eng) {}
    Time now() const { return eng_->sim_.now(); }
    int lane() const { return 0; }
    void send(NodeId from, NodeId to, M msg) { eng_->net_.send(from, to, msg); }
    void send_with_latency(NodeId from, NodeId to, Time latency, M msg) {
      eng_->net_.send_with_latency(from, to, latency, msg);
    }
    template <typename F>
    void at(Time t, F&& fn) {
      eng_->sim_.at(t, std::forward<F>(fn));
    }
    template <typename F>
    void in(Time delay, F&& fn) {
      eng_->sim_.in(delay, std::forward<F>(fn));
    }

   private:
    SerialNetSim* eng_;
  };

  SerialNetSim(const Index& index, Latency latency, Faults faults)
      : net_(index, sim_, std::move(latency), std::move(faults)) {}
  SerialNetSim(const SerialNetSim&) = delete;
  SerialNetSim& operator=(const SerialNetSim&) = delete;

  void set_handler(Handler h) { net_.set_handler(std::move(h)); }
  void set_service_time(Time ticks) { net_.set_service_time(ticks); }
  /// Capacity hints: pending events and concurrently in-flight messages.
  void reserve(std::size_t events, std::size_t messages) {
    sim_.reserve(events);
    net_.reserve_messages(messages);
  }

  Ctx ctx_of(NodeId) { return Ctx(this); }
  template <typename F>
  void post_initial(NodeId, Time t, F&& fn) {
    sim_.at(t, std::forward<F>(fn));
  }
  void run() { sim_.run(); }

  int lane_count() const { return 1; }
  Time makespan() const { return sim_.now(); }
  const NetworkStats& stats() const { return net_.stats(); }
  Faults& faults() { return net_.faults(); }
  FaultStats fault_stats() const {
    if constexpr (Faults::kActive) return net_.faults().stats();
    return FaultStats{};
  }
  /// The simulator itself, for the serial-only fault-recovery events.
  Sim& sim() { return sim_; }

 private:
  Sim sim_;
  Network<M, Latency, Handler, Faults, Index, Sim> net_;
};

/// Engine selector for the serial core. A driver names its engine as
/// `typename On::template Engine<Msg, Latency, Handler, Faults, Index, Sim>`
/// and builds it with `on.template make<Eng>(...)`; engines are immovable,
/// and the returned prvalue is constructed in place.
struct OnSerial {
  template <typename M, typename Latency, typename Handler, typename Faults, typename Index,
            typename Sim>
  using Engine = SerialNetSim<M, Latency, Handler, Faults, Index, Sim>;

  /// `direct_floor` and `fault` size the sharded engine's safe windows; the
  /// serial core needs neither.
  template <typename Eng, typename Index, typename Latency, typename Faults>
  Eng make(const Index& index, Latency latency, Faults faults, Time /*direct_floor*/,
           const FaultSpec& /*fault*/) const {
    return Eng(index, std::move(latency), std::move(faults));
  }
};

/// Per-lane driver counters.
struct LaneTally {
  __int128 latency_sum = 0;  // exact round-latency sum (ticks)
  std::int64_t rounds = 0;   // completed closed-loop rounds
  std::int64_t ids = 0;      // request ids this lane has allocated
  std::uint64_t find_messages = 0;
  std::uint64_t reply_messages = 0;
  // Lanes write neighbouring entries concurrently; 80 spare bytes keep two
  // lanes' counters on different cache lines whatever the vector's
  // alignment. (alignas(64) would send the vector through the allocator's
  // aligned path, which fragments the serial engine's heap: +10 MiB peak RSS
  // on a repeated n = 2^20 closed loop.)
  char pad[80];

  RequestId next_id(int lane, int lanes) {
    return static_cast<RequestId>(1 + lane + static_cast<std::int64_t>(lanes) * ids++);
  }
};

/// All lanes' tallies added together.
inline LaneTally sum_lanes(const std::vector<LaneTally>& lanes) {
  LaneTally t;
  for (const LaneTally& l : lanes) {
    t.latency_sum += l.latency_sum;
    t.rounds += l.rounds;
    t.find_messages += l.find_messages;
    t.reply_messages += l.reply_messages;
  }
  return t;
}

/// Mean round latency in units.
inline double mean_round_units(const LaneTally& t) {
  return t.rounds == 0 ? 0.0
                       : static_cast<double>(t.latency_sum) / static_cast<double>(t.rounds) /
                             static_cast<double>(kTicksPerUnit);
}

/// Where a one-shot driver's completions go: straight into the outcome on
/// the serial engine, into per-lane buffers on the sharded one (flushed
/// after the run).
template <typename Eng>
class CompletionLog {
 public:
  CompletionLog(QueuingOutcome& out, int lanes) : out_(out) {
    if constexpr (Eng::kSharded) lanes_.resize(static_cast<std::size_t>(lanes));
  }

  void record(int lane, const Completion& c) {
    if constexpr (Eng::kSharded) {
      lanes_[static_cast<std::size_t>(lane)].push_back(c);
    } else {
      out_.record(c);
    }
  }

  void flush() {
    for (const std::vector<Completion>& lane : lanes_)
      for (const Completion& c : lane) out_.record(c);
  }

  /// The outcome recorded so far (complete on the serial engine only).
  QueuingOutcome& outcome() { return out_; }
  const QueuingOutcome& outcome() const { return out_; }

 private:
  QueuingOutcome& out_;
  std::vector<std::vector<Completion>> lanes_;
};

}  // namespace arrowdq
