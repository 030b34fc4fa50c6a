// Sharded conservative discrete-event engine with bit-identical results.
//
// It is the second of the two engines every protocol driver runs on (see
// sim/engine.hpp): a driver instantiated on OnShards gets a LaneCtx for the
// lane owning each node and makes the same schedule calls through it that it
// makes on the serial core.
//
// ShardedNetSim partitions the nodes of one simulation run into K shards
// ("lanes"), each with its own BucketedEventQueue + event arena, and
// advances all lanes concurrently through *safe windows* [W0, W0 + L): L is
// a lower bound on the latency of any send (sim/parallel/lookahead.hpp), so
// an event executing inside a window can only schedule deliveries at or
// beyond the window's end — lanes cannot affect each other (or themselves,
// through the network) before the next barrier. Within a window a lane only
// executes local cascades: service re-arms and driver-local at()/in() whose
// targets land inside the window.
//
// Bit-identity. The serial core's determinism contract is the global
// (time, seq) execution order, where seq is allocated per *schedule call*
// in call order. The sharded engine reproduces that exact allocation:
//
//  * Every schedule call made inside a window (send, send_with_latency,
//    at/in, service re-arm) is appended to its lane's log with the key
//    (sched_time, parent, call_index): the lane-local instant it was made,
//    the seq of the event making it, and its index among that event's
//    calls. Within one lane the log is sorted by that key, and across lanes
//    the keys are totally ordered (distinct events have distinct seqs), so
//    a K-way merge at the window barrier reconstructs the exact order in
//    which the serial run would have made these calls.
//  * The merge assigns each entry the next global sequence number — the
//    very value the serial core's schedule counter would have produced —
//    and only then finalizes sends: latency sampling, fault draws, FIFO
//    clamping and stats all run serially at the barrier in merged order, so
//    stateful samplers, the fault filter's single RNG stream and the
//    per-edge FIFO horizons evolve exactly as in the serial run.
//  * Calls whose target lies inside the current window (possible only for
//    local events — sends are bounded below by L) are enqueued immediately
//    under a provisional key above every real seq (kProvBase + i, FIFO
//    within the window) and executed in-window; the barrier later assigns
//    their real seq so their children's parent keys resolve. Per-instant
//    push order in the lane queues stays ascending (final seqs first, then
//    provisional keys), and no push lands before a lane's last drained
//    instant; that is all BucketedEventQueue requires. Its per-instant
//    order is push order whether an entry went straight to its wheel slot
//    or waited in the overflow and migrated when the window reached it.
//
// The result: for any K — including K = 1, which runs the identical
// window/log/merge machinery inline with no threads — every event executes
// at the same (time, seq) as in the serial core, every RNG stream is
// consumed in the same order, and every observable (makespan, message
// counts, latency sums, completion records) is bit-identical.
// tests/parallel_test.cpp pins this against all 30 golden hashes at
// K ∈ {2, 4} plus randomized topology × latency × fault property runs.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/parallel/lookahead.hpp"
#include "sim/parallel/partition.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

template <typename M, typename Latency, typename Handler, typename Faults,
          typename Index = Graph>
class ShardedNetSim {
 public:
  static_assert(std::is_trivially_copyable_v<M>,
                "network message types must be trivially copyable");

  using Sim = Simulator;
  static constexpr bool kSharded = true;

  /// Provisional in-window keys live above every real sequence number the
  /// merge can allocate (asserted), so a time bucket receiving final seqs
  /// (from barriers) and then provisional keys (in-window) still sees
  /// ascending pushes.
  static constexpr std::uint64_t kProvBase = std::uint64_t{1} << 35;
  static_assert(kProvBase < EventEntry::kMaxSeq);

  class LaneCtx;
  using Ctx = LaneCtx;

  /// `stats_out`, when non-null, receives the window/merge counters after
  /// run().
  ShardedNetSim(const Index& index, Latency latency, Faults faults,
                ShardPartition partition, Time lookahead, ParallelStats* stats_out = nullptr)
      : index_(index),
        latency_(std::move(latency)),
        faults_(std::move(faults)),
        partition_(std::move(partition)),
        lookahead_(std::max<Time>(1, lookahead)),
        fifo_ready_(index.dir_edge_count(), 0),
        busy_until_(static_cast<std::size_t>(index.node_count()), 0),
        lanes_(static_cast<std::size_t>(partition_.shard_count())),
        stats_out_(stats_out) {
    ARROWDQ_ASSERT_MSG(partition_.node_count() == index.node_count(),
                       "partition does not cover the node set");
    stats_par_.lookahead = lookahead_;
    // Graph builds its edge index lazily and not thread-safely; build it
    // now, before lanes can query it.
    if constexpr (std::is_same_v<Index, Graph>) {
      if (index.node_count() >= 2) (void)index.find_edge(0, 1);
    }
  }

  ShardedNetSim(const ShardedNetSim&) = delete;
  ShardedNetSim& operator=(const ShardedNetSim&) = delete;

  void set_handler(Handler h) { handler_ = std::move(h); }

  void set_service_time(Time ticks) {
    ARROWDQ_ASSERT_MSG(ticks >= 0, "service time must be >= 0");
    service_time_ = ticks;
  }

  /// Capacity hint, split across lanes. Messages ride inline in lane events,
  /// so only the event count matters.
  void reserve(std::size_t n_events, std::size_t /*messages*/) {
    const std::size_t per = n_events / lanes_.size() + 16;
    for (Lane& l : lanes_) {
      l.sim.reserve(per);
      l.log.reserve(per);
      l.sends.reserve(per);
    }
  }

  int lane_of(NodeId v) const { return partition_.shard_of(v); }
  int lane_count() const { return static_cast<int>(lanes_.size()); }
  Time makespan() const { return makespan_; }
  const NetworkStats& stats() const { return stats_; }
  Faults& faults() { return faults_; }
  FaultStats fault_stats() const {
    if constexpr (Faults::kActive) return faults_.stats();
    return FaultStats{};
  }

  /// Pre-run scheduling (the driver's initial events), in the driver's
  /// order: each post consumes the next global sequence number, exactly as
  /// the serial schedule counter does.
  template <typename F>
  void post_initial(NodeId owner, Time t, F&& fn) {
    ARROWDQ_ASSERT(!running_);
    const std::uint64_t seq = vseq_++;
    ARROWDQ_ASSERT_MSG(seq < kProvBase, "sequence space exhausted");
    note_makespan(t);
    lanes_[static_cast<std::size_t>(lane_of(owner))].sim.at_seq(t, seq,
                                                               std::forward<F>(fn));
  }

  /// Run to global quiescence: alternate safe windows (all lanes advance to
  /// W0 + L - 1 concurrently) with serial barrier merges until every lane
  /// queue is empty and no logged call remains.
  void run() {
    running_ = true;
    if (lane_count() == 1) {
      window_loop([this](Time t_end) { run_lane_window(0, t_end); });
    } else {
      WorkerPool pool(*this);
      window_loop([&pool](Time t_end) { pool.run_window(t_end); });
    }
    running_ = false;
    for (const Lane& l : lanes_) stats_par_.events_executed += l.sim.events_executed();
    if (stats_out_ != nullptr) *stats_out_ = stats_par_;
  }

  /// Per-lane driver context: the serial engine's context surface, scoped
  /// to one shard.
  class LaneCtx {
   public:
    LaneCtx(ShardedNetSim* eng, int lane) : eng_(eng), lane_(lane) {}

    Time now() const { return eng_->lanes_[static_cast<std::size_t>(lane_)].sim.now(); }
    int lane() const { return lane_; }

    /// Network::send, logged here and finalized (latency sample, fault
    /// draws, FIFO clamp, stats) at the barrier in serial order.
    void send(NodeId from, NodeId to, M msg) {
      eng_->log_call(lane_, LogKind::kEdgeSend, /*t_or_lat=*/0, SendRec{msg, from, to});
    }

    /// Network::send_with_latency. The sharded engine requires latency >=
    /// the direct-send floor folded into the lookahead (>= 1).
    void send_with_latency(NodeId from, NodeId to, Time latency, M msg) {
      ARROWDQ_ASSERT_MSG(latency >= 1, "sharded direct sends need latency >= 1 tick");
      eng_->log_call(lane_, LogKind::kDirectSend, latency, SendRec{msg, from, to});
    }

    /// Simulator::at for driver-local events (issue loops).
    template <typename F>
    void at(Time t, F&& fn) {
      eng_->lane_at(lane_, t, std::forward<F>(fn));
    }
    template <typename F>
    void in(Time delay, F&& fn) {
      ARROWDQ_ASSERT(delay >= 0);
      at(now() + delay, std::forward<F>(fn));
    }

   private:
    ShardedNetSim* eng_;
    int lane_;
  };

  /// Driver-facing context for the lane owning node v (valid during events
  /// executing on that lane).
  LaneCtx ctx_of(NodeId v) { return LaneCtx(this, lane_of(v)); }

 private:
  enum class LogKind : std::uint8_t {
    kProv,        // in-window local event, already enqueued provisionally
    kLocalFut,    // future local event (callable in futs_)
    kRearmFut,    // future service re-arm (SendRec, deliver at t_or_lat)
    kEdgeSend,    // Network::send (SendRec)
    kDirectSend,  // Network::send_with_latency (SendRec, latency t_or_lat)
  };

  struct SendRec {
    M msg;
    NodeId from;
    NodeId to;
  };

  /// One schedule call made inside a window. (sched, parent, ci) is the
  /// merge key; payload indexes the per-kind side array.
  struct LogEntry {
    Time sched;            // lane-local time of the call
    std::uint64_t parent;  // seq (final or provisional) of the calling event
    Time t_or_lat;         // target time (kProv/kLocalFut/kRearmFut), latency (kDirectSend)
    std::uint32_t ci;      // call index within the calling event
    std::uint32_t payload;
    LogKind kind;
  };

  /// Deferred generic callable for a future local at(): enough for every
  /// driver issue-event (pointer + node id sized).
  struct FutRec {
    alignas(std::max_align_t) unsigned char buf[32];
    void (*enqueue)(ShardedNetSim*, int lane, Time t, std::uint64_t seq,
                    const unsigned char* buf);
  };

  /// The one event type the engine itself enqueues: the sharded counterpart
  /// of Network's DeliveryEvent, carrying the message inline (lanes have no
  /// shared message pool).
  struct DeliverEvent {
    ShardedNetSim* eng;
    NodeId from;
    NodeId to;
    M msg;
    bool in_service;
    void operator()() const { eng->on_deliver(from, to, msg, in_service); }
  };
  static_assert(Sim::template fits_inline_v<DeliverEvent>,
                "DeliverEvent must stay on the lane simulators' inline path");

  struct alignas(64) Lane {
    Sim sim;
    std::vector<LogEntry> log;
    std::vector<SendRec> sends;
    std::vector<FutRec> futs;
    /// Final seq assigned to each provisional event of the current window.
    std::vector<std::uint64_t> resolve;
    std::uint32_t prov_count = 0;
    /// Call-index tracking: ci restarts at 0 for each executing event.
    std::uint64_t last_parent = ~std::uint64_t{0};
    std::uint32_t next_ci = 0;
    Time local_makespan = 0;
  };

  // --- window loop ---------------------------------------------------------

  template <typename RunLanes>
  void window_loop(RunLanes&& run_lanes) {
    for (;;) {
      Time w0 = kTimeNever;
      for (const Lane& l : lanes_)
        if (!l.sim.idle()) w0 = std::min(w0, l.sim.next_event_time());
      if (w0 == kTimeNever) break;
      win_end_ = w0 + lookahead_;
      for (Lane& l : lanes_) {
        l.last_parent = ~std::uint64_t{0};
        l.next_ci = 0;
      }
      run_lanes(win_end_ - 1);
      ++stats_par_.windows;
      barrier_merge();
    }
    Time m = makespan_;
    for (const Lane& l : lanes_) m = std::max(m, l.local_makespan);
    makespan_ = m;
  }

  void run_lane_window(int lane, Time t_end) {
    lanes_[static_cast<std::size_t>(lane)].sim.run_until(t_end);
  }

  /// Persistent worker threads, one per lane, released per window through a
  /// generation-counted barrier. The mutex hand-offs give the necessary
  /// happens-before edges: lane state written by a worker is visible to the
  /// merging main thread and vice versa.
  struct WorkerPool {
    explicit WorkerPool(ShardedNetSim& eng) : eng_(eng) {
      const int k = eng.lane_count();
      threads_.reserve(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i)
        threads_.emplace_back([this, i] { worker(i); });
    }
    ~WorkerPool() {
      {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
      }
      cv_start_.notify_all();
      for (std::thread& t : threads_) t.join();
    }

    void run_window(Time t_end) {
      {
        std::lock_guard<std::mutex> lk(m_);
        target_ = t_end;
        pending_ = static_cast<int>(threads_.size());
        ++gen_;
      }
      cv_start_.notify_all();
      std::unique_lock<std::mutex> lk(m_);
      cv_done_.wait(lk, [this] { return pending_ == 0; });
    }

   private:
    void worker(int lane) {
      std::uint64_t seen = 0;
      for (;;) {
        Time t_end;
        {
          std::unique_lock<std::mutex> lk(m_);
          cv_start_.wait(lk, [&] { return stop_ || gen_ != seen; });
          if (stop_) return;
          seen = gen_;
          t_end = target_;
        }
        eng_.run_lane_window(lane, t_end);
        {
          std::lock_guard<std::mutex> lk(m_);
          if (--pending_ == 0) cv_done_.notify_one();
        }
      }
    }

    ShardedNetSim& eng_;
    std::vector<std::thread> threads_;
    std::mutex m_;
    std::condition_variable cv_start_, cv_done_;
    std::uint64_t gen_ = 0;
    int pending_ = 0;
    Time target_ = 0;
    bool stop_ = false;
  };

  // --- in-window logging (lane threads) ------------------------------------

  std::uint32_t call_index(Lane& l) {
    const std::uint64_t parent = l.sim.current_seq();
    if (parent != l.last_parent) {
      l.last_parent = parent;
      l.next_ci = 0;
    }
    return l.next_ci++;
  }

  void log_call(int lane, LogKind kind, Time t_or_lat, SendRec rec) {
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    const std::uint32_t ci = call_index(l);
    l.sends.push_back(rec);
    l.log.push_back(LogEntry{l.sim.now(), l.sim.current_seq(), t_or_lat, ci,
                             static_cast<std::uint32_t>(l.sends.size() - 1), kind});
  }

  template <typename F>
  void lane_at(int lane, Time t, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_trivially_copyable_v<Fn> && sizeof(Fn) <= sizeof(FutRec::buf),
                  "sharded local events must be small trivially copyable callables");
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    const std::uint32_t ci = call_index(l);
    const Time now = l.sim.now();
    const std::uint64_t parent = l.sim.current_seq();
    if (t < win_end_) {
      // In-window target: enqueue now under a provisional key (executes
      // this window); the barrier assigns its real seq for child resolution.
      const std::uint32_t idx = l.prov_count++;
      l.resolve.push_back(0);
      l.local_makespan = std::max(l.local_makespan, t);
      l.sim.at_seq(t, kProvBase + idx, std::forward<F>(fn));
      l.log.push_back(LogEntry{now, parent, t, ci, idx, LogKind::kProv});
    } else {
      FutRec f;
      std::memcpy(f.buf, &fn, sizeof(Fn));
      f.enqueue = [](ShardedNetSim* eng, int ln, Time at, std::uint64_t seq,
                     const unsigned char* buf) {
        Fn local;
        std::memcpy(&local, buf, sizeof(Fn));
        eng->lanes_[static_cast<std::size_t>(ln)].sim.at_seq(at, seq, local);
      };
      l.futs.push_back(f);
      l.log.push_back(LogEntry{now, parent, t, ci,
                               static_cast<std::uint32_t>(l.futs.size() - 1),
                               LogKind::kLocalFut});
    }
  }

  /// Lane-side delivery: the exact serial Network::deliver two-phase flow.
  /// busy_until_[to] is only ever touched by to's owner lane.
  void on_deliver(NodeId from, NodeId to, const M& msg, bool in_service) {
    const int lane = lane_of(to);
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    if (service_time_ != 0 && !in_service) {
      Time& busy = busy_until_[static_cast<std::size_t>(to)];
      const Time start = std::max(l.sim.now(), busy);
      const Time done = start + service_time_;
      busy = done;
      // The serial core consumes one seq for the re-arm here.
      const std::uint32_t ci = call_index(l);
      if (done < win_end_) {
        const std::uint32_t idx = l.prov_count++;
        l.resolve.push_back(0);
        l.local_makespan = std::max(l.local_makespan, done);
        l.sim.at_seq(done, kProvBase + idx, DeliverEvent{this, from, to, msg, true});
        l.log.push_back(
            LogEntry{l.sim.now(), l.sim.current_seq(), done, ci, idx, LogKind::kProv});
      } else {
        l.sends.push_back(SendRec{msg, from, to});
        l.log.push_back(LogEntry{l.sim.now(), l.sim.current_seq(), done, ci,
                                 static_cast<std::uint32_t>(l.sends.size() - 1),
                                 LogKind::kRearmFut});
      }
      return;
    }
    LaneCtx ctx(this, lane);
    handler_(ctx, from, to, msg);
  }

  // --- barrier merge (main thread) -----------------------------------------

  /// Resolve a parent key to its final seq. Provisional parents are always
  /// same-lane and their creating entry merges strictly earlier, so the
  /// resolve slot is filled by the time any child is compared.
  std::uint64_t resolved(const Lane& l, std::uint64_t parent) const {
    return parent < kProvBase ? parent
                              : l.resolve[static_cast<std::size_t>(parent - kProvBase)];
  }

  /// True when entry a (lane la) precedes entry b (lane lb) in the serial
  /// schedule-call order.
  bool entry_before(const Lane& la, const LogEntry& a, const Lane& lb,
                    const LogEntry& b) const {
    if (a.sched != b.sched) return a.sched < b.sched;
    const std::uint64_t pa = resolved(la, a.parent);
    const std::uint64_t pb = resolved(lb, b.parent);
    if (pa != pb) return pa < pb;
    return a.ci < b.ci;
  }

  void barrier_merge() {
    const int k = lane_count();
    // Each lane's log is already sorted by the merge key (appended in lane
    // execution order, which the header argues equals serial order
    // restricted to the lane), so a K-way head scan merges in serial order.
    head_.assign(static_cast<std::size_t>(k), 0);
    for (;;) {
      int best = -1;
      for (int i = 0; i < k; ++i) {
        const Lane& l = lanes_[static_cast<std::size_t>(i)];
        if (head_[static_cast<std::size_t>(i)] >= l.log.size()) continue;
        if (best < 0 ||
            entry_before(l, l.log[head_[static_cast<std::size_t>(i)]],
                         lanes_[static_cast<std::size_t>(best)],
                         lanes_[static_cast<std::size_t>(best)]
                             .log[head_[static_cast<std::size_t>(best)]]))
          best = i;
      }
      if (best < 0) break;
      Lane& l = lanes_[static_cast<std::size_t>(best)];
      const LogEntry& e = l.log[head_[static_cast<std::size_t>(best)]++];
      const std::uint64_t seq = vseq_++;
      ARROWDQ_ASSERT_MSG(seq < kProvBase, "sequence space exhausted");
      ++stats_par_.merged_entries;
      switch (e.kind) {
        case LogKind::kProv:
          l.resolve[e.payload] = seq;  // already enqueued and executed
          break;
        case LogKind::kLocalFut: {
          const FutRec& f = l.futs[e.payload];
          note_makespan(e.t_or_lat);
          f.enqueue(this, best, e.t_or_lat, seq, f.buf);
          break;
        }
        case LogKind::kRearmFut: {
          const SendRec& s = l.sends[e.payload];
          note_makespan(e.t_or_lat);
          lanes_[static_cast<std::size_t>(lane_of(s.to))].sim.at_seq(
              e.t_or_lat, seq, DeliverEvent{this, s.from, s.to, s.msg, true});
          break;
        }
        case LogKind::kEdgeSend:
          finalize_edge_send(e, l.sends[e.payload], seq);
          break;
        case LogKind::kDirectSend:
          finalize_direct_send(e, l.sends[e.payload], seq);
          break;
      }
    }
    for (Lane& l : lanes_) {
      l.log.clear();
      l.sends.clear();
      l.futs.clear();
      l.resolve.clear();
      l.prov_count = 0;
    }
  }

  /// Network::send's finalization, executed at the barrier in merged
  /// (serial) order: sampler and fault RNG streams and the FIFO horizons
  /// see the draws in exactly the serial sequence.
  void finalize_edge_send(const LogEntry& e, const SendRec& s, std::uint64_t seq) {
    DirEdgeRef edge = index_.find_edge(s.from, s.to);
    ARROWDQ_ASSERT_MSG(edge, "send over a non-edge");
    Time lat = latency_(s.from, s.to, edge.weight);
    ARROWDQ_ASSERT(lat >= 1);
    bool duplicated = false;
    if constexpr (Faults::kActive) {
      EdgeFaultResult f = faults_.on_edge(s.from, s.to, lat);
      lat = f.latency;
      duplicated = f.duplicated;
    }
    Time deliver = e.sched + lat;
    Time& ready = fifo_ready_[static_cast<std::size_t>(edge.id)];
    if (deliver < ready) deliver = ready;
    if constexpr (Faults::kActive) {
      deliver = faults_.defer(s.to, deliver);
    }
    ready = deliver;
    if constexpr (Faults::kActive) {
      if (duplicated) ready += lat;
    }
    ++stats_.edge_messages;
    stats_.total_edge_latency += lat;
    push_deliver(deliver, seq, s);
  }

  void finalize_direct_send(const LogEntry& e, const SendRec& s, std::uint64_t seq) {
    Time deliver = e.sched + e.t_or_lat;
    if constexpr (Faults::kActive) {
      deliver = e.sched + faults_.on_direct(s.from, s.to, e.t_or_lat);
      deliver = faults_.defer(s.to, deliver);
    }
    ++stats_.direct_messages;
    push_deliver(deliver, seq, s);
  }

  void push_deliver(Time deliver, std::uint64_t seq, const SendRec& s) {
    // The lookahead contract: no finalized delivery may land inside the
    // window that produced it. A failure here means a latency floor was
    // optimistic — loud, never a silent divergence.
    ARROWDQ_ASSERT_MSG(deliver >= win_end_, "delivery inside its own safe window");
    note_makespan(deliver);
    lanes_[static_cast<std::size_t>(lane_of(s.to))].sim.at_seq(
        deliver, seq, DeliverEvent{this, s.from, s.to, s.msg, false});
  }

  /// Makespan = max target time ever scheduled (every event executes, and
  /// the serial sim.now() after run() is exactly the last — maximal —
  /// executed event time). Lane-side targets fold in via local_makespan.
  void note_makespan(Time t) { makespan_ = std::max(makespan_, t); }

  const Index& index_;
  Latency latency_;
  Faults faults_;
  Handler handler_{};
  ShardPartition partition_;
  Time lookahead_;
  Time service_time_ = 0;
  Time win_end_ = 0;
  Time makespan_ = 0;
  bool running_ = false;
  std::uint64_t vseq_ = 0;
  std::vector<Time> fifo_ready_;  // barrier-serial only
  std::vector<Time> busy_until_;  // element-owned by the node's lane
  std::vector<Lane> lanes_;
  std::vector<std::size_t> head_;  // merge scratch
  NetworkStats stats_;
  ParallelStats stats_par_;
  ParallelStats* stats_out_;
};

/// Engine selector for the sharded engine (see sim/engine.hpp): the same
/// driver template, run on `shard.shards` lanes. Lanes always use 48-byte
/// event slots, whatever simulator the serial tier picks.
struct OnShards {
  const ShardSpec& shard;
  ParallelStats* stats_out = nullptr;  // window/merge counters after the run

  template <typename M, typename Latency, typename Handler, typename Faults, typename Index,
            typename Sim>
  using Engine = ShardedNetSim<M, Latency, Handler, Faults, Index>;

  /// Every sharded run starts here. Message faults run bit-identically;
  /// topology faults need recovery waves (global pointer rewrites) that no
  /// safe window can run. The lookahead is the smaller of the edge-send and
  /// the driver's direct-send latency floors, cut for latency-shrinking
  /// faults, unless the spec forces one.
  template <typename Eng, typename Index, typename Latency, typename Faults>
  Eng make(const Index& index, Latency latency, Faults faults, Time direct_floor,
           const FaultSpec& fault) const {
    ARROWDQ_ASSERT_MSG(!fault.has_topology_faults(),
                       "sharded runs do not support topology faults (crash, partition, churn)");
    const Time lookahead =
        shard.force_lookahead > 0
            ? shard.force_lookahead
            : combined_lookahead(edge_floor(latency, index), direct_floor, fault);
    return Eng(index, std::move(latency), std::move(faults),
               shard.partition(index.node_count()), lookahead, stats_out);
  }
};

}  // namespace arrowdq
