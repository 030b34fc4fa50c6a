// Deterministic discrete-event simulator over a pooled, typed event arena.
//
// Events are (time, sequence) ordered: ties at equal time execute in the
// order they were scheduled, so a run is a pure function of its inputs and
// seeds. This is what lets the test suite assert exact integer costs against
// the paper's lemmas.
//
// Hot-path design: `at(t, fn)` type-erases `fn` into a fixed-size slot of a
// free-listed arena — no heap allocation when the callable is trivially
// copyable and fits kInlineStorage bytes, which covers every protocol event
// in this codebase (oversized or non-trivial callables transparently fall
// back to one heap allocation). The event queue (BucketedEventQueue, see
// event_queue.hpp) orders only 16-byte (time, seq|slot) handles, so it
// never touches the payloads. Each event's invoke wrapper copies the
// callable out of the arena and frees the slot *before* running it, which
// keeps nested scheduling safe against arena growth and lets the freed slot
// be reused immediately.
//
// Same-tick batch draining: step() moves the whole run of entries sharing
// the earliest timestamp out of the queue at once (pop_run: one bitmap scan
// to the instant's wheel slot and one vector swap) and executes them from a
// flat buffer, so bursty instants — the n simultaneous issue() events of a
// closed loop, multicast fan-outs — pay the queue once per instant instead
// of once per event. Events scheduled *during* a batch at the same instant
// carry higher sequence numbers than everything in the buffer, so running
// them in the next refill preserves the exact (time, seq) order; the golden
// determinism suite pins this. The queue's one precondition, no push before
// the last drained instant, is implied by the "cannot schedule into the
// past" assert: now() never falls behind an instant already drained.
//
// The one template parameter is the slot width: Simulator (48 inline bytes,
// 64-byte slots) for the protocol drivers, CompactSimulator (16 inline
// bytes, 32-byte slots) for the implicit scale tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// `InlineBytes` sets the arena's inline-callable budget and thereby the
/// slot size (16-byte invoke/destroy header + storage): 48 yields 64-byte
/// slots (one cache line); 16 yields a 32-byte "compact"
/// slot that doubles arena cache density for 16-byte events such as the
/// network's DeliveryEvent (bench_throughput measures both).
template <std::size_t InlineBytes>
class BasicSimulator {
 public:
  /// Callables at most this large (and trivially copyable/destructible)
  /// schedule without touching the heap.
  static constexpr std::size_t kInlineStorage = InlineBytes;
  // The storage doubles as a boxed-callable pointer and as the intrusive
  // free-list link, so it can never shrink below either.
  static_assert(InlineBytes >= sizeof(void*) && InlineBytes >= sizeof(std::uint32_t),
                "inline storage must hold a pointer (boxed path) and a free-list index");

  /// True when F schedules on the zero-allocation inline path. Protocol
  /// event types static_assert this so a future field addition cannot
  /// silently fall onto the heap-boxed path.
  template <typename F>
  static constexpr bool fits_inline_v =
      sizeof(F) <= kInlineStorage && alignof(F) <= alignof(std::max_align_t) &&
      std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F>;

  BasicSimulator() = default;
  BasicSimulator(const BasicSimulator&) = delete;
  BasicSimulator& operator=(const BasicSimulator&) = delete;
  BasicSimulator(BasicSimulator&& other) noexcept
      : queue_(std::move(other.queue_)),
        slots_(std::move(other.slots_)),
        batch_(std::move(other.batch_)),
        batch_pos_(other.batch_pos_),
        free_head_(other.free_head_),
        now_(other.now_),
        next_seq_(other.next_seq_),
        current_seq_slot_(other.current_seq_slot_),
        executed_(other.executed_) {
    other.reset_moved_from();
  }
  BasicSimulator& operator=(BasicSimulator&& other) noexcept {
    if (this != &other) {
      discard_pending();
      queue_ = std::move(other.queue_);
      slots_ = std::move(other.slots_);
      batch_ = std::move(other.batch_);
      batch_pos_ = other.batch_pos_;
      free_head_ = other.free_head_;
      now_ = other.now_;
      next_seq_ = other.next_seq_;
      current_seq_slot_ = other.current_seq_slot_;
      executed_ = other.executed_;
      other.reset_moved_from();
    }
    return *this;
  }
  ~BasicSimulator() { discard_pending(); }

  Time now() const { return now_; }

  /// Capacity hint: pre-size the arena for ~n concurrently pending events
  /// so the hot path never reallocates it.
  void reserve(std::size_t n_events) { slots_.reserve(n_events); }

  /// Schedule `fn` at absolute time t >= now().
  template <typename F>
  void at(Time t, F&& fn) {
    ARROWDQ_ASSERT_MSG(next_seq_ < EventEntry::kMaxSeq, "event sequence space exhausted");
    schedule(t, next_seq_++, std::forward<F>(fn));
  }

  /// Schedule `fn` at now() + delay, delay >= 0.
  template <typename F>
  void in(Time delay, F&& fn) {
    ARROWDQ_ASSERT(delay >= 0);
    at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at time t with an explicitly chosen sequence number,
  /// bypassing the internal schedule counter. The sharded engine uses this
  /// to reproduce the serial core's global (time, seq) order across shard
  /// queues: barrier merges assign each event the rank the serial run would
  /// have given it. Caller contract (required by BucketedEventQueue): for
  /// any single instant, successive pushes must carry increasing seqs.
  template <typename F>
  void at_seq(Time t, std::uint64_t seq, F&& fn) {
    ARROWDQ_ASSERT_MSG(seq < EventEntry::kMaxSeq, "event sequence out of range");
    schedule(t, seq, std::forward<F>(fn));
  }

  /// Execute the single earliest event. Returns false if none pending.
  /// Refills the same-tick batch buffer from the queue when it runs dry.
  bool step() {
    if (batch_pos_ == batch_.size()) {
      batch_.clear();
      batch_pos_ = 0;
      if (queue_.empty()) return false;
      queue_.pop_run(batch_);
    }
    EventEntry e = batch_[batch_pos_++];
    ARROWDQ_ASSERT(e.t >= now_);
    now_ = e.t;
    current_seq_slot_ = e.seq_slot;
    ++executed_;
    std::uint32_t slot = e.slot();
    slots_[slot].invoke(this, slot);
    return true;
  }

  /// Run until the event queue drains; returns events executed.
  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  /// Run while the earliest event time is <= t_end; returns events executed.
  /// Afterwards now() == t_end if the queue drained earlier than t_end.
  std::uint64_t run_until(Time t_end) {
    std::uint64_t n = 0;
    while (!idle() && next_time() <= t_end) {
      step();
      ++n;
    }
    if (now_ < t_end) now_ = t_end;
    return n;
  }

  bool idle() const { return batch_pos_ == batch_.size() && queue_.empty(); }
  std::uint64_t events_executed() const { return executed_; }
  std::size_t events_pending() const {
    return queue_.size() + (batch_.size() - batch_pos_);
  }

  /// Sequence number of the event currently (or most recently) executing.
  /// The sharded engine reads this inside handlers to key causal parents.
  std::uint64_t current_seq() const { return current_seq_slot_ >> EventEntry::kSlotBits; }

  /// Earliest pending event time; requires !idle(). Public for the sharded
  /// engine's safe-window computation (min over shard queues).
  Time next_event_time() const {
    ARROWDQ_ASSERT(!idle());
    return next_time();
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Slot {
    void (*invoke)(BasicSimulator*, std::uint32_t) = nullptr;
    /// Non-null only for heap-boxed callables; frees without invoking.
    void (*destroy)(void*) = nullptr;
    // Live: the type-erased callable. Free: the first 4 bytes hold the next
    // free slot's index (intrusive free list).
    alignas(std::max_align_t) unsigned char storage[kInlineStorage];
  };
  static_assert(std::is_trivially_copyable_v<Slot>);

  /// The one schedule path behind at() and at_seq(): type-erase `fn` into an
  /// arena slot and queue its (t, seq) handle.
  template <typename F>
  void schedule(Time t, std::uint64_t seq, F&& fn) {
    ARROWDQ_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    using Fn = std::decay_t<F>;
    std::uint32_t slot;
    if constexpr (fits_inline_v<Fn>) {
      slot = acquire_slot();
      Slot& s = slots_[slot];
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      // The wrapper knows sizeof(Fn): it copies exactly that much to the
      // stack, recycles the slot, then runs — so a nested at() can both
      // grow the arena and reuse this very slot safely.
      s.invoke = [](BasicSimulator* self, std::uint32_t sl) {
        Fn local = *std::launder(reinterpret_cast<Fn*>(self->slots_[sl].storage));
        self->release_slot(sl);
        local();
      };
      s.destroy = nullptr;
    } else {
      // Box first, acquire after: a throwing copy must not strand a slot.
      auto boxed = std::make_unique<Fn>(std::forward<F>(fn));
      slot = acquire_slot();
      Slot& s = slots_[slot];
      ::new (static_cast<void*>(s.storage)) (Fn*)(boxed.release());
      s.invoke = [](BasicSimulator* self, std::uint32_t sl) {
        std::unique_ptr<Fn> f(*std::launder(reinterpret_cast<Fn**>(self->slots_[sl].storage)));
        self->release_slot(sl);
        (*f)();
      };
      s.destroy = [](void* p) { delete *std::launder(static_cast<Fn**>(p)); };
    }
    queue_.push(EventEntry::make(t, seq, slot));
  }

  /// Earliest pending event time; undefined when idle().
  Time next_time() const {
    return batch_pos_ < batch_.size() ? batch_[batch_pos_].t : queue_.top_time();
  }

  std::uint32_t acquire_slot() {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      std::memcpy(&free_head_, slots_[slot].storage, sizeof(free_head_));
      return slot;
    }
    ARROWDQ_ASSERT_MSG(slots_.size() < EventEntry::kSlotMask,
                       "too many concurrently pending events");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t slot) {
    std::memcpy(slots_[slot].storage, &free_head_, sizeof(free_head_));
    free_head_ = slot;
  }

  /// A moved-from simulator must stay usable: the free list (which would
  /// point into the old arena) must be emptied, and so must the queue —
  /// its move leaves the wheel's slot table and scalars behind, which
  /// clear() resets.
  void reset_moved_from() {
    queue_.clear();
    batch_.clear();
    batch_pos_ = 0;
    free_head_ = kNoSlot;
    now_ = 0;
    next_seq_ = 0;
    current_seq_slot_ = 0;
    executed_ = 0;
  }

  /// Frees heap-boxed callables of never-executed events (destruction or
  /// move-assignment over a simulator abandoned mid-run), including any
  /// still waiting in the drained same-tick batch.
  void discard_pending() {
    for (; batch_pos_ < batch_.size(); ++batch_pos_) {
      Slot& s = slots_[batch_[batch_pos_].slot()];
      if (s.destroy) s.destroy(s.storage);
    }
    while (!queue_.empty()) {
      EventEntry e = queue_.pop();
      Slot& s = slots_[e.slot()];
      if (s.destroy) s.destroy(s.storage);
    }
  }

  BucketedEventQueue queue_;
  std::vector<Slot> slots_;
  /// Current same-tick run, drained from the queue in one pop_run; entries
  /// at batch_pos_.. are pending, earlier ones already executed.
  std::vector<EventEntry> batch_;
  std::size_t batch_pos_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t current_seq_slot_ = 0;
  std::uint64_t executed_ = 0;
};

/// The default simulator: 64-byte arena slots, so every protocol driver's
/// 24-40-byte issue events stay on the inline path.
using Simulator = BasicSimulator<48>;

/// 32-byte-slot variant (16-byte inline budget): double the arena cache
/// density for drivers whose events are all pointer+index sized, at the
/// cost of boxing anything larger. Measured against the default by
/// bench_throughput's event_core_compact section; the implicit scale tier
/// runs on it.
using CompactSimulator = BasicSimulator<16>;

extern template class BasicSimulator<48>;
extern template class BasicSimulator<16>;

}  // namespace arrowdq
