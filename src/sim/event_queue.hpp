// The simulator's event queue: 16-byte (time, seq|slot) handles ordered by
// (time, seq), with the event payload living in the simulator's arena.
//
// BucketedEventQueue is a monotone integer-time queue in two tiers:
//
//  * Wheel. kWheel = 4096 exact-tick slots cover [base, base + kWheel),
//    where base is the last drained instant (4 time units at
//    kTicksPerUnit = 1024). A slot holds one instant's FIFO run in a pooled
//    bucket, named by a 32-bit index, so a push there is a mask and a
//    vector append, and pop_run hands out a whole instant at once. A
//    two-level bitmap (64 words under one summary word), scanned from base
//    with wrap-around, finds the next occupied slot.
//  * Overflow. A push due at base + kWheel or later goes to a binary radix
//    heap keyed by time: bucket p holds the keys whose highest bit differing
//    from the heap's floor `last_` is p. Equal times always share a bucket
//    and every move walks a bucket front to back, so equal times keep their
//    push order. Each time base advances, the entries the window now covers
//    move into their slots before anything else is pushed, so a slot always
//    receives its overflow entries ahead of every direct push at that tick.
//
// Discrete-event protocol workloads are tie-heavy (unit latencies quantize
// timestamps; the Figure 10 closed loop averages dozens of events per
// instant), and under uniform/exp latencies nearly every timestamp is new
// but lies within a few units of now; both cases stay on the wheel. Per-
// instant order is push order, so the queue requires increasing sequence
// numbers across pushes into one instant (BasicSimulator's schedule counter
// and the sharded engine's final-then-provisional keys guarantee it); the
// append order then realizes the exact (time, seq) order.
//
// Precondition: no push is earlier than the last drained instant (the
// simulator asserts the stronger "cannot schedule into the past"). top_time()
// only peeks, so a caller may still schedule anywhere between the last
// drained instant and the time it peeked.
//
// Why a wheel: a heap over the distinct pending times with a hashed
// time→bucket map pays a probe and two sifts for every new timestamp, which
// under uniform/exp latencies is nearly every event. Against that design the
// wheel raised perfbench queue_ops_per_s on all three workloads (alternating
// pairs, shared 4-core container); README's "Measured numbers" has the A/B.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// A scheduled-event handle. The schedule sequence number and the payload's
/// arena slot share one word: slot in the low kSlotBits, seq above, so the
/// entry stays 16 bytes.
struct EventEntry {
  /// Capacity split of the packed word: at most 2^28-1 (~268M) events may
  /// be *concurrently pending* (the implicit scale tier keeps ~1.25n
  /// pending in closed loop, so this covers the n = 2^24 fig10_scale cell
  /// with an order of magnitude to spare; exceeding it is a loud assert,
  /// not corruption) and at most 2^36 (~7x10^10) events may be scheduled
  /// over a simulator's lifetime.
  static constexpr unsigned kSlotBits = 28;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

  Time t;
  std::uint64_t seq_slot;

  static EventEntry make(Time t, std::uint64_t seq, std::uint32_t slot) {
    return {t, (seq << kSlotBits) | slot};
  }
  std::uint32_t slot() const { return static_cast<std::uint32_t>(seq_slot & kSlotMask); }
};

/// Sliding exact-tick wheel plus radix-heap overflow (see the file comment).
/// Preconditions: times are pushed no earlier than the last drained instant,
/// and seq|slot values are pushed in increasing seq order within an instant.
class BucketedEventQueue {
 public:
  static constexpr unsigned kWheelBits = 12;
  static constexpr std::uint64_t kWheel = std::uint64_t{1} << kWheelBits;

  BucketedEventQueue() { slot_bucket_.fill(kNone); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void clear() {
    slot_bucket_.fill(kNone);
    occupied_.fill(0);
    summary_ = 0;
    buckets_.clear();
    free_buckets_.clear();
    for (std::vector<EventEntry>& level : radix_) level.clear();
    radix_mask_ = 0;
    last_ = 0;
    overflow_min_ = kUnknown;
    base_ = 0;
    size_ = 0;
  }

  Time top_time() const {
    ARROWDQ_ASSERT(size_ != 0);
    const std::uint32_t s = find_slot();
    if (s == kNone) return static_cast<Time>(overflow_min());
    return static_cast<Time>(base_ + ((s - base_) & kMask));
  }

  void push(EventEntry e) {
    ARROWDQ_ASSERT(e.t >= static_cast<Time>(base_));
    ++size_;
    const auto t = static_cast<std::uint64_t>(e.t);
    if (t - base_ < kWheel) {
      wheel_push(e);
      return;
    }
    radix_push(e);
    if (overflow_min_ != kUnknown && t < overflow_min_) overflow_min_ = t;
  }

  EventEntry pop() {
    ARROWDQ_ASSERT(size_ != 0);
    const std::uint32_t s = advance();
    const std::uint32_t b = slot_bucket_[s];
    Bucket& bucket = buckets_[b];
    EventEntry e = bucket.items[bucket.cursor++];
    --size_;
    if (bucket.cursor == bucket.items.size()) close_slot(s, b);
    return e;
  }

  /// Batch drain: the earliest slot already holds its run in (time, seq)
  /// order, so the whole instant moves out at once — no sorting. When `out`
  /// is empty the bucket's storage is swapped instead of copied, so batch
  /// draining through BasicSimulator recycles the same vectors forever.
  void pop_run(std::vector<EventEntry>& out) {
    ARROWDQ_ASSERT(size_ != 0);
    const std::uint32_t s = advance();
    const std::uint32_t b = slot_bucket_[s];
    Bucket& bucket = buckets_[b];
    size_ -= bucket.items.size() - bucket.cursor;
    if (out.empty() && bucket.cursor == 0) {
      out.swap(bucket.items);
    } else {
      out.insert(out.end(),
                 bucket.items.begin() + static_cast<std::ptrdiff_t>(bucket.cursor),
                 bucket.items.end());
    }
    close_slot(s, b);
  }

 private:
  static constexpr std::uint64_t kMask = kWheel - 1;
  static constexpr std::size_t kWords = kWheel / 64;
  static_assert(kWords <= 64, "the summary word indexes every bitmap word");
  /// An empty slot's bucket index, and find_slot()'s "no occupied slot".
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};

  struct Bucket {
    std::vector<EventEntry> items;
    std::uint32_t cursor = 0;
  };

  // --- wheel ---------------------------------------------------------------

  void wheel_push(EventEntry e) {
    const auto s = static_cast<std::uint32_t>(static_cast<std::uint64_t>(e.t) & kMask);
    std::uint32_t b = slot_bucket_[s];
    if (b == kNone) b = open_slot(s);
    buckets_[b].items.push_back(e);
  }

  std::uint32_t open_slot(std::uint32_t s) {
    std::uint32_t b;
    if (!free_buckets_.empty()) {
      b = free_buckets_.back();
      free_buckets_.pop_back();
    } else {
      b = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    }
    slot_bucket_[s] = b;
    occupied_[s >> 6] |= std::uint64_t{1} << (s & 63);
    summary_ |= std::uint64_t{1} << (s >> 6);
    return b;
  }

  /// Empties slot s and returns its bucket b to the pool.
  void close_slot(std::uint32_t s, std::uint32_t b) {
    Bucket& bucket = buckets_[b];
    bucket.items.clear();
    bucket.cursor = 0;
    free_buckets_.push_back(b);
    slot_bucket_[s] = kNone;
    std::uint64_t& word = occupied_[s >> 6];
    word &= ~(std::uint64_t{1} << (s & 63));
    if (word == 0) summary_ &= ~(std::uint64_t{1} << (s >> 6));
  }

  /// First occupied slot at or after base's, wrapping; kNone if none.
  std::uint32_t find_slot() const {
    if (summary_ == 0) return kNone;
    const auto p = static_cast<std::uint32_t>(base_ & kMask);
    const std::uint32_t w = p >> 6;
    if (const std::uint64_t m = occupied_[w] & (~std::uint64_t{0} << (p & 63)))
      return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(m));
    // Later words, else wrap to the lowest one (word w's bits left are < p).
    std::uint64_t later = summary_ & ~((std::uint64_t{2} << w) - 1);
    if (later == 0) later = summary_;
    const auto w2 = static_cast<std::uint32_t>(std::countr_zero(later));
    return (w2 << 6) | static_cast<std::uint32_t>(std::countr_zero(occupied_[w2]));
  }

  /// Moves base to the earliest pending instant, pulling what the window
  /// now covers out of the overflow, and returns that instant's slot.
  std::uint32_t advance() {
    const std::uint32_t s = find_slot();
    if (s == kNone) {
      base_ = overflow_min();
      migrate();
      return static_cast<std::uint32_t>(base_ & kMask);
    }
    const std::uint64_t t = base_ + ((s - base_) & kMask);
    if (t != base_) {
      base_ = t;
      migrate();
    }
    return s;
  }

  // --- overflow: binary radix heap over times >= base + kWheel -------------
  //
  // Invariant: every entry is > last_, sits in bucket msb(t ^ last_), and
  // last_ < base_ + kWheel, so overflow pushes always land above the floor.

  void radix_push(EventEntry e) {
    const auto t = static_cast<std::uint64_t>(e.t);
    const int p = std::bit_width(t ^ last_) - 1;
    radix_[static_cast<std::size_t>(p)].push_back(e);
    radix_mask_ |= std::uint64_t{1} << p;
  }

  /// Moves every overflow entry due before base + kWheel into its slot.
  /// Buckets are visited lowest first; bucket p spans [lb, lb + 2^p). A
  /// bucket entirely inside the window empties into the wheel. A bucket the
  /// window's end cuts re-floors the heap at base + kWheel - 1 (inside its
  /// span, so higher buckets keep their index) and refiles what stays into
  /// lower buckets; nothing above it can be due.
  void migrate() {
    const std::uint64_t horizon = base_ + kWheel;
    while (radix_mask_ != 0) {
      const int p = std::countr_zero(radix_mask_);
      const std::uint64_t lb = ((last_ >> p) | 1) << p;
      if (lb >= horizon) return;
      overflow_min_ = kUnknown;
      radix_mask_ &= radix_mask_ - 1;
      const bool cut = horizon - 1 - lb < (std::uint64_t{1} << p);
      if (cut) last_ = horizon - 1;
      std::vector<EventEntry>& level = radix_[static_cast<std::size_t>(p)];
      for (const EventEntry& e : level) {
        if (static_cast<std::uint64_t>(e.t) < horizon) {
          wheel_push(e);
        } else {
          radix_push(e);
        }
      }
      level.clear();
      if (cut) return;
    }
  }

  /// Earliest overflow time; requires a non-empty overflow. Cached until
  /// the next migration, so repeated peeks past an empty wheel scan once.
  std::uint64_t overflow_min() const {
    ARROWDQ_ASSERT(radix_mask_ != 0);
    if (overflow_min_ == kUnknown) {
      std::uint64_t m = kUnknown;
      for (const EventEntry& e : radix_[static_cast<std::size_t>(std::countr_zero(radix_mask_))])
        m = std::min(m, static_cast<std::uint64_t>(e.t));
      overflow_min_ = m;
    }
    return overflow_min_;
  }

  std::array<std::uint32_t, kWheel> slot_bucket_;
  std::array<std::uint64_t, kWords> occupied_{};
  std::uint64_t summary_ = 0;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::array<std::vector<EventEntry>, 64> radix_;
  std::uint64_t radix_mask_ = 0;
  std::uint64_t last_ = 0;
  mutable std::uint64_t overflow_min_ = kUnknown;
  std::uint64_t base_ = 0;
  std::size_t size_ = 0;
};

}  // namespace arrowdq
