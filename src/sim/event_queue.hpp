// The simulator's event queue: 16-byte (time, seq|slot) handles ordered by
// (time, seq), with the event payload living in the simulator's arena.
//
// BucketedEventQueue is calendar-style: a binary min-heap over *distinct*
// pending times plus a FIFO bucket per time. Discrete-event protocol
// workloads are tie-heavy (service times and unit latencies quantize every
// timestamp; the Figure 10 closed loop averages dozens of events per
// instant), so per-event cost collapses to a hash probe and a vector append,
// and the log-cost heap operation is paid once per *instant* instead of once
// per event. It requires monotonically increasing sequence numbers across
// pushes into one time bucket (BasicSimulator guarantees this); the bucket
// append order then realizes the exact (time, seq) order.
//
// It is the only queue: comparison heaps lost to it even on near-distinct
// timestamps. On perfbench's fig10_async (exp:0.3 latency), a binary-heap
// build ran at a median 0.70M queue ops/s against 1.35M for this queue and
// lost all 10 alternating pairs (4-vCPU shared container).
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/random.hpp"
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

/// Calendar-style tie-bucketing queue: a binary min-heap over the distinct
/// pending times, a FIFO bucket of entries per time, and an open-addressed
/// (tombstone-compacting) time→bucket map. Precondition: seq|slot values are pushed in
/// increasing seq order (BasicSimulator's schedule counter guarantees it),
/// which makes bucket append order the exact (time, seq) order.
class BucketedEventQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void reserve(std::size_t n) {
    // Buckets and heap entries exist per *distinct pending time*, typically
    // a small fraction of pending events — sizing them to n would allocate
    // tens of MB for large reserves that never get used.
    const std::size_t distinct = n / 8 + 16;
    heap_.reserve(distinct);
    buckets_.reserve(distinct);
    free_buckets_.reserve(distinct);
  }

  void clear() {
    heap_.clear();
    buckets_.clear();
    free_buckets_.clear();
    map_time_.clear();
    map_bucket_.clear();
    map_mask_ = 0;
    map_live_ = 0;
    map_dirty_ = 0;
    size_ = 0;
  }

  Time top_time() const {
    ARROWDQ_ASSERT(size_ != 0);
    return heap_[0].t;
  }

  void push(EventEntry e) {
    ++size_;
    // Grow / compact tombstones at 1/2 occupancy; live entries are the
    // distinct pending times, typically a small fraction of pending events.
    if (2 * (map_live_ + map_dirty_ + 1) > map_mask_ + 1) map_rehash();
    // One find-or-insert probe walk: existing bucket → append; otherwise
    // remember the first tombstone (or the trailing empty slot) for the
    // insert.
    std::uint64_t pos = mix64(static_cast<std::uint64_t>(e.t)) & map_mask_;
    std::uint64_t insert_pos = ~std::uint64_t{0};
    while (map_time_[pos] != kEmptyKey) {
      if (map_time_[pos] == e.t) {
        buckets_[map_bucket_[pos]].items.push_back(e);
        return;
      }
      if (map_time_[pos] == kTombstone && insert_pos == ~std::uint64_t{0}) insert_pos = pos;
      pos = (pos + 1) & map_mask_;
    }
    if (insert_pos == ~std::uint64_t{0}) {
      insert_pos = pos;
    } else {
      --map_dirty_;
    }
    const std::uint32_t b = acquire_bucket();
    Bucket& bucket = buckets_[b];
    bucket.time = e.t;
    bucket.cursor = 0;
    bucket.items.clear();
    bucket.items.push_back(e);
    map_time_[insert_pos] = e.t;
    map_bucket_[insert_pos] = b;
    ++map_live_;
    heap_push(TimeEntry{e.t, b});
  }

  EventEntry pop() {
    ARROWDQ_ASSERT(size_ != 0);
    Bucket& bucket = buckets_[heap_[0].bucket];
    EventEntry e = bucket.items[bucket.cursor++];
    --size_;
    if (bucket.cursor == bucket.items.size()) retire_top();
    return e;
  }

  /// Batch drain: the minimal-time bucket already holds its run in (time,
  /// seq) order, so the whole instant moves out with one heap pop — no
  /// per-event sift, no sorting. When `out` is empty the bucket's storage
  /// is swapped instead of copied, so batch draining through
  /// BasicSimulator recycles the same two vectors forever.
  void pop_run(std::vector<EventEntry>& out) {
    ARROWDQ_ASSERT(size_ != 0);
    Bucket& bucket = buckets_[heap_[0].bucket];
    const std::size_t count = bucket.items.size() - bucket.cursor;
    if (out.empty() && bucket.cursor == 0) {
      out.swap(bucket.items);
    } else {
      out.insert(out.end(),
                 bucket.items.begin() + static_cast<std::ptrdiff_t>(bucket.cursor),
                 bucket.items.end());
    }
    size_ -= count;
    retire_top();
  }

 private:
  static constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};
  /// Open-addressing sentinels; simulated times are >= 0, so negative
  /// sentinels can never collide with a real key.
  static constexpr Time kEmptyKey = std::numeric_limits<Time>::min();
  static constexpr Time kTombstone = std::numeric_limits<Time>::min() + 1;

  struct Bucket {
    std::vector<EventEntry> items;
    std::uint32_t cursor = 0;
    Time time = 0;
  };
  struct TimeEntry {
    Time t;
    std::uint32_t bucket;
  };

  /// Pop the (exhausted) minimal time: remove the heap root, recycle its
  /// bucket, and tombstone its map slot.
  void retire_top() {
    const TimeEntry top = heap_[0];
    map_erase(top.t);
    free_buckets_.push_back(top.bucket);
    const TimeEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) heap_sift_down(0, last);
  }

  std::uint32_t acquire_bucket() {
    if (!free_buckets_.empty()) {
      const std::uint32_t b = free_buckets_.back();
      free_buckets_.pop_back();
      return b;
    }
    buckets_.emplace_back();
    return static_cast<std::uint32_t>(buckets_.size() - 1);
  }

  // --- distinct-time binary heap (keyed by time alone; times are unique) --

  void heap_push(TimeEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 1;
      if (!(e.t < heap_[parent].t)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void heap_sift_down(std::size_t i, TimeEntry x) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && heap_[c + 1].t < heap_[c].t) ++c;
      if (!(heap_[c].t < x.t)) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = x;
  }

  // --- open-addressed time→bucket map ------------------------------------

  void map_erase(Time t) {
    std::uint64_t pos = mix64(static_cast<std::uint64_t>(t)) & map_mask_;
    while (map_time_[pos] != t) {
      ARROWDQ_ASSERT(map_time_[pos] != kEmptyKey);
      pos = (pos + 1) & map_mask_;
    }
    map_time_[pos] = kTombstone;
    --map_live_;
    ++map_dirty_;
  }

  void map_rehash() {
    std::uint64_t cap = 16;
    while (cap < 4 * (map_live_ + 1)) cap <<= 1;
    std::vector<Time> old_time = std::move(map_time_);
    std::vector<std::uint32_t> old_bucket = std::move(map_bucket_);
    map_time_.assign(cap, kEmptyKey);
    map_bucket_.assign(cap, kNoBucket);
    map_mask_ = cap - 1;
    map_dirty_ = 0;
    for (std::size_t i = 0; i < old_time.size(); ++i) {
      const Time t = old_time[i];
      if (t == kEmptyKey || t == kTombstone) continue;
      std::uint64_t pos = mix64(static_cast<std::uint64_t>(t)) & map_mask_;
      while (map_time_[pos] != kEmptyKey) pos = (pos + 1) & map_mask_;
      map_time_[pos] = t;
      map_bucket_[pos] = old_bucket[i];
    }
  }

  std::vector<TimeEntry> heap_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::vector<Time> map_time_;
  std::vector<std::uint32_t> map_bucket_;
  std::uint64_t map_mask_ = 0;
  std::size_t map_live_ = 0;
  std::size_t map_dirty_ = 0;
  std::size_t size_ = 0;
};

}  // namespace arrowdq
