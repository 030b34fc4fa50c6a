// Direct coverage for BucketedEventQueue, the simulator's one event queue:
// the exact (time, seq) pop order against a reference priority queue on
// monotone streams (pushes never behind the last drained instant, the
// simulator's own contract), the wheel/overflow boundary and the migration
// of beyond-horizon entries into the wheel, the single-instant batch drain
// (pop_run) in each of its storage paths, and the bucket recycling that
// keeps long runs allocation-free.
//
// The queue's contract is that seqs are pushed in increasing order (the
// simulator's schedule counter); every test here hands out seqs from one
// counter and carries a payload id in the entry's slot field.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <vector>

#include "sim/event_queue.hpp"
#include "support/random.hpp"

namespace arrowdq {
namespace {

using Queue = BucketedEventQueue;

/// Pushes (t, next seq) carrying `id` in the slot field.
struct Feeder {
  Queue& q;
  std::uint64_t seq = 0;
  void push(Time t, std::uint32_t id) { q.push(EventEntry::make(t, seq++, id)); }
};

std::uint64_t seq_of(const EventEntry& e) { return e.seq_slot >> EventEntry::kSlotBits; }

/// Reference model: a comparison heap on (time, seq).
struct Ref {
  Time t;
  std::uint64_t seq;
  std::uint32_t id;
  bool operator>(const Ref& o) const { return t != o.t ? t > o.t : seq > o.seq; }
};
using RefQueue = std::priority_queue<Ref, std::vector<Ref>, std::greater<>>;

TEST(EventEntryTest, PacksSeqAndSlotIntoOneWord) {
  static_assert(sizeof(EventEntry) == 16);
  const EventEntry a = EventEntry::make(7, 12345, 678);
  EXPECT_EQ(a.t, 7);
  EXPECT_EQ(a.slot(), 678u);
  EXPECT_EQ(seq_of(a), 12345u);
  // The largest slot and seq round-trip without bleeding into each other.
  const auto max_slot = static_cast<std::uint32_t>(EventEntry::kSlotMask);
  const EventEntry b = EventEntry::make(0, EventEntry::kMaxSeq - 1, max_slot);
  EXPECT_EQ(b.slot(), max_slot);
  EXPECT_EQ(seq_of(b), EventEntry::kMaxSeq - 1);
  const EventEntry c = EventEntry::make(0, 1, 0);
  EXPECT_EQ(c.slot(), 0u);
  EXPECT_EQ(seq_of(c), 1u);
}

TEST(BucketedEventQueueTest, EmptyAndSingle) {
  Queue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push(EventEntry::make(5, 0, 42));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.top_time(), 5);
  const EventEntry e = q.pop();
  EXPECT_EQ(e.t, 5);
  EXPECT_EQ(e.slot(), 42u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(BucketedEventQueueTest, OrdersByTimeThenSeq) {
  Queue q;
  Feeder f{q};
  f.push(10, 1);
  f.push(10, 2);
  f.push(5, 3);
  f.push(10, 4);
  f.push(5, 5);
  const std::uint32_t want[] = {3, 5, 1, 2, 4};
  for (std::uint32_t id : want) EXPECT_EQ(q.pop().slot(), id);
  EXPECT_TRUE(q.empty());
}

TEST(BucketedEventQueueTest, TopTimeTracksMinimum) {
  Queue q;
  Feeder f{q};
  for (Time t = 100; t >= 10; t -= 10) {
    f.push(t, static_cast<std::uint32_t>(t));
    EXPECT_EQ(q.top_time(), t);
  }
  for (Time t = 10; t <= 100; t += 10) {
    EXPECT_EQ(q.top_time(), t);
    EXPECT_EQ(q.pop().t, t);
  }
  EXPECT_TRUE(q.empty());
}

/// A monotone stream checked entry by entry against the reference heap:
/// every pop (and every entry of every pop_run) must be the reference's
/// minimum, and pushes go through `push(t)` with t >= the last drained time.
struct CheckedStream {
  Queue q;
  Feeder f{q};
  RefQueue ref;
  std::uint32_t next_id = 0;
  Time now = 0;  // last drained instant

  void push(Time t) {
    ASSERT_GE(t, now);
    ref.push({t, f.seq, next_id});
    f.push(t, next_id++);
  }
  void expect_next(const EventEntry& e) {
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(e.t, ref.top().t);
    ASSERT_EQ(seq_of(e), ref.top().seq);
    ASSERT_EQ(e.slot(), ref.top().id);
    ref.pop();
  }
  void pop() {
    ASSERT_EQ(q.top_time(), ref.top().t);
    const EventEntry e = q.pop();
    now = e.t;
    expect_next(e);
  }
  void pop_run(std::vector<EventEntry>& batch) {
    batch.clear();
    q.pop_run(batch);
    ASSERT_FALSE(batch.empty());
    now = batch.front().t;
    for (const EventEntry& e : batch) {
      ASSERT_EQ(e.t, now);
      expect_next(e);
    }
    // The run is the whole instant.
    if (!ref.empty()) {
      ASSERT_GT(ref.top().t, now);
    }
  }
  void drain() {
    while (!q.empty()) pop();
    EXPECT_TRUE(ref.empty());
  }
};

TEST(BucketedEventQueueTest, MatchesReferenceOnTieHeavyMonotoneStream) {
  // 64 distinct offsets from the last drained instant, offset 0 included:
  // heavy duplication, and pushes into the instant being drained both
  // between single pops and right after a pop_run took the instant.
  for (std::uint64_t seed : {2u, 9u, 31u}) {
    SCOPED_TRACE(seed);
    CheckedStream s;
    Rng rng(seed);
    std::vector<EventEntry> batch;
    for (int round = 0; round < 20000; ++round) {
      if (!s.q.empty() && rng.next_bool(0.45)) {
        if (rng.next_bool(0.25)) {
          s.pop_run(batch);
        } else {
          s.pop();
        }
      } else {
        s.push(s.now + static_cast<Time>(rng.next_below(64)));
      }
      ASSERT_EQ(s.q.size(), s.ref.size());
      if (::testing::Test::HasFatalFailure()) return;
    }
    s.drain();
  }
}

TEST(BucketedEventQueueTest, MatchesReferenceOnNearDistinctTimesAcrossWheelTurns) {
  // Offsets of up to 3/4 of the wheel make nearly every time distinct and
  // keep wrapping the slot index; a few hundred pending entries let the
  // drained instant sweep the wheel many times over.
  constexpr auto kWheel = static_cast<Time>(Queue::kWheel);
  for (std::uint64_t seed : {4u, 17u, 77u}) {
    SCOPED_TRACE(seed);
    CheckedStream s;
    Rng rng(seed);
    std::vector<EventEntry> batch;
    for (int round = 0; round < 18000; ++round) {
      const bool pop = !s.q.empty() && (s.q.size() > 400 || rng.next_bool(0.5));
      if (pop) {
        if (rng.next_bool(0.5)) {
          s.pop_run(batch);
        } else {
          s.pop();
        }
      } else {
        s.push(s.now + 1 + static_cast<Time>(rng.next_below(3 * kWheel / 4)));
      }
      ASSERT_EQ(s.q.size(), s.ref.size());
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(s.now, 10 * kWheel);
    s.drain();
  }
}

TEST(BucketedEventQueueTest, BeyondHorizonEntriesMigrateAheadOfLaterNearPushes) {
  // Deliveries pushed past the wheel's end sit in the overflow until the
  // drained instant comes within a wheel of them. Later pushes at the very
  // same ticks land in the wheel directly and carry larger seqs, so each
  // migrated entry must still come out first. Near pushes spread over the
  // whole window keep the wheel occupied, so the window advances through
  // it rather than by jumping to the overflow's minimum.
  constexpr auto kWheel = static_cast<Time>(Queue::kWheel);
  for (std::uint64_t seed : {3u, 12u, 40u}) {
    SCOPED_TRACE(seed);
    CheckedStream s;
    Rng rng(seed);
    std::set<Time> far;  // ticks that went to the overflow
    std::size_t same_tick_pushes = 0;
    for (int round = 0; round < 20000; ++round) {
      const std::uint64_t pick = rng.next_below(10);
      if (s.q.empty() || (s.q.size() < 300 && pick < 2)) {
        const Time t = s.now + kWheel + static_cast<Time>(rng.next_below(8 * kWheel));
        far.insert(t);
        s.push(t);
      } else if (s.q.size() < 300 && pick < 5) {
        // A near push at the earliest overflow tick not yet drained, once
        // it is inside the window; otherwise anywhere in the window.
        far.erase(far.begin(), far.lower_bound(s.now));
        if (!far.empty() && *far.begin() < s.now + kWheel) {
          s.push(*far.begin());
          ++same_tick_pushes;
        } else {
          s.push(s.now + static_cast<Time>(rng.next_below(kWheel)));
        }
      } else {
        s.pop();
      }
      ASSERT_EQ(s.q.size(), s.ref.size());
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(same_tick_pushes, 1000u);
    s.drain();
  }
}

TEST(BucketedEventQueueTest, WheelEndsOneTickBeforeTheHorizon) {
  // base + kWheel - 1 is the last slot; base + kWheel is the first overflow
  // tick. Both, and a near push at the overflow tick once it is in range,
  // come out in (time, seq) order.
  constexpr auto kWheel = static_cast<Time>(Queue::kWheel);
  Queue q;
  Feeder f{q};
  f.push(kWheel, 1);
  f.push(kWheel - 1, 2);
  f.push(0, 3);
  f.push(kWheel + 1, 4);
  EXPECT_EQ(q.pop().slot(), 3u);
  EXPECT_EQ(q.top_time(), kWheel - 1);
  EXPECT_EQ(q.pop().slot(), 2u);  // base is kWheel - 1: the rest is in range
  f.push(kWheel, 5);
  f.push(kWheel + 1, 6);
  const std::uint32_t want[] = {1, 5, 4, 6};
  for (std::uint32_t id : want) EXPECT_EQ(q.pop().slot(), id);
  EXPECT_TRUE(q.empty());
}

TEST(BucketedEventQueueTest, PeekDoesNotMoveTheWindow) {
  // With only far entries pending, top_time() reports the overflow minimum
  // without draining it, so pushes between the last drained instant and
  // the peeked time stay legal and order ahead of it.
  constexpr auto kWheel = static_cast<Time>(Queue::kWheel);
  Queue q;
  Feeder f{q};
  f.push(5, 1);
  f.push(20 * kWheel, 2);
  EXPECT_EQ(q.pop().slot(), 1u);
  EXPECT_EQ(q.top_time(), 20 * kWheel);
  f.push(10 * kWheel, 3);
  EXPECT_EQ(q.top_time(), 10 * kWheel);
  f.push(6, 4);
  EXPECT_EQ(q.top_time(), 6);
  const std::uint32_t want[] = {4, 3, 2};
  for (std::uint32_t id : want) EXPECT_EQ(q.pop().slot(), id);
  EXPECT_TRUE(q.empty());
}

TEST(BucketedEventQueueDeathTest, PushBehindLastDrainedInstantAsserts) {
#if defined(NDEBUG)
  GTEST_SKIP() << "the monotonicity check is an ARROWDQ_ASSERT, compiled out under NDEBUG";
#else
  EXPECT_DEATH(
      {
        Queue q;
        Feeder f{q};
        f.push(10, 1);
        f.push(20, 2);
        (void)q.pop();
        f.push(9, 3);
      },
      "arrowdq invariant violated");
#endif
}

TEST(BucketedEventQueueTest, BucketRecyclingSurvivesChurn) {
  // Every wave retires all 100 buckets and reuses them for the next wave,
  // each at a later time; no stale entry from a recycled bucket may leak.
  Queue q;
  Feeder f{q};
  for (int wave = 0; wave < 50; ++wave) {
    const Time base = static_cast<Time>(wave) * 1000;
    for (std::uint32_t i = 0; i < 100; ++i) f.push(base + 99 - i, i);
    for (std::uint32_t i = 0; i < 100; ++i) {
      const EventEntry e = q.pop();
      EXPECT_EQ(e.t, base + static_cast<Time>(i)) << "wave " << wave;
      EXPECT_EQ(e.slot(), 99 - i) << "wave " << wave;
    }
    EXPECT_TRUE(q.empty()) << "wave " << wave;
  }
}

TEST(BucketedEventQueueTest, MonotoneDrainIsSorted) {
  Queue q;
  Feeder f{q};
  Rng rng(3);
  for (std::uint32_t i = 0; i < 2000; ++i) f.push(static_cast<Time>(rng.next_below(1 << 20)), i);
  Time prev_t = -1;
  std::uint64_t prev_seq = 0;
  std::size_t popped = 0;
  while (!q.empty()) {
    const EventEntry e = q.pop();
    EXPECT_GE(e.t, prev_t);
    if (e.t == prev_t) {
      EXPECT_GT(seq_of(e), prev_seq);
    }
    prev_t = e.t;
    prev_seq = seq_of(e);
    ++popped;
  }
  EXPECT_EQ(popped, 2000u);
}

TEST(BucketedEventQueueTest, DuplicatePrioritiesPopInSeqOrder) {
  // Same timestamp everywhere: schedule order must be FIFO order.
  Queue q;
  Feeder f{q};
  for (std::uint32_t s = 0; s < 64; ++s) f.push(7, s);
  for (std::uint32_t s = 0; s < 64; ++s) EXPECT_EQ(q.pop().slot(), s);
  EXPECT_TRUE(q.empty());
}

TEST(BucketedEventQueueTest, ManyTiedInstantsAllDrain) {
  // Many instants with many ties each: every entry comes out exactly once,
  // grouped by instant.
  Queue q;
  Feeder f{q};
  std::uint32_t id = 0;
  for (int round = 0; round < 40; ++round)
    for (Time t = 0; t < 8; ++t) f.push(t, id++);
  std::vector<int> seen(id, 0);
  std::vector<int> per_time(8, 0);
  while (!q.empty()) {
    const EventEntry e = q.pop();
    ++seen[e.slot()];
    ++per_time[static_cast<std::size_t>(e.t)];
  }
  for (std::uint32_t i = 0; i < id; ++i) EXPECT_EQ(seen[i], 1) << i;
  for (int c : per_time) EXPECT_EQ(c, 40);
}

TEST(BucketedEventQueueTest, HandlesZeroAndHugeTimes) {
  // Every non-negative time, including the extremes, is an ordinary key:
  // the horizon and the radix keys are computed without overflow.
  Queue q;
  Feeder f{q};
  const Time huge = std::numeric_limits<Time>::max();
  f.push(huge, 1);
  f.push(0, 2);
  f.push(huge - 1, 3);
  f.push(0, 4);
  f.push(huge, 5);
  const std::uint32_t want[] = {2, 4, 3, 1, 5};
  for (std::uint32_t id : want) EXPECT_EQ(q.pop().slot(), id);
  EXPECT_TRUE(q.empty());
}

TEST(BucketedEventQueueTest, PopRunMovesWholeInstantInSeqOrder) {
  Queue q;
  Feeder f{q};
  for (std::uint32_t i = 0; i < 10; ++i) f.push(i % 2 == 0 ? 2 : 7, i);
  std::vector<EventEntry> out;
  q.pop_run(out);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, 2);
    EXPECT_EQ(out[i].slot(), 2 * i);
  }
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.top_time(), 7);
  out.clear();
  q.pop_run(out);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].slot(), 2 * i + 1);
  EXPECT_TRUE(q.empty());
}

TEST(BucketedEventQueueTest, PopRunAfterPartialPopReturnsRemainder) {
  Queue q;
  Feeder f{q};
  for (std::uint32_t i = 0; i < 6; ++i) f.push(4, i);
  f.push(9, 6);
  EXPECT_EQ(q.pop().slot(), 0u);
  EXPECT_EQ(q.pop().slot(), 1u);
  std::vector<EventEntry> out;
  q.pop_run(out);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].slot(), i + 2);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().slot(), 6u);
}

TEST(BucketedEventQueueTest, PopRunAppendsToNonEmptyOut) {
  Queue q;
  Feeder f{q};
  for (std::uint32_t i = 0; i < 3; ++i) f.push(1, i);
  std::vector<EventEntry> out{EventEntry::make(0, 0, 99)};
  q.pop_run(out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].slot(), 99u);
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_EQ(out[i].slot(), i - 1);
  EXPECT_TRUE(q.empty());
}

TEST(BucketedEventQueueTest, PopRunStorageSwapKeepsLaterInstantsIntact) {
  // The simulator's batch loop: drain an instant into a recycled vector,
  // schedule more work at that same instant and later ones while handling
  // it, clear, repeat. The swapped-in storage must never alias a live
  // bucket.
  Queue q;
  Feeder f{q};
  RefQueue ref;
  std::uint32_t id = 0;
  auto push = [&](Time t) {
    ref.push({t, f.seq, id});
    f.push(t, id++);
  };
  for (Time t = 0; t < 4; ++t)
    for (int k = 0; k < 5; ++k) push(t);
  std::vector<EventEntry> batch;
  std::size_t batches = 0;
  while (!q.empty()) {
    const Time now = q.top_time();
    q.pop_run(batch);
    for (const EventEntry& e : batch) {
      ASSERT_EQ(e.t, now);
      ASSERT_EQ(e.slot(), ref.top().id);
      ref.pop();
    }
    if (id < 400) {
      push(now);
      push(now + 1);
      push(now + 3);
    }
    batch.clear();
    ++batches;
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(id, 401u);
  EXPECT_GT(batches, 100u);
}

TEST(BucketedEventQueueTest, ClearEmptiesAndQueueIsReusable) {
  Queue q;
  Feeder f{q};
  for (std::uint32_t i = 0; i < 50; ++i) f.push(static_cast<Time>(i % 7), i);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // Reuse after clear, including times that were pending before it.
  f.push(3, 100);
  f.push(1, 101);
  f.push(3, 102);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().slot(), 101u);
  EXPECT_EQ(q.pop().slot(), 100u);
  EXPECT_EQ(q.pop().slot(), 102u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace arrowdq
