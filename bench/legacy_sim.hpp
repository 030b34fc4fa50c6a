// Verbatim snapshot of the pre-rewrite event core: a std::priority_queue of
// fat Event structs holding one std::function each.
//
// Kept ONLY as bench_throughput's frozen reference: it never changes with
// src/, so a ratio against it is the one gated number that catches a
// uniform slowdown of the real event core (every other row divides two
// src/ measurements, where such a slowdown cancels). Not built into
// arrowdq_core; never use outside bench/.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {
namespace legacy {

class Simulator {
 public:
  using Action = std::function<void()>;

  Time now() const { return now_; }

  void at(Time t, Action fn) {
    ARROWDQ_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    heap_.push(Event{t, next_seq_++, std::move(fn)});
  }

  void in(Time delay, Action fn) {
    ARROWDQ_ASSERT(delay >= 0);
    at(now_ + delay, std::move(fn));
  }

  bool step() {
    if (heap_.empty()) return false;
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    ARROWDQ_ASSERT(ev.t >= now_);
    now_ = ev.t;
    ++executed_;
    ev.fn();
    return true;
  }

  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  bool idle() const { return heap_.empty(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  struct Event {
    Time t;
    std::uint64_t seq;
    Action fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace legacy
}  // namespace arrowdq
