// In-memory spans for the benchmark's traced run.
//
// The harness wraps its own calls into each library module in a Scope; a
// Scope records (name, start, end, parent span, cell id) when tracing is on
// and does nothing otherwise. Spans stay in memory until the run ends, when
// the harness folds them into per-layer metrics: a layer's self time is its
// span's duration minus the part its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds since process start on the steady clock.
inline double now_s() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index of the enclosing span, -1 for a root
  int cell = -1;    // scenario cell the span belongs to, -1 if none
  double seconds() const { return end - start; }
};

class Tracer {
 public:
  bool on() const { return on_; }
  void enable() { on_ = true; }

  int open(const char* name, int cell, int parent) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, cell});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

inline Tracer& tracer() {
  static Tracer t;
  return t;
}

/// Innermost open span on the calling thread (-1 outside any span).
inline thread_local int t_open_span = -1;

/// Records one span around its lifetime when tracing is on; its parent is
/// the innermost span open on the calling thread.
class Scope {
 public:
  explicit Scope(const char* name, int cell = -1) {
    if (!tracer().on()) return;
    id_ = tracer().open(name, cell, t_open_span);
    saved_ = t_open_span;
    t_open_span = id_;
  }
  ~Scope() {
    if (id_ < 0) return;
    tracer().close(id_);
    t_open_span = saved_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  int id_ = -1;
  int saved_ = -1;
};

/// Every span's self time: its duration minus its children's durations,
/// clamped at zero (children running in parallel can sum past the parent).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  for (double& x : self) x = std::max(0.0, x);
  return self;
}

/// Summed self time of every span called `name`.
inline double total_self(const std::vector<Span>& spans, const std::vector<double>& self,
                         const std::string& name) {
  double sum = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (name == spans[i].name) sum += self[i];
  return sum;
}

/// Durations of every span called `name`, in recording order.
inline std::vector<double> durations(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (name == s.name) out.push_back(s.seconds());
  return out;
}

/// Share of span `root`'s wall time that none of its direct children
/// covers (the union of their intervals, so parallel children count once).
inline double unattributed_frac(const std::vector<Span>& spans, int root) {
  const Span& r = spans[static_cast<std::size_t>(root)];
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans)
    if (s.parent == root) iv.emplace_back(s.start, s.end);
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  for (const auto& [lo, hi] : iv) {
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return r.seconds() > 0.0 ? std::max(0.0, r.seconds() - covered) / r.seconds() : 0.0;
}

}  // namespace perfbench
