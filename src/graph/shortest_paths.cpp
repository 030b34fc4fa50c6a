#include "graph/shortest_paths.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <mutex>
#include <queue>

namespace arrowdq {

namespace {
struct HeapItem {
  Weight dist;
  NodeId node;
  bool operator>(const HeapItem& o) const {
    return dist != o.dist ? dist > o.dist : node > o.node;
  }
};

/// Monotone priority queue over non-negative integer keys. An item sits in
/// bucket bit_width(key ^ last), where `last` is the most recently popped
/// key; Dijkstra only pushes keys >= last, so a pop that finds bucket 0
/// empty takes the first non-empty bucket, makes its minimum the new `last`
/// and redistributes it into strictly lower buckets. One layout serves every
/// positive Weight, from unit edges to 2^40-unit ones.
class RadixHeap {
 public:
  bool empty() const { return size_ == 0; }

  void push(Weight key, NodeId v) {
    buckets_[bucket(key)].push_back({key, v});
    ++size_;
  }

  HeapItem pop() {
    if (buckets_[0].empty()) {
      std::size_t i = 1;
      while (buckets_[i].empty()) ++i;
      std::vector<HeapItem>& b = buckets_[i];
      last_ = std::min_element(b.begin(), b.end(), [](const HeapItem& x, const HeapItem& y) {
                return x.dist < y.dist;
              })->dist;
      for (const HeapItem& it : b) buckets_[bucket(it.dist)].push_back(it);
      b.clear();
    }
    HeapItem top = buckets_[0].back();
    buckets_[0].pop_back();
    if (--size_ == 0) last_ = 0;  // ready for the next source
    return top;
  }

 private:
  std::size_t bucket(Weight key) const {
    return static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(key) ^ static_cast<std::uint64_t>(last_)));
  }

  std::array<std::vector<HeapItem>, 65> buckets_;
  Weight last_ = 0;
  std::size_t size_ = 0;
};

/// Distance-only Dijkstra from `source` into dist[0, n); `adj(v)` yields
/// node v's half-edges.
template <typename Adj>
void dijkstra_dist(const Adj& adj, NodeId n, NodeId source, Weight* dist, RadixHeap& heap) {
  std::fill(dist, dist + n, kUnreachable);
  dist[source] = 0;
  heap.push(0, source);
  while (!heap.empty()) {
    auto [d, v] = heap.pop();
    if (d != dist[v]) continue;  // stale entry
    for (const HalfEdge& he : adj(v)) {
      const Weight nd = d + he.weight;
      Weight& cur = dist[he.to];
      if (cur == kUnreachable || nd < cur) {
        cur = nd;
        heap.push(nd, he.to);
      }
    }
  }
}
}  // namespace

std::vector<Weight> sssp_with_parents(const Graph& g, NodeId source,
                                      std::vector<NodeId>& parents) {
  ARROWDQ_ASSERT(source >= 0 && source < g.node_count());
  std::vector<Weight> dist(static_cast<std::size_t>(g.node_count()), kUnreachable);
  parents.assign(static_cast<std::size_t>(g.node_count()), kNoNode);
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  dist[static_cast<std::size_t>(source)] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    for (const auto& he : g.neighbors(v)) {
      Weight nd = d + he.weight;
      auto& cur = dist[static_cast<std::size_t>(he.to)];
      if (cur == kUnreachable || nd < cur) {
        cur = nd;
        parents[static_cast<std::size_t>(he.to)] = v;
        heap.push({nd, he.to});
      }
    }
  }
  return dist;
}

std::vector<Weight> sssp(const Graph& g, NodeId source) {
  ARROWDQ_ASSERT(source >= 0 && source < g.node_count());
  std::vector<Weight> dist(static_cast<std::size_t>(g.node_count()));
  RadixHeap heap;
  dijkstra_dist([&g](NodeId v) { return g.neighbors(v); }, g.node_count(), source, dist.data(),
                heap);
  return dist;
}

std::vector<Weight> bfs_hops(const Graph& g, NodeId source) {
  ARROWDQ_ASSERT(source >= 0 && source < g.node_count());
  std::vector<Weight> dist(static_cast<std::size_t>(g.node_count()), kUnreachable);
  std::queue<NodeId> q;
  dist[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop();
    for (const auto& he : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(he.to)] == kUnreachable) {
        dist[static_cast<std::size_t>(he.to)] = dist[static_cast<std::size_t>(v)] + 1;
        q.push(he.to);
      }
    }
  }
  return dist;
}

struct AllPairs::Fill {
  std::mutex mu;
  std::vector<std::unique_ptr<Weight[]>> rows;  // owns every published row
  RadixHeap heap;
};

AllPairs::AllPairs(const Graph& g)
    : n_(g.node_count()),
      ready_(std::make_unique<std::atomic<const Weight*>[]>(static_cast<std::size_t>(n_))),
      fill_(std::make_unique<Fill>()) {
  offsets_.reserve(static_cast<std::size_t>(n_) + 1);
  arcs_.reserve(g.dir_edge_count());
  offsets_.push_back(0);
  for (NodeId v = 0; v < n_; ++v) {
    const auto nb = g.neighbors(v);
    arcs_.insert(arcs_.end(), nb.begin(), nb.end());
    offsets_.push_back(arcs_.size());
  }
}

AllPairs::AllPairs(AllPairs&&) noexcept = default;
AllPairs& AllPairs::operator=(AllPairs&&) noexcept = default;
AllPairs::~AllPairs() = default;

const Weight* AllPairs::filled_row(NodeId u) const {
  std::atomic<const Weight*>& slot = ready_[static_cast<std::size_t>(u)];
  if (const Weight* r = slot.load(std::memory_order_acquire)) return r;
  std::lock_guard<std::mutex> lock(fill_->mu);
  if (const Weight* r = slot.load(std::memory_order_relaxed)) return r;  // filled meanwhile
  auto row = std::make_unique_for_overwrite<Weight[]>(static_cast<std::size_t>(n_));
  const auto adj = [this](NodeId v) {
    return std::span<const HalfEdge>(arcs_.data() + offsets_[static_cast<std::size_t>(v)],
                                     arcs_.data() + offsets_[static_cast<std::size_t>(v) + 1]);
  };
  dijkstra_dist(adj, n_, u, row.get(), fill_->heap);
  const Weight* r = row.get();
  fill_->rows.push_back(std::move(row));
  slot.store(r, std::memory_order_release);
  return r;
}

std::span<const Weight> AllPairs::row(NodeId u) const {
  ARROWDQ_ASSERT(u >= 0 && u < n_);
  return {filled_row(u), static_cast<std::size_t>(n_)};
}

NodeId AllPairs::rows_filled() const {
  std::lock_guard<std::mutex> lock(fill_->mu);
  return static_cast<NodeId>(fill_->rows.size());
}

Weight AllPairs::diameter() const {
  Weight best = 0;
  for (NodeId u = 0; u < n_; ++u)
    for (Weight d : row(u)) {
      ARROWDQ_ASSERT_MSG(d != kUnreachable, "diameter of a disconnected graph");
      best = std::max(best, d);
    }
  return best;
}

Weight AllPairs::radius() const {
  Weight best = kUnreachable;
  for (NodeId u = 0; u < n_; ++u) {
    Weight ecc = 0;
    for (Weight d : row(u)) {
      ARROWDQ_ASSERT_MSG(d != kUnreachable, "radius of a disconnected graph");
      ecc = std::max(ecc, d);
    }
    if (best == kUnreachable || ecc < best) best = ecc;
  }
  return best;
}

NodeId AllPairs::center() const {
  Weight best = kUnreachable;
  NodeId center = kNoNode;
  for (NodeId v = 0; v < n_; ++v) {
    Weight ecc = 0;
    for (Weight d : row(v)) ecc = std::max(ecc, d);
    if (best == kUnreachable || ecc < best) {
      best = ecc;
      center = v;
    }
  }
  return center;
}

}  // namespace arrowdq
