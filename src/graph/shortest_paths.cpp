#include "graph/shortest_paths.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <mutex>
#include <queue>
#include <utility>

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

/// The distance-only Dijkstra's scratch: the heap and one mark per node.
struct DijkstraScratch {
  explicit DijkstraScratch(NodeId n) : covered(static_cast<std::size_t>(n)) {}
  RadixHeap heap;
  std::vector<std::uint8_t> covered;
};

/// Distance-only Dijkstra from `source` into dist[0, n); `adj(v)` yields
/// node v's half-edges and `row(v)` node v's filled dG row, or nullptr.
///
/// A popped node x with a filled row relaxes every y through dG(x, y) in
/// one pass over that row instead of over x's arcs, and marks each y the
/// pass reaches at <= its current distance as covered. A covered node is
/// skipped when popped, since x's pass already offered everything its arcs
/// could (AllPairs gives the argument); an arc that strictly improves a
/// node clears its mark. With no row filled this is plain Dijkstra.
/// Distances are compared as unsigned (the unsigned twin of Weight may
/// alias it), so kUnreachable reads as infinity; a y unreachable from x is
/// unreachable from the source too, so marking it changes nothing.
template <typename Adj, typename Row>
void dijkstra_dist(const Adj& adj, const Row& row, NodeId n, NodeId source, Weight* out,
                   DijkstraScratch& s) {
  constexpr auto kInf = static_cast<std::uint64_t>(kUnreachable);
  auto* dist = reinterpret_cast<std::uint64_t*>(out);
  std::uint8_t* covered = s.covered.data();
  std::fill(dist, dist + n, kInf);
  std::fill(covered, covered + n, std::uint8_t{0});
  dist[source] = 0;
  s.heap.push(0, source);
  while (!s.heap.empty()) {
    const auto [d, x] = s.heap.pop();
    const auto dx = static_cast<std::uint64_t>(d);
    if (dx != dist[x] || covered[x]) continue;  // stale entry, or matched via a row
    if (const Weight* rx = row(x)) {
      for (NodeId y = 0; y < n; ++y) {  // branch-free, so it vectorizes
        const auto r = static_cast<std::uint64_t>(rx[y]);
        const std::uint64_t via = r == kInf ? kInf : dx + r;
        covered[y] |= static_cast<std::uint8_t>(via <= dist[y]);
        dist[y] = std::min(dist[y], via);
      }
      continue;
    }
    for (const HalfEdge& he : adj(x)) {
      const std::uint64_t nd = dx + static_cast<std::uint64_t>(he.weight);
      if (nd < dist[he.to]) {
        dist[he.to] = nd;
        covered[he.to] = 0;
        s.heap.push(static_cast<Weight>(nd), he.to);
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
  DijkstraScratch scratch(g.node_count());
  dijkstra_dist([&g](NodeId v) { return g.neighbors(v); },
                [](NodeId) -> const Weight* { return nullptr; }, g.node_count(), source,
                dist.data(), scratch);
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
  explicit Fill(NodeId n) : scratch(n) {}
  std::mutex mu;
  std::vector<std::unique_ptr<Weight[]>> rows;  // owns every published row
  DijkstraScratch scratch;
};

AllPairs::AllPairs(const Graph& g)
    : n_(g.node_count()),
      ready_(std::make_unique<std::atomic<const Weight*>[]>(static_cast<std::size_t>(n_))),
      fill_(std::make_unique<Fill>(n_)) {
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
  const auto filled = [this](NodeId v) {
    return ready_[static_cast<std::size_t>(v)].load(std::memory_order_acquire);
  };
  dijkstra_dist(adj, filled, n_, u, row.get(), fill_->scratch);
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

namespace {
/// max over v of dG(u, v) for one row; asserts that every v is reachable.
Weight eccentricity(std::span<const Weight> row, const char* what) {
  Weight ecc = 0;
  for (Weight d : row) {
    ARROWDQ_ASSERT_MSG(d != kUnreachable, what);
    ecc = std::max(ecc, d);
  }
  return ecc;
}

/// The lowest-id node of least eccentricity, and that eccentricity.
std::pair<NodeId, Weight> least_eccentricity(const AllPairs& ap, const char* what) {
  std::pair<NodeId, Weight> best{kNoNode, kUnreachable};
  for (NodeId u = 0; u < ap.node_count(); ++u) {
    const Weight ecc = eccentricity(ap.row(u), what);
    if (best.first == kNoNode || ecc < best.second) best = {u, ecc};
  }
  return best;
}
}  // namespace

Weight AllPairs::diameter() const {
  Weight best = 0;
  for (NodeId u = 0; u < n_; ++u)
    best = std::max(best, eccentricity(row(u), "diameter of a disconnected graph"));
  return best;
}

Weight AllPairs::radius() const {
  return least_eccentricity(*this, "radius of a disconnected graph").second;
}

NodeId AllPairs::center() const {
  return least_eccentricity(*this, "center of a disconnected graph").first;
}

}  // namespace arrowdq
