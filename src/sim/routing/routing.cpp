#include "sim/routing/routing.hpp"

#include <limits>
#include <stdexcept>

namespace slimfly::sim {

/* SF_HOT */ void DistanceOracle::sample_minimal_path(const Graph& g, int u, int v, Rng& rng,
                                         InlinePath& out) const {
  // Mirror of DistanceTable::sample_minimal_path below over virtual dist()
  // — identical candidate sets scanned in identical (sorted adjacency)
  // order, so both consume the RNG stream bit-identically.
  int current = u;
  while (current != v) {
    const int d = dist(current, v);
    if (d == 1) {
      // Exactly one candidate (v itself), which would draw nothing from
      // rng (next_below(1) is draw-free): skip the scan.
      out.push_back(v);
      break;
    }
    const int want = d - 1;
    int chosen = -1;
    int seen = 0;
    for (int w : g.neighbors(current)) {
      if (dist(w, v) == want) {
        ++seen;
        if (rng.next_below(static_cast<std::uint32_t>(seen)) == 0) chosen = w;
      }
    }
    if (chosen < 0) throw std::logic_error("sample_minimal_path: no progress");
    out.push_back(chosen);
    current = chosen;
  }
}

DistanceTable::DistanceTable(const Graph& g) : n_(g.num_vertices()) {
  table_.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), 255);
  // One FIFO for every source: a BFS enqueues each vertex at most once, in
  // nondecreasing distance order, so the last one enqueued is the farthest.
  std::vector<int> queue(static_cast<std::size_t>(n_));
  for (int s = 0; s < n_; ++s) {
    auto* row = &table_[static_cast<std::size_t>(s) * static_cast<std::size_t>(n_)];
    row[s] = 0;
    queue[0] = s;
    std::size_t head = 0, tail = 1;
    while (head < tail) {
      const int v = queue[head++];
      const int depth = row[v] + 1;
      for (int w : g.neighbors(v)) {
        if (row[w] == 255) {
          if (depth >= 255) throw std::logic_error("DistanceTable: diameter too large");
          row[w] = static_cast<std::uint8_t>(depth);
          queue[tail++] = w;
        }
      }
    }
    if (tail != static_cast<std::size_t>(n_)) {
      throw std::invalid_argument("DistanceTable: graph disconnected");
    }
    diameter_ = std::max(diameter_, static_cast<int>(row[queue[tail - 1]]));
  }
}

/* SF_HOT */ void DistanceTable::sample_minimal_path(const Graph& g, int u, int v, Rng& rng,
                                        InlinePath& out) const {
  // Graphs are undirected (topo/graph.hpp), so dist(x, v) == dist(v, x):
  // scanning row v keeps every lookup of this walk inside one contiguous,
  // cache-resident row instead of striding a column of the n x n table.
  const std::uint8_t* row_v =
      &table_[static_cast<std::size_t>(v) * static_cast<std::size_t>(n_)];
  int current = u;
  while (current != v) {
    const int d = row_v[current];
    if (d == 1) {
      // The only vertex at distance 0 from v is v itself, so the scan
      // below would find exactly one candidate (seen == 1, which draws
      // nothing from rng): skip it. Every minimal walk ends with one of
      // these steps, so on diameter-2 graphs this halves the scans.
      out.push_back(v);
      break;
    }
    const int want = d - 1;
    // Reservoir-sample one minimal next hop uniformly.
    int chosen = -1;
    int seen = 0;
    for (int w : g.neighbors(current)) {
      if (row_v[w] == want) {
        ++seen;
        if (rng.next_below(static_cast<std::uint32_t>(seen)) == 0) chosen = w;
      }
    }
    if (chosen < 0) throw std::logic_error("sample_minimal_path: no progress");
    out.push_back(chosen);
    current = chosen;
  }
}

/* SF_HOT */ int RoutingAlgorithm::next_router(const Network& net, const Packet& pkt,
                                  int current_router) const {
  (void)net;
  std::size_t hop = static_cast<std::size_t>(pkt.hop);
  if (hop >= pkt.path.size()) throw std::logic_error("next_router: hop out of range");
  if (pkt.path[hop] != current_router) {
    throw std::logic_error("next_router: packet not on its path");
  }
  if (hop + 1 == pkt.path.size()) return -1;  // at destination router
  return pkt.path[hop + 1];
}

}  // namespace slimfly::sim
