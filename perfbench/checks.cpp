#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>

namespace perfbench {

using sor::EdgeId;
using sor::Graph;
using sor::Path;
using sor::Vertex;

bool fractions_ok(std::span<const sor::serve::ServedPath> paths) {
  if (paths.empty()) return false;
  double sum = 0;
  for (const sor::serve::ServedPath& p : paths) {
    if (!(p.fraction >= 0)) return false;
    sum += p.fraction;
  }
  return std::abs(sum - 1.0) <= kFractionTol;
}

bool path_ok(const Graph& g, const Path& path, Vertex s, Vertex t,
             std::span<const char> alive) {
  const bool ends_match = (path.src == s && path.dst == t) ||
                          (path.src == t && path.dst == s);
  if (!ends_match || s == t || path.edges.empty()) return false;
  if (s >= g.num_vertices() || t >= g.num_vertices()) return false;
  // Vertices visited so far; paths are short, so a linear scan beats a
  // per-call visited array.
  std::vector<Vertex> seen;
  seen.reserve(path.edges.size() + 1);
  Vertex at = path.src;
  seen.push_back(at);
  for (const EdgeId e : path.edges) {
    if (e >= g.num_edges() || e >= alive.size() || alive[e] == 0) return false;
    const sor::Edge& edge = g.edge(e);
    if (edge.u != at && edge.v != at) return false;
    at = edge.u == at ? edge.v : edge.u;
    if (std::find(seen.begin(), seen.end(), at) != seen.end()) return false;
    seen.push_back(at);
  }
  return at == path.dst;
}

std::size_t bad_snapshot_pairs(const Graph& g,
                               const sor::serve::RouteSnapshot& snapshot,
                               std::span<const sor::VertexPair> pairs,
                               std::span<const char> alive) {
  std::size_t bad = 0;
  for (const sor::VertexPair& pair : pairs) {
    const sor::serve::LookupResult r = snapshot.lookup(pair.a, pair.b);
    bool ok = r.found && fractions_ok(r.paths);
    for (std::size_t i = 0; ok && i < r.paths.size(); ++i) {
      ok = path_ok(g, r.paths[i].path, pair.a, pair.b, alive);
    }
    if (!ok) ++bad;
  }
  return bad;
}

double snapshot_congestion(const Graph& g,
                           const sor::serve::RouteSnapshot& snapshot,
                           const sor::Demand& demand) {
  std::vector<double> load(g.num_edges(), 0.0);
  for (const sor::Commodity& c : demand.commodities()) {
    const sor::serve::LookupResult r = snapshot.lookup(c.src, c.dst);
    double sum = 0;
    for (const sor::serve::ServedPath& p : r.paths) sum += p.fraction;
    if (!r.found || !(sum > 0)) return std::numeric_limits<double>::infinity();
    for (const sor::serve::ServedPath& p : r.paths) {
      const double amount = c.amount * (p.fraction / sum);
      for (const EdgeId e : p.path.edges) load[e] += amount;
    }
  }
  double worst = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    worst = std::max(worst, load[e] / g.edge(e).capacity);
  }
  return worst;
}

bool congestion_matches(double reported, double recomputed) {
  return std::isfinite(recomputed) &&
         std::abs(reported - recomputed) <=
             kCongestionRelTol * std::abs(recomputed);
}

double volume_bound(const Graph& g, std::span<const char> alive,
                    const sor::Demand& demand) {
  double capacity = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (alive[e] != 0) capacity += g.edge(e).capacity;
  }
  // Hop distances by BFS over surviving links, one search per source.
  std::map<Vertex, std::vector<std::pair<Vertex, double>>> by_source;
  for (const sor::Commodity& c : demand.commodities()) {
    by_source[c.src].emplace_back(c.dst, c.amount);
  }
  constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();
  double volume = 0;
  std::vector<std::size_t> dist(g.num_vertices());
  for (const auto& [src, sinks] : by_source) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    std::deque<Vertex> queue{src};
    dist[src] = 0;
    while (!queue.empty()) {
      const Vertex v = queue.front();
      queue.pop_front();
      for (const sor::HalfEdge& h : g.neighbors(v)) {
        if (alive[h.id] == 0 || dist[h.to] != kUnreached) continue;
        dist[h.to] = dist[v] + 1;
        queue.push_back(h.to);
      }
    }
    for (const auto& [dst, amount] : sinks) {
      if (dist[dst] == kUnreached) return std::numeric_limits<double>::infinity();
      volume += amount * static_cast<double>(dist[dst]);
    }
  }
  return volume / capacity;
}

bool above_volume_bound(double congestion, double bound) {
  return std::isfinite(bound) && congestion >= bound * (1.0 - kCertificateRelTol);
}

bool certificate_ok(double lower_bound, double solver_congestion,
                    double epsilon) {
  const double slack = 1.0 + kCertificateRelTol;
  return lower_bound > 0 && lower_bound <= solver_congestion * slack &&
         solver_congestion <= (1.0 + epsilon) * lower_bound * slack;
}

bool was_published(const PublishedSet& published, std::uint64_t epoch,
                   std::uint64_t digest) {
  return published.count({epoch, digest}) != 0;
}

}  // namespace perfbench
