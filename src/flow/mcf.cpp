#include "flow/mcf.hpp"

#include <algorithm>
#include <map>

#include "flow/fleischer.hpp"
#include "graph/search.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace sor {

namespace {

/// Routes over all paths: each step runs Dijkstra afresh, as Fleischer's
/// analysis requires after every length update.
struct AllPathsOracle {
  const Graph& g;
  std::span<const Commodity> commodities;
  /// Per-commodity path weights; empty unless recorded.
  std::vector<std::unordered_map<Path, double, PathHash>>& paths;
  /// Commodity indices by source: one Dijkstra per source for the bound.
  std::map<Vertex, std::vector<std::size_t>> by_source = {};
  Path last = {};

  std::size_t size() const { return commodities.size(); }
  double amount(std::size_t j) const { return commodities[j].amount; }
  const Path& route(std::size_t j, std::span<const double> lengths) {
    SOR_COUNTER("mcf/dijkstra_calls").add();
    last = dijkstra(g, commodities[j].src, lengths)
               .extract_path(g, commodities[j].dst);
    return last;
  }

  void record(std::size_t j, double send) {
    if (!paths.empty()) paths[j][last] += send;
  }

  /// Σ_j d_j · dist_l(s_j, t_j), summed in source order.
  double dual_numerator(std::span<const double> lengths) const {
    double numerator = 0;
    for (const auto& [src, indices] : by_source) {
      const SpTree tree = dijkstra(g, src, lengths);
      for (std::size_t j : indices) {
        numerator += commodities[j].amount * tree.dist[commodities[j].dst];
      }
    }
    return numerator;
  }
};

}  // namespace

McfResult min_congestion_routing(const Graph& g,
                                 std::span<const Commodity> commodities,
                                 const McfOptions& options) {
  SOR_SPAN("mcf/solve");
  SOR_COST_SCOPE("mcf");
  telemetry::SketchTimer latency(SOR_SKETCH("mcf/solve_seconds"));
  SOR_COUNTER("mcf/solves").add();
  SOR_CHECK(options.epsilon > 0 && options.epsilon < 1);
  for (const Commodity& c : commodities) {
    SOR_CHECK(c.src < g.num_vertices() && c.dst < g.num_vertices());
    SOR_CHECK_MSG(c.src != c.dst, "commodity with equal endpoints");
    SOR_CHECK_MSG(c.amount > 0, "commodity with nonpositive amount");
  }

  McfResult result;
  result.load = zero_load(g);
  if (options.record_paths) result.paths.resize(commodities.size());
  if (commodities.empty()) return result;

  const double eps = options.epsilon;
  const double delta = fleischer_delta(g.num_edges(), eps);
  std::vector<double> lengths(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    lengths[e] = delta / g.edge(e).capacity;
  }

  AllPathsOracle oracle{g, commodities, result.paths};
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    oracle.by_source[commodities[j].src].push_back(j);
  }
  const FleischerRun run = run_fleischer_phases(
      g, eps, options.max_phases, oracle, lengths, result.load, "mcf");
  const auto phases = static_cast<double>(run.phases);
  for (double& load : result.load) load /= phases;
  for (auto& per_commodity : result.paths) {
    for (auto& [path, weight] : per_commodity) weight /= phases;
  }
  result.congestion = max_congestion(g, result.load);
  result.lower_bound = run.lower_bound;
  result.phases = run.phases;
  result.truncated = run.truncated;
  SOR_COUNTER("mcf/phases").add(run.phases);
  SOR_GAUGE("mcf/duality_gap")
      .set(result.congestion / std::max(run.lower_bound, 1e-300));
  return result;
}

}  // namespace sor
