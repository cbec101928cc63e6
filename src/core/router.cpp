#include "core/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/attribution.hpp"
#include "graph/search.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace sor {

SemiObliviousRouter::SemiObliviousRouter(const Graph& g,
                                         const PathSystem& system,
                                         RouterOptions options)
    : graph_(&g), system_(&system), options_(options) {
  SOR_CHECK(options.epsilon > 0 && options.epsilon < 1);
}

void SemiObliviousRouter::set_activation(const PathActivation* activation) {
  SOR_CHECK_MSG(activation == nullptr || activation->system() == system_,
                "activation mask views a different path system");
  activation_ = activation;
}

RestrictedProblem SemiObliviousRouter::build_problem(
    const Demand& demand) const {
  RestrictedProblem problem;
  problem.graph = graph_;
  for (const Commodity& c : demand.commodities()) {
    RestrictedCommodity rc;
    rc.demand = c.amount;
    rc.candidates = activation_ != nullptr
                        ? activation_->active_oriented(c.src, c.dst)
                        : system_->paths_oriented(c.src, c.dst);
    if (rc.candidates.empty()) {
      SOR_CHECK_MSG(options_.add_shortest_fallback,
                    "no candidate paths for pair (" << c.src << "," << c.dst
                                                    << ")");
      SOR_COUNTER("router/fallback_paths").add();
      rc.candidates.push_back(shortest_path_hops(*graph_, c.src, c.dst));
    }
    problem.commodities.push_back(std::move(rc));
  }
  return problem;
}

CongestionAttribution SemiObliviousRouter::attribute(
    const FractionalRoute& route, std::size_t top_k) const {
  return attribute_congestion(*graph_, route.problem, route.weights, top_k);
}

namespace {

std::size_t routing_dilation(const RestrictedProblem& problem,
                             const std::vector<std::vector<double>>& weights) {
  std::size_t dilation = 0;
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    const auto& c = problem.commodities[j];
    for (std::size_t p = 0; p < c.candidates.size(); ++p) {
      if (weights[j][p] > 1e-12) {
        dilation = std::max(dilation, c.candidates[p].hops());
      }
    }
  }
  return dilation;
}

}  // namespace

FractionalRoute SemiObliviousRouter::route_fractional(
    const Demand& demand) const {
  SOR_SPAN("router/route_fractional");
  FractionalRoute route;
  route.problem = build_problem(demand);
  if (route.problem.commodities.empty()) {
    route.load = zero_load(*graph_);
    return route;
  }

  // Pick a backend: the dense simplex is exact but cubic-ish; use it only
  // on small instances unless forced.
  LpBackend backend = options_.backend;
  if (backend == LpBackend::kAuto) {
    std::size_t path_vars = 0;
    for (const auto& c : route.problem.commodities) {
      path_vars += c.candidates.size();
    }
    const std::size_t rows =
        route.problem.commodities.size() + graph_->num_edges();
    backend = (path_vars <= 800 && rows <= 400) ? LpBackend::kExact
                                                : LpBackend::kMwu;
  }

  RestrictedSolution solution;
  if (backend == LpBackend::kExact) {
    SOR_COUNTER("router/backend_exact").add();
    solution = solve_restricted_exact(route.problem);
  } else {
    SOR_COUNTER("router/backend_mwu").add();
    RestrictedMwuOptions mwu;
    mwu.epsilon = options_.epsilon;
    solution = solve_restricted_mwu(route.problem, mwu);
  }
  SOR_GAUGE("router/last_congestion").set(solution.congestion);

  route.congestion = solution.congestion;
  route.lower_bound = solution.lower_bound;
  route.load = std::move(solution.load);
  route.weights = std::move(solution.weights);
  route.dilation = routing_dilation(route.problem, route.weights);
  return route;
}

IntegralRoute SemiObliviousRouter::route_integral_greedy(
    const Demand& demand) const {
  SOR_SPAN("router/route_integral_greedy");
  SOR_CHECK_MSG(demand.is_integral(),
                "route_integral_greedy needs integral demand");
  const RestrictedProblem problem = build_problem(demand);

  IntegralRoute route;
  route.load = zero_load(*graph_);

  for (const RestrictedCommodity& c : problem.commodities) {
    const auto units = static_cast<std::size_t>(std::llround(c.demand));
    for (std::size_t u = 0; u < units; ++u) {
      // Score each candidate by the congestion profile after taking it:
      // (resulting max congestion along the path, resulting bottleneck
      // load, hops) — lexicographic, deterministic.
      std::size_t best = 0;
      double best_peak = std::numeric_limits<double>::infinity();
      double best_bottleneck = std::numeric_limits<double>::infinity();
      std::size_t best_hops = 0;
      for (std::size_t p = 0; p < c.candidates.size(); ++p) {
        double peak = 0;
        for (EdgeId e : c.candidates[p].edges) {
          peak = std::max(peak,
                          (route.load[e] + 1.0) / graph_->edge(e).capacity);
        }
        const std::size_t hops = c.candidates[p].hops();
        const bool better =
            peak < best_peak - 1e-12 ||
            (peak < best_peak + 1e-12 &&
             (hops < best_hops ||
              (hops == best_hops && peak < best_bottleneck)));
        if (better) {
          best_peak = peak;
          best_bottleneck = peak;
          best_hops = hops;
          best = p;
        }
      }
      add_path_load(c.candidates[best], 1.0, route.load);
      route.packet_paths.push_back(c.candidates[best]);
      route.dilation = std::max(route.dilation, c.candidates[best].hops());
    }
  }
  route.congestion = max_congestion(*graph_, route.load);
  return route;
}

IntegralRoute SemiObliviousRouter::route_integral(const Demand& demand,
                                                  Rng& rng) const {
  SOR_SPAN("router/route_integral");
  SOR_CHECK_MSG(demand.is_integral(), "route_integral needs integral demand");
  const FractionalRoute fractional = route_fractional(demand);
  const RestrictedProblem& problem = fractional.problem;

  IntegralRoute route;
  route.load = zero_load(*graph_);

  // Randomized rounding (Lemma 6.3): each unit of a commodity's demand
  // picks an independent candidate ∝ the fractional weights.
  struct Packet {
    std::size_t commodity;
    std::size_t path;
  };
  std::vector<Packet> packets;
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    const auto& c = problem.commodities[j];
    const auto units = static_cast<std::size_t>(std::llround(c.demand));
    for (std::size_t u = 0; u < units; ++u) {
      const std::size_t p = rng.next_weighted(fractional.weights[j]);
      packets.push_back(Packet{j, p});
      add_path_load(c.candidates[p], 1.0, route.load);
    }
  }

  // Local search: while some packet on a maximum-congestion edge can be
  // rerouted onto another candidate that strictly lowers (max congestion,
  // #edges at the max), move it. Each accepted move strictly decreases the
  // lexicographic potential, so the loop terminates.
  const std::size_t max_steps = 4 * packets.size() + 50;
  for (std::size_t step = 0; step < max_steps; ++step) {
    const double current_max = max_congestion(*graph_, route.load);
    if (current_max <= 1.0) break;  // cannot beat one packet per edge
    auto count_at_max = [&](const EdgeLoad& load) {
      std::size_t count = 0;
      for (EdgeId e = 0; e < load.size(); ++e) {
        if (load[e] / graph_->edge(e).capacity >= current_max - 1e-9) {
          ++count;
        }
      }
      return count;
    };
    const std::size_t current_count = count_at_max(route.load);

    bool moved = false;
    for (Packet& packet : packets) {
      const auto& c = problem.commodities[packet.commodity];
      const Path& old_path = c.candidates[packet.path];
      // Only consider packets touching a maximal edge.
      bool on_max = false;
      for (EdgeId e : old_path.edges) {
        if (route.load[e] / graph_->edge(e).capacity >= current_max - 1e-9) {
          on_max = true;
          break;
        }
      }
      if (!on_max) continue;

      for (std::size_t alt = 0; alt < c.candidates.size(); ++alt) {
        if (alt == packet.path) continue;
        const Path& new_path = c.candidates[alt];
        // Tentatively apply.
        add_path_load(old_path, -1.0, route.load);
        add_path_load(new_path, 1.0, route.load);
        const double new_max = max_congestion(*graph_, route.load);
        const bool better =
            new_max < current_max - 1e-9 ||
            (new_max <= current_max + 1e-9 &&
             count_at_max(route.load) < current_count);
        if (better) {
          packet.path = alt;
          moved = true;
          break;
        }
        // Revert.
        add_path_load(new_path, -1.0, route.load);
        add_path_load(old_path, 1.0, route.load);
      }
      if (moved) break;
    }
    if (!moved) break;
    ++route.improvement_steps;
  }

  route.packet_paths.reserve(packets.size());
  for (const Packet& packet : packets) {
    const auto& c = problem.commodities[packet.commodity];
    route.packet_paths.push_back(c.candidates[packet.path]);
    route.dilation = std::max(route.dilation,
                              c.candidates[packet.path].hops());
  }
  route.congestion = max_congestion(*graph_, route.load);
  return route;
}

SplitFractions split_fractions(
    const RestrictedProblem& problem,
    const std::vector<std::vector<double>>& weights) {
  SplitFractions split;
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    const RestrictedCommodity& c = problem.commodities[j];
    if (c.candidates.empty()) continue;
    const VertexPair pair = VertexPair::canonical(c.candidates.front().src,
                                                  c.candidates.front().dst);
    auto& rows = split[pair];
    for (std::size_t p = 0; p < c.candidates.size(); ++p) {
      if (weights[j][p] <= 0) continue;
      // Fractions live on the canonical orientation so both directions of
      // a pair share state.
      const Path key = c.candidates[p].src < c.candidates[p].dst
                           ? c.candidates[p]
                           : reversed(c.candidates[p]);
      rows[key] += weights[j][p] / c.demand;
    }
  }
  return split;
}

}  // namespace sor
