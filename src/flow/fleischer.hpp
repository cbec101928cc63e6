#pragma once

// The Garg–Könemann / Fleischer phase loop behind min_congestion_routing
// (all paths) and solve_restricted_mwu (candidate paths); DESIGN.md
// describes it. The oracle is a template parameter, so its per-step path
// choice inlines. It provides:
//   std::size_t size() const;  double amount(std::size_t j) const;
//   const Path& route(std::size_t j, std::span<const double> lengths);
//   void record(std::size_t j, double send);  // credits the last route()
//   double dual_numerator(std::span<const double> lengths) const;
// dual_numerator is Σ_j d_j · (shortest allowed length of commodity j).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "flow/congestion.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "telemetry/observer.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace sor {

/// Fleischer's initial length scale: a cold solve starts at δ/c_e.
inline double fleischer_delta(std::size_t num_edges, double eps) {
  return std::pow(static_cast<double>(num_edges) / (1.0 - eps), -1.0 / eps);
}

/// numerator / Σ_e c_e·l_e, the LP-duality lower bound on the optimum
/// congestion, valid for any nonnegative lengths (0 if all are zero).
inline double fleischer_dual_bound(const Graph& g, double numerator,
                                   std::span<const double> lengths) {
  double denominator = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    denominator += g.edge(e).capacity * std::max(lengths[e], 0.0);
  }
  if (denominator <= 0) return 0;
  return numerator / denominator;
}

/// Divides the lengths by their maximum once it exceeds `above`. The path
/// choice and the dual bound are scale-invariant in the lengths.
inline void normalize_lengths(std::vector<double>& lengths, double above = 0) {
  double max_len = 0;
  for (double l : lengths) max_len = std::max(max_len, l);
  if (max_len > above && std::isfinite(max_len)) {
    for (double& l : lengths) l /= max_len;
  }
}

struct FleischerRun {
  std::size_t phases = 0;   // > 0; `load` holds phases× the demand
  double lower_bound = 0;   // best duality bound over the phases
  bool truncated = false;   // a telemetry deadline/cancel hook stopped it
};

/// Runs phases until the (1+ε) stopping rule, `max_phases`, or the
/// telemetry deadline, polled between phases after the first: the scaled
/// prefix of completed phases is always a feasible routing. Each phase's
/// primal/dual pair is observed under `solver`/`label`.
template <class Oracle>
FleischerRun run_fleischer_phases(const Graph& g, double eps,
                                  std::size_t max_phases, Oracle& oracle,
                                  std::vector<double>& lengths, EdgeLoad& load,
                                  std::string_view solver,
                                  std::string_view label = {}) {
  telemetry::SolveObserver observer(solver, label);
  FleischerRun run;
  double upper = 0;
  bool converged = false;
  std::size_t phase = 0;
  for (; phase < max_phases; ++phase) {
    if (phase > 0 && telemetry::solve_deadline_exceeded()) {
      run.truncated = true;
      observer.mark_truncated();
      break;
    }
    for (std::size_t j = 0; j < oracle.size(); ++j) {
      double remaining = oracle.amount(j);
      while (remaining > 1e-12) {
        const Path& path = oracle.route(j, lengths);
        double bottleneck = std::numeric_limits<double>::infinity();
        for (EdgeId e : path.edges) {
          bottleneck = std::min(bottleneck, g.edge(e).capacity);
        }
        const double send = std::min(remaining, bottleneck);
        oracle.record(j, send);
        add_path_load(path, send, load);
        for (EdgeId e : path.edges) {
          lengths[e] *= 1.0 + eps * send / g.edge(e).capacity;
        }
        remaining -= send;
        if (path.edges.empty()) break;  // degenerate s==t candidate
      }
    }

    run.lower_bound = std::max(
        run.lower_bound,
        fleischer_dual_bound(g, oracle.dual_numerator(lengths), lengths));
    // Keeps long solves in the double range; short ones never reach 1e100
    // and stay bit-identical.
    normalize_lengths(lengths, 1e100);

    upper = max_congestion(g, load) / static_cast<double>(phase + 1);
    observer.observe(phase + 1, upper, run.lower_bound);
    // upper ≈ 0: every candidate is an empty path, nothing to balance.
    if (upper <= 1e-12 ||
        (run.lower_bound > 0 && upper / run.lower_bound <= 1.0 + eps)) {
      ++phase;
      converged = true;
      break;
    }
  }
  SOR_CHECK_MSG(phase > 0, solver << " made no progress");
  // A truncated solve stopped because the caller's budget said so; only a
  // loop that ran out of phases failed to close the gap it certifies.
  if (!converged && !run.truncated) {
    SOR_LOG(kWarn) << solver << " hit max_phases with gap "
                   << upper / run.lower_bound << " (target " << 1.0 + eps
                   << ")";
  }
  run.phases = phase;
  return run;
}

}  // namespace sor
