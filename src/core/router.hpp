#pragma once

// The semi-oblivious router: Stage 4 of the paper's protocol.
//
// Given a path system P (chosen before demands) and a revealed demand D,
// adaptively choose sending rates on the candidate paths minimizing the
// maximum edge congestion — cong(G, P, D) in Definition 5.1. Fractional
// rates come from the restricted-path LP (exact simplex or (1+ε) MWU);
// integral routings (Definition 6.1) come from randomized rounding of the
// fractional solution (Lemma 6.3) improved by local search.

#include <optional>

#include "core/path_system.hpp"
#include "demand/demand.hpp"
#include "lp/path_lp.hpp"
#include "util/rng.hpp"

namespace sor {

struct CongestionAttribution;  // core/attribution.hpp

enum class LpBackend {
  kAuto,   // exact when the instance is small, MWU otherwise
  kExact,  // dense simplex
  kMwu,    // multiplicative weights, (1+ε)
};

struct RouterOptions {
  LpBackend backend = LpBackend::kAuto;
  /// MWU accuracy.
  double epsilon = 0.05;
  /// If true, a commodity whose pair has no candidate paths gets a BFS
  /// shortest path added (instead of a contract violation). Lets path
  /// systems sampled for one support be reused under demand churn (E6).
  bool add_shortest_fallback = false;
};

struct FractionalRoute {
  /// Max edge congestion achieved (the semi-oblivious cong(G,P,D)).
  double congestion = 0;
  /// Lower-bound certificate on the restricted optimum.
  double lower_bound = 0;
  /// Max hops among paths carrying positive weight.
  std::size_t dilation = 0;
  EdgeLoad load;
  /// The LP instance (candidates oriented per commodity) and its weights;
  /// commodity order matches demand.commodities().
  RestrictedProblem problem;
  std::vector<std::vector<double>> weights;
};

struct IntegralRoute {
  double congestion = 0;
  std::size_t dilation = 0;
  EdgeLoad load;
  /// One path per unit of (integral) demand — simulator input.
  std::vector<Path> packet_paths;
  /// Local-search improvement steps applied.
  std::size_t improvement_steps = 0;
};

/// Snapshot extraction: the per-pair split fractions of `weights` over
/// `problem`'s candidates (canonical pair → canonical-orientation path →
/// fraction of the pair's demand; zero-weight candidates are dropped, both
/// orientations of a pair accumulate onto the same keys). The engine
/// installs serve::RouteSnapshot::build over this table; built from a
/// FractionalRoute's problem and weights it serves answers byte-identical
/// to the route's own.
SplitFractions split_fractions(const RestrictedProblem& problem,
                               const std::vector<std::vector<double>>& weights);

/// Thread-safety contract: the router holds no mutable state — every
/// member is const and safe to call from any number of threads
/// concurrently, PROVIDED the referenced graph, path system, and
/// activation mask are not mutated meanwhile (they are referenced, not
/// copied). set_activation is a mutation and requires exclusive access.
/// The serving layer (src/serve) therefore never routes on reader
/// threads: the control thread solves, extracts split_fractions, and
/// publishes an immutable RouteSnapshot readers query lock-free.
class SemiObliviousRouter {
 public:
  /// The path system is referenced, not copied; it must outlive the router.
  SemiObliviousRouter(const Graph& g, const PathSystem& system,
                      RouterOptions options = {});

  const Graph& graph() const { return *graph_; }
  const PathSystem& system() const { return *system_; }

  /// Restricts candidate generation to the active paths of `activation`
  /// (must view this router's path system; referenced, not copied; pass
  /// nullptr to clear). The TE engine's failure-repair hook: candidates
  /// masked out by link failures disappear from the LP, fallback extras
  /// appear, and a pair left with zero active candidates follows the
  /// add_shortest_fallback contract.
  void set_activation(const PathActivation* activation);
  const PathActivation* activation() const { return activation_; }

  /// Optimal (or (1+ε)-approximate) fractional rates for `demand`.
  FractionalRoute route_fractional(const Demand& demand) const;

  /// Integral routing of an integral demand: randomized rounding of the
  /// fractional solution + congestion local search.
  IntegralRoute route_integral(const Demand& demand, Rng& rng) const;

  /// Diagnostics: decompose `route`'s load into per-link contributor
  /// breakdowns (see core/attribution.hpp) for the top_k most utilized
  /// links. `route` must come from this router (its problem/weights pair
  /// is what gets attributed).
  CongestionAttribution attribute(const FractionalRoute& route,
                                  std::size_t top_k = 8) const;

  /// Integral routing by ONLINE GREEDY assignment: packets arrive in a
  /// fixed order and each immediately takes the candidate minimizing the
  /// resulting (peak congestion along the path, hops). No LP, no
  /// randomness — the baseline E9 compares Lemma 6.3 rounding against.
  IntegralRoute route_integral_greedy(const Demand& demand) const;

 private:
  RestrictedProblem build_problem(const Demand& demand) const;

  const Graph* graph_;
  const PathSystem* system_;
  const PathActivation* activation_ = nullptr;
  RouterOptions options_;
};

}  // namespace sor
