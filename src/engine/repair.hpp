#pragma once

// Path-system repair under link failures — the control loop's forwarding
// state manager.
//
// The semi-oblivious contract is that the path system is installed once
// and only the *rates* change per epoch. Failures force an exception, and
// the repairer keeps that exception as small as possible:
//
//  1. Dead candidates are deactivated (forced, free — traffic cannot
//     cross a dead link) via a PathActivation mask; the system itself is
//     never mutated, so per-candidate warm-start state stays valid.
//  2. Surviving siblings absorb the load (the LP just re-splits).
//  3. Only a pair that lost ALL candidates gets new forwarding state: a
//     BFS shortest path on the surviving graph, installed as an
//     activation "extra" — or, when it is one of the pair's own base
//     candidates (links back up, reactivation deferred), by re-arming
//     that candidate. Stranded-pair fallbacks are mandatory (they may
//     overdraw the budget — routability beats reconfiguration cost).
//  4. Reactivations after recovery are optional work and strictly
//     budget-limited; what does not fit is deferred to later epochs.

#include <cstdint>
#include <span>
#include <vector>

#include "core/path_system.hpp"
#include "engine/event_trace.hpp"
#include "graph/graph.hpp"

namespace sor::engine {

struct RepairOptions {
  /// Max path installs (reactivations + non-mandatory fallbacks) per
  /// epoch — the reconfiguration budget.
  std::size_t churn_budget = 8;
};

struct RepairReport {
  std::size_t deactivated = 0;
  std::size_t reactivated = 0;
  std::size_t fallbacks_installed = 0;
  /// Reactivations eligible this epoch but deferred by the budget.
  std::size_t deferred = 0;

  /// Total forwarding-state operations this epoch.
  std::size_t churn() const {
    return deactivated + reactivated + fallbacks_installed;
  }
};

class PathRepairer {
 public:
  /// `g` and `system` are referenced and must outlive the repairer.
  PathRepairer(const Graph& g, const PathSystem& system,
               RepairOptions options = {});

  const PathActivation& activation() const { return activation_; }
  std::span<const char> alive() const { return alive_; }
  std::size_t failed_edges() const { return down_; }

  /// Applies one epoch's failure/recovery events, then ensures every pair
  /// in `support` has at least one active candidate. Drift events are
  /// ignored (they are the demand stream's business).
  RepairReport apply_epoch(std::span<const Event> events,
                           std::span<const VertexPair> support);

  /// BFS shortest path between s and t on the surviving graph; empty
  /// edge list with src == kInvalidVertex if disconnected (cannot happen
  /// for generated traces, which preserve connectivity).
  Path surviving_shortest_path(Vertex s, Vertex t) const;

 private:
  void fail_edge(EdgeId e, RepairReport& report);

  const Graph* graph_;
  const PathSystem* system_;
  RepairOptions options_;
  PathActivation activation_;
  std::vector<char> alive_;
  std::size_t down_ = 0;
  /// edge id → base candidates (pair, index) using it, precomputed.
  std::vector<std::vector<std::pair<VertexPair, std::size_t>>> edge_users_;
  /// Extras installed so far: (pair, extra index) — scanned on failure
  /// and recovery like base candidates.
  std::vector<std::pair<VertexPair, std::size_t>> extras_;
};

}  // namespace sor::engine
