#pragma once

// Output checks of the TE-pipeline benchmark.
//
// Every check recomputes its property from the program's outputs inside
// the benchmark; nothing is compared against stored output. The harness
// (te_bench.cpp) runs them outside every timed region, and the self-test
// (selftest.cpp) plants a wrong output for each one and requires it to be
// counted as failed.

#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "demand/demand.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

/// Tolerances. Fractions and recomputed congestion are held to 1e-9 (the
/// solver's own arithmetic is far tighter); the certificate checks allow
/// 1e-9 relative slack for the rounding between the solver's stopping test
/// and the congestion it reports.
inline constexpr double kFractionTol = 1e-9;
inline constexpr double kCongestionRelTol = 1e-9;
inline constexpr double kCertificateRelTol = 1e-9;

/// Every fraction is >= 0 and they sum to 1 within kFractionTol.
bool fractions_ok(std::span<const sor::serve::ServedPath> paths);

/// `path` is a simple edge walk between s and t (either orientation), over
/// edges of `g` that are alive (`alive[e] != 0`).
bool path_ok(const sor::Graph& g, const sor::Path& path, sor::Vertex s,
             sor::Vertex t, std::span<const char> alive);

/// Pairs of `pairs` whose snapshot answer is missing, has bad fractions,
/// or holds a path that fails path_ok.
std::size_t bad_snapshot_pairs(const sor::Graph& g,
                               const sor::serve::RouteSnapshot& snapshot,
                               std::span<const sor::VertexPair> pairs,
                               std::span<const char> alive);

/// Max link utilization of `demand` routed along the snapshot's split
/// (fractions renormalized per pair). A pair the snapshot does not hold
/// makes the result +infinity.
double snapshot_congestion(const sor::Graph& g,
                           const sor::serve::RouteSnapshot& snapshot,
                           const sor::Demand& demand);

/// |reported - recomputed| <= kCongestionRelTol * |recomputed|.
bool congestion_matches(double reported, double recomputed);

/// Volume lower bound on any routing of `demand` over the surviving links:
/// Σ d·(hop distance on the surviving graph) ÷ Σ capacity of surviving
/// links. +infinity when a demand pair is disconnected.
double volume_bound(const sor::Graph& g, std::span<const char> alive,
                    const sor::Demand& demand);

/// congestion >= bound (up to kCertificateRelTol).
bool above_volume_bound(double congestion, double bound);

/// lower_bound <= solver_congestion <= (1+eps)·lower_bound (up to
/// kCertificateRelTol), with lower_bound > 0.
bool certificate_ok(double lower_bound, double solver_congestion,
                    double epsilon);

/// The (epoch, digest) pairs the control thread published.
using PublishedSet = std::set<std::pair<std::uint64_t, std::uint64_t>>;

/// A reader's answer came from a published table.
bool was_published(const PublishedSet& published, std::uint64_t epoch,
                   std::uint64_t digest);

}  // namespace perfbench
