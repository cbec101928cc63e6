#pragma once

// Serving-layer load generator: the harness behind bench_e17_serving,
// `sor_cli serve-bench`, and the concurrency tests.
//
// One control thread drives engine::run_control_loop with a RouteService
// attached (so every epoch RCU-publishes a fresh RouteSnapshot) while N
// reader threads hammer RouteService::lookup. The generator verifies the
// snapshot-swap contract as it runs:
//   - every answer a reader sees must match EXACTLY ONE published
//     (epoch, digest) pair — a mismatch means a torn table and is counted
//     in ServeLoadReport::torn (the benches and tests require 0);
//   - lookup latency is measured into per-reader local bucket histograms
//     (telemetry::Sketch::bucket_index — a pure function, so this works
//     even with the SOR_TELEMETRY kill switch off) and merged in reader-
//     index order, making the reported quantiles bit-stable for a given
//     set of per-reader observation multisets.
// Optionally each reader enqueues batched demand updates, exercising the
// ingestion path end to end (the control loop drains them into realized
// matrices between epochs).

#include <cstddef>
#include <cstdint>
#include <memory>

#include "engine/controller.hpp"
#include "engine/event_trace.hpp"
#include "serve/service.hpp"

namespace sor::serve {

struct ServeLoadOptions {
  /// Reader threads issuing lookups concurrently with the control loop.
  std::size_t readers = 4;
  /// Each reader keeps looking up until the control loop finishes AND it
  /// has issued at least this many lookups (so short traces still gather
  /// a meaningful latency sample).
  std::size_t min_lookups_per_reader = 2000;
  /// Every `update_every` lookups a reader enqueues one demand update
  /// (0 = ingestion off). Updates change the realized matrices the
  /// control loop routes, so only enable this when byte-identity with an
  /// update-free run is not being asserted.
  std::size_t update_every = 0;
  double update_amount = 1.0;
};

struct ServeLoadReport {
  std::size_t readers = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Answers whose (epoch, digest) matched no published snapshot. The
  /// snapshot-swap contract says this is always 0.
  std::uint64_t torn = 0;
  std::uint64_t snapshots_published = 0;
  std::uint64_t updates_enqueued = 0;
  std::uint64_t updates_drained = 0;
  double wall_seconds = 0;
  double lookups_per_sec = 0;
  /// Lookup-latency quantiles in microseconds (bit-stable bucket
  /// representatives; see file comment).
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  /// Exact maximum observed lookup latency.
  double max_us = 0;
  /// The control loop's own result (routing figures, epochs).
  engine::ControlLoopResult result;
  /// The last snapshot published (null when the trace had no epochs).
  std::shared_ptr<const RouteSnapshot> final_snapshot;
};

/// Runs the control loop + reader fleet described above. Deterministic in
/// its routing outputs (result, final_snapshot) — reader-side counters
/// and latencies are wall-clock/interleaving-dependent by nature.
ServeLoadReport run_serve_load(const Graph& g, const PathSystem& system,
                               const engine::EventTrace& trace,
                               const engine::DemandStreamOptions& stream_options,
                               engine::EngineOptions engine_options,
                               std::uint64_t seed,
                               const ServeLoadOptions& load = {});

/// The byte-identity contract, checked end to end: drives one controller
/// epoch over `demand` with a service attached, routes the same matrix
/// through SemiObliviousRouter::route_fractional, and compares the
/// published snapshot byte-for-byte against
/// RouteSnapshot::build(0, split_fractions(route.problem, route.weights)).
/// True iff the serving
/// layer answers exactly what the router computes.
bool snapshot_matches_route_fractional(const Graph& g,
                                       const PathSystem& system,
                                       const Demand& demand,
                                       double epsilon = 0.05);

}  // namespace sor::serve
