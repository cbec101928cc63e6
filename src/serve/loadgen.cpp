#include "serve/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/router.hpp"
#include "telemetry/sketch.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace sor::serve {

namespace {

/// Everything one reader thread accumulates locally — no shared writes on
/// the hot path; merged by the main thread after join.
struct ReaderState {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Same-epoch digest disagreements seen live (already torn).
  std::uint64_t torn = 0;
  /// epoch → digest of every snapshot that answered this reader.
  std::unordered_map<std::uint64_t, std::uint64_t> observed;
  /// Local latency histogram on the Sketch's fixed bucket boundaries
  /// (µs); bucket_index is a pure function, so this works even when the
  /// telemetry kill switch disables the global sketches.
  std::vector<std::uint64_t> buckets =
      std::vector<std::uint64_t>(telemetry::Sketch::kNumBuckets, 0);
  double latency_sum_us = 0;
  double latency_min_us = 0;
  double latency_max_us = 0;
};

telemetry::SketchSnapshot to_snapshot(const ReaderState& r) {
  telemetry::SketchSnapshot snap;
  snap.count = r.lookups;
  snap.sum = r.latency_sum_us;
  snap.min = r.latency_min_us;
  snap.max = r.latency_max_us;
  for (std::uint32_t b = 0; b < r.buckets.size(); ++b) {
    if (r.buckets[b] > 0) snap.buckets.emplace_back(b, r.buckets[b]);
  }
  return snap;
}

}  // namespace

ServeLoadReport run_serve_load(const Graph& g, const PathSystem& system,
                               const engine::EventTrace& trace,
                               const engine::DemandStreamOptions& stream_options,
                               engine::EngineOptions engine_options,
                               std::uint64_t seed,
                               const ServeLoadOptions& load) {
  SOR_CHECK(load.readers >= 1);
  RouteService service;
  engine_options.service = &service;

  const std::vector<VertexPair> pairs = system.pairs();
  // A pair no snapshot can ever contain — the deliberate-miss probe.
  const Vertex miss_a = static_cast<Vertex>(g.num_vertices());
  const Vertex miss_b = static_cast<Vertex>(g.num_vertices() + 1);

  std::atomic<bool> done{false};
  std::vector<ReaderState> states(load.readers);
  std::vector<std::thread> threads;
  threads.reserve(load.readers);

  Stopwatch wall;
  for (std::size_t r = 0; r < load.readers; ++r) {
    threads.emplace_back([&, r] {
      ReaderState& me = states[r];
      std::uint64_t rng_state = seed ^ (0x9e3779b97f4a7c15ULL * (r + 1));
      while (true) {
        if (done.load(std::memory_order_acquire) &&
            me.lookups >= load.min_lookups_per_reader) {
          break;
        }
        const std::uint64_t x = splitmix64(rng_state);
        Vertex s = miss_a;
        Vertex t = miss_b;
        if (!pairs.empty() && (x & 15) != 0) {  // 1-in-16 deliberate miss
          const VertexPair& pair = pairs[(x >> 8) % pairs.size()];
          // Exercise both query orientations.
          s = (x & 16) ? pair.a : pair.b;
          t = (x & 16) ? pair.b : pair.a;
        }
        const Stopwatch clock;
        const RouteService::Answer answer = service.lookup(s, t);
        const double us = clock.seconds() * 1e6;

        ++me.lookups;
        me.buckets[telemetry::Sketch::bucket_index(us)]++;
        me.latency_sum_us += us;
        if (me.lookups == 1 || us < me.latency_min_us) me.latency_min_us = us;
        if (us > me.latency_max_us) me.latency_max_us = us;

        if (answer.result.found) {
          ++me.hits;
        } else {
          ++me.misses;
        }
        if (answer.snapshot != nullptr) {
          // Record which (epoch, digest) answered; a second digest for
          // the same epoch means the reader saw a torn table.
          const auto [it, inserted] = me.observed.emplace(
              answer.snapshot->epoch(), answer.snapshot->digest());
          if (!inserted && it->second != answer.snapshot->digest()) ++me.torn;
        }
        if (load.update_every > 0 && me.lookups % load.update_every == 0 &&
            !pairs.empty()) {
          const VertexPair& pair = pairs[(x >> 24) % pairs.size()];
          service.enqueue_update(
              DemandUpdate{pair.a, pair.b, load.update_amount});
        }
      }
    });
  }

  // The control loop runs on the calling thread, publishing one snapshot
  // per epoch while the readers above answer from whichever is current.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> published;
  ServeLoadReport report;
  report.result = engine::run_control_loop(
      g, system, trace, stream_options, engine_options, seed,
      [&](const engine::EpochReport&) {
        // publish() happens inside step(), before on_epoch fires, so the
        // current snapshot IS this epoch's table.
        const std::shared_ptr<const RouteSnapshot> snap = service.snapshot();
        if (snap != nullptr) published.emplace_back(snap->epoch(),
                                                    snap->digest());
      });
  done.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  report.wall_seconds = wall.seconds();

  // Torn-table audit: every observed (epoch, digest) must be one the
  // control thread actually published.
  std::unordered_map<std::uint64_t, std::uint64_t> published_map;
  for (const auto& [epoch, digest] : published) published_map[epoch] = digest;
  std::vector<telemetry::SketchSnapshot> sketches;
  sketches.reserve(states.size());
  for (const ReaderState& me : states) {
    report.lookups += me.lookups;
    report.hits += me.hits;
    report.misses += me.misses;
    report.torn += me.torn;
    for (const auto& [epoch, digest] : me.observed) {
      const auto it = published_map.find(epoch);
      if (it == published_map.end() || it->second != digest) ++report.torn;
    }
    sketches.push_back(to_snapshot(me));
  }

  // Merge per-reader histograms in reader-index order: bit-stable
  // quantiles for the same per-reader observation multisets.
  const telemetry::SketchSnapshot merged =
      telemetry::merge_sketch_snapshots(sketches);
  const StatsSummary latency = telemetry::Sketch::summarize_snapshot(merged);
  report.p50_us = latency.p50;
  report.p95_us = latency.p95;
  report.p99_us = latency.p99;
  report.max_us = latency.max;

  report.readers = load.readers;
  report.snapshots_published = service.publishes();
  report.updates_enqueued = service.updates_enqueued();
  report.updates_drained = service.updates_drained();
  report.lookups_per_sec =
      report.wall_seconds > 0
          ? static_cast<double>(report.lookups) / report.wall_seconds
          : 0;
  report.final_snapshot = service.snapshot();
  return report;
}

bool snapshot_matches_route_fractional(const Graph& g,
                                       const PathSystem& system,
                                       const Demand& demand, double epsilon) {
  // Controller side: one bootstrap epoch (no events, no history) routes
  // `demand` directly and publishes its installed split.
  RouteService service;
  engine::EngineOptions options;
  options.backend = engine::EngineBackend::kMwu;
  options.epsilon = epsilon;
  options.service = &service;
  engine::EpochController controller(g, system, options);
  controller.step({}, demand);
  const std::shared_ptr<const RouteSnapshot> published = service.snapshot();
  if (published == nullptr) return false;

  // Router side: the same matrix through the library entry point.
  RouterOptions router_options;
  router_options.backend = LpBackend::kMwu;
  router_options.epsilon = epsilon;
  const SemiObliviousRouter router(g, system, router_options);
  const FractionalRoute route = router.route_fractional(demand);
  const RouteSnapshot direct =
      RouteSnapshot::build(published->epoch(),
                           split_fractions(route.problem, route.weights));
  return published->serialize() == direct.serialize();
}

}  // namespace sor::serve
