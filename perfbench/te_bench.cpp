// te_bench — drives the whole TE pipeline through its public entry points
// and prints one JSON result line.
//
//   graph -> Räcke ensemble -> sampled path system -> EpochController::step
//   -> RouteService::publish -> concurrent RouteService::lookup
//
// Usage:
//   te_bench --workload <wan_te|scale_te|serve_churn> --seed <n>
//            --seconds <s> --trace <0|1>
//
// A run repeats whole rounds until --seconds have passed, each preceded by
// a few cold builds of the pipeline (setup_s is their median). A round is
// one fresh controller driven over the workload's fixed epoch horizon while
// the reader threads each perform a fixed number of lookup batches per
// published epoch, so every round attempts exactly the same operations.
// Every output is checked outside the timed regions (checks.hpp). --trace 1
// times the benchmark's own calls into each module and prints per-layer
// figures instead of the end-to-end ones; --probe prints the reference
// tables of README.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "cache/cache.hpp"
#include "checks.hpp"
#include "core/router.hpp"
#include "core/sampler.hpp"
#include "demand/demand.hpp"
#include "engine/controller.hpp"
#include "engine/event_trace.hpp"
#include "graph/generators.hpp"
#include "lp/path_lp.hpp"
#include "oblivious/racke_routing.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using sor::Demand;
using sor::Graph;
using sor::PathSystem;
using sor::Vertex;
using sor::VertexPair;
using sor::engine::EpochController;
using sor::engine::EpochReport;
using sor::engine::Event;
using sor::engine::EventKind;
using sor::engine::EventTrace;
using sor::serve::RouteService;
using sor::serve::RouteSnapshot;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a sample, averaging the middle pair (0 when empty).
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Workloads

constexpr std::uint32_t kDegree = 4;     // random regular graphs
constexpr std::size_t kPathsPerPair = 4;  // k of the sampled path system
constexpr std::size_t kBatch = 256;       // lookups per timed batch

struct Workload {
  std::string name;
  std::uint32_t n = 0;          // random 4-regular graph; 0 = GÉANT
  std::size_t epochs = 0;       // epochs per round
  double p_failure = 0.15;      // trace generator failure rate
  std::size_t max_concurrent_failures = 2;
  std::size_t readers = 1;
  /// Batches each reader performs per published epoch: a reader may start
  /// batch b once 1 + b / batches_per_epoch epochs have published, so its
  /// load is spread over the whole loop and every round ends with a fixed
  /// count of lookups.
  std::size_t batches_per_epoch = 0;
  bool ingest = false;          // readers enqueue demand updates
  std::size_t setup_builds = 1; // cold builds before each round
  /// Seed of the control-loop instance (graph, Räcke ensemble, sample,
  /// trace, demand stream). It is part of the workload, not of the run:
  /// --seed only draws the lookup and update keys, so every run solves the
  /// same epochs and the epochs that fail, fail in every run.
  std::uint64_t instance_seed = 0;
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "wan_te") {
    w.epochs = 200;
    w.readers = 1;
    w.batches_per_epoch = 60;
    w.setup_builds = 10;
    w.instance_seed = 16;
  } else if (name == "scale_te") {
    w.n = 192;
    w.epochs = 24;
    w.readers = 1;
    w.batches_per_epoch = 2500;
    w.setup_builds = 2;
    w.instance_seed = 18;
  } else if (name == "serve_churn") {
    w.n = 64;
    w.epochs = 100;
    w.p_failure = 0.6;
    w.max_concurrent_failures = 3;
    w.readers = 2;
    w.batches_per_epoch = 150;
    w.ingest = true;
    w.setup_builds = 5;
    w.instance_seed = 17;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

struct Seeds {
  std::uint64_t graph = 0, racke = 0, sample = 0, trace = 0, stream = 0;
  std::uint64_t readers = 0;
};

/// The instance seeds follow the E16 convention (`engine run --seed s`):
/// Räcke s, sampling s + 1, trace s, and the demand stream seeded the way
/// run_control_loop derives it; the random graph takes s + 2.
Seeds make_seeds(const Workload& w, std::uint64_t run_seed) {
  Seeds s;
  s.graph = w.instance_seed + 2;
  s.racke = w.instance_seed;
  s.sample = w.instance_seed + 1;
  s.trace = w.instance_seed;
  std::uint64_t loop_state = w.instance_seed;
  s.stream = sor::splitmix64(loop_state);
  std::uint64_t run_state = run_seed ^ 0x7e5eedULL;
  s.readers = sor::splitmix64(run_state);
  return s;
}

constexpr double kEpsilon = 0.05;
constexpr std::size_t kMaxPhases = sor::RestrictedMwuOptions{}.max_phases;
const sor::engine::DemandStreamOptions kStream{};

// ---------------------------------------------------------------------------
// Setup

struct Pipeline {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<sor::RaeckeRouting> routing;
  PathSystem system;
  std::vector<VertexPair> pairs;
  EventTrace trace;
};

struct SetupTiming {
  double graph_ms = 0, racke_ms = 0, sample_ms = 0, total_s = 0;
};

sor::engine::EngineOptions engine_options(RouteService* service) {
  sor::engine::EngineOptions options;
  options.backend = sor::engine::EngineBackend::kMwu;
  options.epsilon = kEpsilon;
  options.warm_start = true;
  options.service = service;
  return options;
}

/// One cold build of everything a run needs before its first epoch.
Pipeline build_pipeline(const Workload& w, const Seeds& seeds,
                        SetupTiming& timing) {
  Pipeline p;
  const Clock::time_point t0 = Clock::now();
  p.graph = std::make_unique<Graph>(
      w.n == 0 ? sor::make_geant().graph
               : sor::make_random_regular(w.n, kDegree, seeds.graph));
  const Clock::time_point t1 = Clock::now();
  sor::RaeckeOptions racke;
  racke.seed = seeds.racke;
  p.routing = std::make_unique<sor::RaeckeRouting>(*p.graph, racke);
  const Clock::time_point t2 = Clock::now();
  sor::SampleOptions sample;
  sample.k = kPathsPerPair;
  sample.deduplicate = true;
  p.system = sor::sample_path_system_all_pairs(*p.routing, sample, seeds.sample);
  const Clock::time_point t3 = Clock::now();
  // The controller and service are built for the clock and then dropped;
  // each round builds its own.
  auto service = std::make_unique<RouteService>();
  auto controller = std::make_unique<EpochController>(
      *p.graph, p.system, engine_options(service.get()));
  const Clock::time_point t4 = Clock::now();
  // Not part of setup_s: the trace is the environment, not the program.
  sor::engine::TraceOptions trace;
  trace.num_epochs = w.epochs;
  trace.p_failure = w.p_failure;
  trace.max_concurrent_failures = w.max_concurrent_failures;
  p.trace = sor::engine::generate_trace(*p.graph, trace, seeds.trace);
  p.pairs = p.system.pairs();
  timing.graph_ms = seconds_between(t0, t1) * 1e3;
  timing.racke_ms = seconds_between(t1, t2) * 1e3;
  timing.sample_ms = seconds_between(t2, t3) * 1e3;
  timing.total_s = seconds_between(t0, t4);
  return p;
}

/// Setup timings over every cold build of a run.
struct SetupSamples {
  std::vector<double> total_s, graph_ms, racke_ms, sample_ms, accounted;
};

/// The workload's setup_builds cold builds; returns the last one. A run
/// builds before each round (the setup of later rounds is timed and
/// dropped), so setup_s samples the same stretch of time as the loop.
Pipeline timed_builds(const Workload& w, const Seeds& seeds,
                      SetupSamples& samples) {
  std::optional<Pipeline> p;
  for (std::size_t i = 0; i < w.setup_builds; ++i) {
    SetupTiming timing;
    p.reset();
    p.emplace(build_pipeline(w, seeds, timing));
    samples.total_s.push_back(timing.total_s);
    samples.graph_ms.push_back(timing.graph_ms);
    samples.racke_ms.push_back(timing.racke_ms);
    samples.sample_ms.push_back(timing.sample_ms);
    samples.accounted.push_back(
        (timing.graph_ms + timing.racke_ms + timing.sample_ms) / 1e3 /
        timing.total_s);
  }
  return std::move(*p);
}

// ---------------------------------------------------------------------------
// Placement

/// The service on a cache-line boundary. Readers hammer its counters and
/// poll its published pointer; where those fields fall relative to cache
/// lines would otherwise change with the object's address from run to run,
/// and with it how much the readers contend.
struct alignas(64) AlignedService {
  RouteService service;
};

/// CPUs this process may run on, read once before any thread is pinned.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins the calling thread to one CPU: slot 0 is the control thread, slot
/// r the r-th reader. Left to the scheduler, where the three busy threads
/// land differs from run to run, and on a virtual machine that shows up as
/// a systematic spread of several percent between runs. With fewer CPUs
/// than slots the thread stays unpinned.
void pin_to_slot(const std::vector<int>& cpus, std::size_t slot,
                 std::size_t slots) {
  if (cpus.size() < slots || slot >= cpus.size()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

// ---------------------------------------------------------------------------
// Readers

/// Lookup-batch times in log-spaced bins 0.1% wide, from 0.01 us to 10 s.
/// Memory stays fixed however many rounds a run makes (so it does not
/// leak into peak_rss_mib), and a quantile lands within 0.1% of the exact
/// order statistic: the rank is interpolated inside its bin.
class BatchHistogram {
 public:
  BatchHistogram() : bins_(kBins, 0) {}

  void add(double us) {
    const double pos = std::log(std::max(us, kMinUs) / kMinUs) / kLogGrowth;
    ++bins_[std::min(static_cast<std::size_t>(pos), kBins - 1)];
    ++count_;
  }

  void merge(const BatchHistogram& other) {
    for (std::size_t i = 0; i < kBins; ++i) bins_[i] += other.bins_[i];
    count_ += other.count_;
  }

  double quantile(double q) const {
    if (count_ == 0) return 0;
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBins; ++i) {
      if (bins_[i] == 0) continue;
      if (static_cast<double>(below + bins_[i]) > rank) {
        const double within =
            (rank - static_cast<double>(below) + 0.5) /
            static_cast<double>(bins_[i]);
        return kMinUs * std::exp((static_cast<double>(i) + within) * kLogGrowth);
      }
      below += bins_[i];
    }
    return kMinUs * std::exp(static_cast<double>(kBins) * kLogGrowth);
  }

 private:
  static constexpr double kMinUs = 0.01;
  static inline const double kLogGrowth = std::log(1.001);
  static inline const std::size_t kBins =
      static_cast<std::size_t>(std::log(1e7 / kMinUs) / std::log(1.001)) + 1;
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

struct ReaderStats {
  std::uint64_t lookups = 0;
  std::uint64_t failed = 0;
  double busy_s = 0;
  double wall_s = 0;  // the whole quota, answer checks included
  BatchHistogram batch_us;
  /// Lookups answered per (epoch, digest) — audited after the round.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> seen;
};

/// Reader threads that each perform a fixed quota of lookup batches per
/// round against the service, paced by the epochs the loop publishes. Only the lookups (and, with ingestion, one
/// enqueue_update per batch) sit inside a batch's timed region; keys are
/// drawn before it and answers are checked after it.
class Readers {
 public:
  /// Reader r runs pinned to slot r + 1 of `cpus` (see pin_to_slot).
  Readers(const Graph& g, RouteService& service, const Workload& w,
          std::uint64_t seed, std::size_t count, const std::vector<int>& cpus)
      : graph_(&g), service_(&service), workload_(w), cpus_(cpus),
        count_(count),
        update_amount_(1e-3 * kStream.total /
                       static_cast<double>(g.num_vertices() *
                                           (g.num_vertices() - 1) / 2)),
        stats_(count) {
    for (std::size_t r = 0; r < count; ++r) {
      threads_.emplace_back([this, r, seed] { loop(r, seed); });
    }
  }

  ~Readers() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  /// Releases one round's quota. Paced readers then follow
  /// epoch_published(); unpaced ones run the quota straight through.
  void start_round(bool paced) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_ = 0;
      published_.store(paced ? 0 : std::numeric_limits<std::size_t>::max());
      ++round_;
    }
    cv_.notify_all();
  }

  void epoch_published() { published_.fetch_add(1); }

  void wait_round() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ == threads_.size(); });
  }

  /// Takes (and resets) every reader's accumulated figures. Call between
  /// rounds only.
  std::vector<ReaderStats> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<ReaderStats> out(stats_.size());
    out.swap(stats_);
    return out;
  }

 private:
  void loop(std::size_t reader, std::uint64_t seed) {
    pin_to_slot(cpus_, reader + 1, count_ + 1);
    sor::Rng rng(seed + 0x9e3779b97f4a7c15ULL * (reader + 1));
    std::uint64_t my_round = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || round_ > my_round; });
        if (stop_) return;
        my_round = round_;
      }
      ReaderStats local;
      const Clock::time_point quota_start = Clock::now();
      run_quota(rng, local);
      local.wall_s = seconds_between(quota_start, Clock::now());
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ReaderStats& s = stats_[reader];
        s.lookups += local.lookups;
        s.failed += local.failed;
        s.busy_s += local.busy_s;
        s.wall_s += local.wall_s;
        s.batch_us.merge(local.batch_us);
        for (const auto& [key, n] : local.seen) s.seen[key] += n;
        ++done_;
      }
      cv_.notify_all();
    }
  }

  /// Waits until `epochs` epochs have published; false when stopping. The
  /// reader spins (yielding) rather than sleeps, so its next batch does not
  /// pay a wake-up.
  bool wait_published(std::size_t epochs) const {
    while (published_.load() < epochs) {
      if (stop_.load()) return false;
      std::this_thread::yield();
    }
    return true;
  }

  void run_quota(sor::Rng& rng, ReaderStats& stats) {
    const auto n = static_cast<std::uint64_t>(graph_->num_vertices());
    std::vector<std::pair<Vertex, Vertex>> keys(kBatch);
    std::vector<RouteService::Answer> answers;
    answers.reserve(kBatch);
    std::vector<char> all_alive(graph_->num_edges(), 1);
    const std::size_t per_epoch = workload_.batches_per_epoch;
    const std::size_t quota = per_epoch * workload_.epochs;
    for (std::size_t b = 0; b < quota; ++b) {
      if (b % per_epoch == 0 && !wait_published(1 + b / per_epoch)) return;
      for (auto& [s, t] : keys) {
        s = static_cast<Vertex>(rng.next_u64(n));
        t = static_cast<Vertex>(rng.next_u64(n - 1));
        if (t >= s) ++t;
      }
      const Clock::time_point t0 = Clock::now();
      for (const auto& [s, t] : keys) answers.push_back(service_->lookup(s, t));
      if (workload_.ingest) {
        service_->enqueue_update({keys[0].first, keys[0].second, update_amount_});
      }
      const Clock::time_point t1 = Clock::now();
      const double busy = seconds_between(t0, t1);
      stats.busy_s += busy;
      stats.batch_us.add(busy * 1e6);
      stats.lookups += kBatch;
      // Answers of one batch almost always share a table, so tally them
      // per run of equal (epoch, digest) before touching the map.
      std::pair<std::uint64_t, std::uint64_t> key{0, 0};
      std::uint64_t run = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        const RouteService::Answer& a = answers[i];
        const sor::serve::LookupResult& r = a.result;
        bool ok = a.snapshot != nullptr && r.found &&
                  r.epoch == a.snapshot->epoch() &&
                  perfbench::fractions_ok(r.paths);
        for (std::size_t p = 0; ok && p < r.paths.size(); ++p) {
          ok = perfbench::path_ok(*graph_, r.paths[p].path, keys[i].first,
                                  keys[i].second, all_alive);
        }
        if (!ok) ++stats.failed;
        if (a.snapshot == nullptr) continue;
        const std::pair<std::uint64_t, std::uint64_t> k{r.epoch,
                                                        a.snapshot->digest()};
        if (run > 0 && k != key) {
          stats.seen[key] += run;
          run = 0;
        }
        key = k;
        ++run;
      }
      if (run > 0) stats.seen[key] += run;
      answers.clear();
    }
  }

  const Graph* graph_;
  RouteService* service_;
  const Workload workload_;
  const std::vector<int> cpus_;
  const std::size_t count_;
  const double update_amount_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t round_ = 0;
  std::atomic<std::size_t> published_{0};
  std::size_t done_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<ReaderStats> stats_;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Rounds

/// Pairs whose active candidate list holds the same path more than once.
std::size_t pairs_with_duplicate_candidates(
    const EpochController& controller, std::span<const VertexPair> pairs) {
  std::size_t n = 0;
  for (const VertexPair& pair : pairs) {
    std::vector<sor::Path> c =
        controller.activation().active_oriented(pair.a, pair.b);
    std::sort(c.begin(), c.end(), sor::path_lexicographic_less);
    if (std::adjacent_find(c.begin(), c.end()) != c.end()) ++n;
  }
  return n;
}

struct EpochSample {
  bool bootstrap = false;
  bool link_event = false;  // the epoch applied a failure or recovery
  double step_ms = 0;
  double solve_ms = 0;
  double stream_us = 0;
  double loop_ms = 0;       // drift + stream + drain + step
  std::size_t phases = 0;
  bool warm_accepted = false;
  std::size_t churn = 0;
  double congestion = 0;
  bool failed = false;
  bool capped = false;       // certificate failed on a phase-capped solve
  bool duplicate = false;    // congestion mismatch on duplicated candidates
  bool known_fault = false;  // every failed check is one of the two above
  // Traced rounds only.
  double snapshot_build_ms = 0;
  double snapshot_bytes = 0;
  double snapshot_paths = 0;
  double publish_us = 0;
};

struct RoundResult {
  std::vector<EpochSample> epochs;
  std::vector<ReaderStats> readers;
  std::uint64_t failed_lookups = 0;
  std::uint64_t publishes = 0;  // by the controller
  std::uint64_t updates_drained = 0;
};

/// Runs one round: a fresh controller over the workload's horizon, readers
/// released after the bootstrap epoch has published.
RoundResult run_round(const Workload& w, const Seeds& seeds, const Pipeline& p,
                      RouteService& service, Readers& readers, bool traced) {
  const Graph& g = *p.graph;
  RoundResult out;
  // Updates enqueued after the previous round's last drain belong to no
  // epoch of this round.
  service.drain_updates();
  const std::uint64_t publishes_before = service.publishes();
  const std::uint64_t drained_before = service.updates_drained();
  EpochController controller(g, p.system, engine_options(&service));
  readers.start_round(true);
  sor::engine::DemandStream stream(g, kStream, seeds.stream);
  std::vector<char> alive(g.num_edges(), 1);
  perfbench::PublishedSet published;
  perfbench::PublishedSet bad_tables;

  for (std::size_t t = 0; t < w.epochs; ++t) {
    EpochSample sample;
    sample.bootstrap = t == 0;
    const std::span<const Event> events = p.trace.events_at(t);
    const Clock::time_point t0 = Clock::now();
    for (const Event& event : events) {
      if (event.kind == EventKind::kDemandDrift) {
        stream.apply_drift(event.drift_sigma, event.drift_stream);
      }
    }
    const Clock::time_point ts = Clock::now();
    Demand realized = stream.at_epoch(t);
    const Clock::time_point te = Clock::now();
    for (const sor::serve::DemandUpdate& u : service.drain_updates()) {
      realized.add(u.src, u.dst, u.amount);
    }
    const Clock::time_point t1 = Clock::now();
    const EpochReport report = controller.step(events, realized);
    const Clock::time_point t2 = Clock::now();
    readers.epoch_published();

    sample.stream_us = seconds_between(ts, te) * 1e6;
    sample.step_ms = seconds_between(t1, t2) * 1e3;
    sample.loop_ms = seconds_between(t0, t2) * 1e3;
    sample.solve_ms = report.solve_ms;
    sample.phases = report.phases;
    sample.warm_accepted = report.warm_accepted;
    sample.churn = report.repair.churn();
    sample.congestion = report.congestion;

    // Checks (untimed).
    for (const Event& event : events) {
      if (event.kind == EventKind::kLinkFailure) alive[event.edge] = 0;
      if (event.kind == EventKind::kLinkRecovery) alive[event.edge] = 1;
      if (event.kind != EventKind::kDemandDrift) sample.link_event = true;
    }
    const std::shared_ptr<const RouteSnapshot> snap = service.snapshot();
    bool table_ok = snap != nullptr && snap->epoch() == report.epoch &&
                    perfbench::bad_snapshot_pairs(g, *snap, p.pairs, alive) == 0;
    const bool congestion_ok =
        snap != nullptr &&
        perfbench::congestion_matches(
            report.congestion,
            perfbench::snapshot_congestion(g, *snap, realized));
    const bool bound_ok = perfbench::above_volume_bound(
        report.congestion, perfbench::volume_bound(g, alive, realized));
    const bool certificate_ok = perfbench::certificate_ok(
        report.lower_bound, report.solver_congestion, kEpsilon);

    if (traced && snap != nullptr) {
      // Rebuild the published table from its own answers, then time the
      // snapshot build, its encoding and a publish of the copy.
      sor::SplitFractions split;
      for (const VertexPair& pair : p.pairs) {
        const sor::serve::LookupResult r = snap->lookup(pair.a, pair.b);
        auto& rows = split[pair];
        for (const sor::serve::ServedPath& sp : r.paths) rows[sp.path] = sp.fraction;
      }
      const Clock::time_point b0 = Clock::now();
      auto copy = std::make_shared<const RouteSnapshot>(
          RouteSnapshot::build(report.epoch, split));
      const Clock::time_point b1 = Clock::now();
      sample.snapshot_bytes = static_cast<double>(copy->serialize().size());
      sample.snapshot_paths = static_cast<double>(copy->num_paths());
      table_ok = table_ok && copy->digest() == snap->digest();
      const Clock::time_point b2 = Clock::now();
      service.publish(std::move(copy));
      const Clock::time_point b3 = Clock::now();
      sample.snapshot_build_ms = seconds_between(b0, b1) * 1e3;
      sample.publish_us = seconds_between(b2, b3) * 1e6;
    }
    if (snap != nullptr) {
      published.insert({snap->epoch(), snap->digest()});
      if (!table_ok) bad_tables.insert({snap->epoch(), snap->digest()});
    }
    sample.failed = !table_ok || !congestion_ok || !bound_ok || !certificate_ok;
    // The two program faults this benchmark knows: a warm solve that hits
    // the MWU phase cap above its (1+eps) gap, and a reported congestion
    // that double-counts a path listed twice among a pair's active
    // candidates (a fallback equal to a reactivated base path).
    sample.capped = !certificate_ok && report.phases == kMaxPhases;
    sample.duplicate = !congestion_ok && snap != nullptr &&
                       pairs_with_duplicate_candidates(controller, p.pairs) > 0;
    sample.known_fault = table_ok && bound_ok &&
                         (certificate_ok || sample.capped) &&
                         (congestion_ok || sample.duplicate);
    out.epochs.push_back(sample);
  }

  readers.wait_round();
  out.readers = readers.take();
  for (const ReaderStats& r : out.readers) {
    out.failed_lookups += r.failed;
    for (const auto& [key, n] : r.seen) {
      if (!perfbench::was_published(published, key.first, key.second) ||
          bad_tables.count(key) != 0) {
        out.failed_lookups += n;
      }
    }
  }
  // Traced rounds re-publish every table once themselves.
  out.publishes = service.publishes() - publishes_before -
                  (traced ? out.epochs.size() : 0);
  out.updates_drained = service.updates_drained() - drained_before;
  return out;
}

/// The bootstrap epoch's demand (epoch-0 drift applied) scaled to `total`,
/// as SemiObliviousRouter::route_fractional lays it out for the LP: the
/// problem a controller's first step solves cold.
sor::RestrictedProblem bootstrap_problem(const Pipeline& p, const Seeds& seeds,
                                         double total) {
  sor::engine::DemandStreamOptions options = kStream;
  options.total = total;
  sor::engine::DemandStream stream(*p.graph, options, seeds.stream);
  for (const Event& event : p.trace.events_at(0)) {
    if (event.kind == EventKind::kDemandDrift) {
      stream.apply_drift(event.drift_sigma, event.drift_stream);
    }
  }
  sor::RouterOptions router_options;
  router_options.backend = sor::LpBackend::kMwu;
  router_options.epsilon = kEpsilon;
  const sor::SemiObliviousRouter router(*p.graph, p.system, router_options);
  return router.route_fractional(stream.at_epoch(0)).problem;
}

// ---------------------------------------------------------------------------
// Aggregation

struct Totals {
  std::size_t rounds = 0;
  std::vector<EpochSample> epochs;
  BatchHistogram batch_us;
  std::uint64_t lookups = 0;
  std::uint64_t failed_lookups = 0;
  std::uint64_t publishes = 0;
  std::uint64_t updates_drained = 0;
  std::vector<double> reader_busy_s;
  std::vector<double> reader_wall_s;
  std::vector<std::uint64_t> reader_lookups;

  void add(RoundResult&& round) {
    ++rounds;
    epochs.insert(epochs.end(), round.epochs.begin(), round.epochs.end());
    failed_lookups += round.failed_lookups;
    publishes += round.publishes;
    updates_drained += round.updates_drained;
    reader_busy_s.resize(round.readers.size(), 0);
    reader_wall_s.resize(round.readers.size(), 0);
    reader_lookups.resize(round.readers.size(), 0);
    for (std::size_t r = 0; r < round.readers.size(); ++r) {
      const ReaderStats& s = round.readers[r];
      lookups += s.lookups;
      reader_busy_s[r] += s.busy_s;
      reader_wall_s[r] += s.wall_s;
      reader_lookups[r] += s.lookups;
      batch_us.merge(s.batch_us);
    }
  }

  bool only_known_faults() const {
    if (failed_lookups != 0) return false;
    for (const EpochSample& e : epochs) {
      if (e.failed && !e.known_fault) return false;
    }
    return true;
  }
  std::uint64_t count(bool EpochSample::*flag) const {
    std::uint64_t n = 0;
    for (const EpochSample& e : epochs) n += (e.*flag) ? 1 : 0;
    return n;
  }

  template <typename F>
  std::vector<double> steady(F field) const {
    std::vector<double> v;
    for (const EpochSample& e : epochs) {
      if (!e.bootstrap) v.push_back(field(e));
    }
    return v;
  }

  double epoch_ms_p50() const {
    return median(steady([](const EpochSample& e) { return e.step_ms; }));
  }
  double epochs_per_s() const {
    double loop_s = 0;
    for (const EpochSample& e : epochs) loop_s += e.loop_ms / 1e3;
    return static_cast<double>(epochs.size()) / loop_s;
  }
  /// Σ over readers of lookups ÷ that reader's time inside timed batches.
  double lookup_mops() const {
    double rate = 0;
    for (std::size_t r = 0; r < reader_busy_s.size(); ++r) {
      rate += static_cast<double>(reader_lookups[r]) / reader_busy_s[r];
    }
    return rate / 1e6;
  }
  double per_round(double total) const {
    return total / static_cast<double>(rounds);
  }
};

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string probe;  // reference figures for the README instead of a run
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--probe") {
      a.probe = value;
    } else {
      throw std::invalid_argument("unknown flag: " + key);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: te_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--probe mwu_demand|readers]");
  }
  return a;
}

/// Reference figure: cold MWU phases of the bootstrap problem against the
/// demand's total, which should not matter (the optimal split is
/// scale-free).
int probe_mwu_demand(const Pipeline& p, const Seeds& seeds) {
  std::cout << "total phases gap solve_ms\n";
  for (const double total : {1.0, 8.0, 64.0, 2048.0, 8192.0}) {
    const sor::RestrictedProblem problem = bootstrap_problem(p, seeds, total);
    sor::RestrictedMwuOptions mwu;
    mwu.epsilon = kEpsilon;
    const Clock::time_point t0 = Clock::now();
    const sor::RestrictedSolution s = sor::solve_restricted_mwu(problem, mwu);
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    std::cout << total << " " << s.phases << " "
              << s.congestion / s.lower_bound << " " << ms << "\n";
  }
  return 0;
}

/// Reference figure: lookup throughput of 1 and 2 unpaced readers against
/// one static published table (the bootstrap epoch's), no ingestion.
int probe_readers(const Workload& w, const Seeds& seeds, const Pipeline& p,
                  const std::vector<int>& cpus) {
  const auto aligned = std::make_unique<AlignedService>();
  RouteService& service = aligned->service;
  EpochController controller(*p.graph, p.system, engine_options(&service));
  sor::engine::DemandStream stream(*p.graph, kStream, seeds.stream);
  for (const Event& event : p.trace.events_at(0)) {
    if (event.kind == EventKind::kDemandDrift) {
      stream.apply_drift(event.drift_sigma, event.drift_stream);
    }
  }
  controller.step(p.trace.events_at(0), stream.at_epoch(0));
  Workload quiet = w;
  quiet.ingest = false;
  std::cout << "readers lookup_mops per_reader_mops failed\n";
  for (int rep = 0; rep < 5; ++rep) {
    for (const std::size_t count : {1, 2}) {
      Readers readers(*p.graph, service, quiet, seeds.readers + rep, count,
                      cpus);
      readers.start_round(false);
      readers.wait_round();
      double total = 0;
      std::uint64_t failed = 0;
      std::ostringstream each;
      for (const ReaderStats& s : readers.take()) {
        const double mops = static_cast<double>(s.lookups) / s.busy_s / 1e6;
        total += mops;
        failed += s.failed;
        each << (each.tellp() > 0 ? "," : "") << mops;
      }
      std::cout << count << " " << total << " " << each.str() << " " << failed
                << "\n";
    }
  }
  return 0;
}

int run(const Args& args) {
  // Every timed build is cold: no artifact cache in memory or on disk.
  sor::cache::ArtifactCache::set_enabled(false);
  const std::vector<int> cpus = allowed_cpus();
  const Workload w = make_workload(args.workload);
  const Seeds seeds = make_seeds(w, args.seed);
  // Setup runs on this thread alone (a one-worker pool makes parallel_for
  // run inline), so setup_s does not depend on how fast idle pool workers
  // wake. The loop is single-threaded too, so with the readers at most three
  // threads are busy.
  const sor::ScopedDefaultPool pool(1);
  pin_to_slot(cpus, 0, w.readers + 1);

  SetupSamples setup;
  const Pipeline p = timed_builds(w, seeds, setup);

  if (args.probe == "mwu_demand") return probe_mwu_demand(p, seeds);
  if (args.probe == "readers") return probe_readers(w, seeds, p, cpus);
  if (!args.probe.empty()) {
    throw std::invalid_argument("unknown probe: " + args.probe);
  }

  const auto aligned = std::make_unique<AlignedService>();
  RouteService& service = aligned->service;
  Readers readers(*p.graph, service, w, seeds.readers, w.readers, cpus);
  const Clock::time_point start = Clock::now();
  std::vector<Metric> metrics;
  Totals main;
  std::uint64_t extra_lookups = 0;

  if (!args.trace) {
    do {
      if (main.rounds > 0) timed_builds(w, seeds, setup);
      main.add(run_round(w, seeds, p, service, readers, false));
    } while (seconds_between(start, Clock::now()) < args.seconds);
    const std::vector<double> congestion = [&] {
      std::vector<double> v;
      for (const EpochSample& e : main.epochs) v.push_back(e.congestion);
      return v;
    }();
    metrics = {
        {"setup_s", median(setup.total_s), "s"},
        {"epoch_ms_p50", main.epoch_ms_p50(), "ms"},
        {"epochs_per_s", main.epochs_per_s(), "1/s"},
        {"congestion_mean", mean(congestion), "ratio"},
        {"lookup_mops", main.lookup_mops(), "M/s"},
        {"lookup_batch_us_p50", main.batch_us.quantile(0.5), "us"},
        {"lookup_batch_us_p99", main.batch_us.quantile(0.99), "us"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  } else {
    // One pass is an untraced round (the reference for the tracing
    // overhead), a traced round, a quota of quiet lookups (one thread, the
    // last published table, no churn) and a round with the program's
    // telemetry off. Passes repeat whole until --seconds have passed.
    Totals plain, off;
    Workload quiet_workload = w;
    quiet_workload.ingest = false;
    Readers quiet(*p.graph, service, quiet_workload, seeds.readers ^ 0x51e7ULL,
                  1, cpus);
    double quiet_busy_s = 0;
    do {
      if (plain.rounds > 0) timed_builds(w, seeds, setup);
      plain.add(run_round(w, seeds, p, service, readers, false));
      main.add(run_round(w, seeds, p, service, readers, true));

      quiet.start_round(false);
      quiet.wait_round();
      const ReaderStats q = std::move(quiet.take()[0]);
      const std::shared_ptr<const RouteSnapshot> last = service.snapshot();
      const perfbench::PublishedSet published{{last->epoch(), last->digest()}};
      main.failed_lookups += q.failed;
      for (const auto& [key, n] : q.seen) {
        if (!perfbench::was_published(published, key.first, key.second)) {
          main.failed_lookups += n;
        }
      }
      extra_lookups += q.lookups;
      quiet_busy_s += q.busy_s;

      sor::telemetry::set_enabled(false);
      off.add(run_round(w, seeds, p, service, readers, false));
      sor::telemetry::set_enabled(true);
    } while (seconds_between(start, Clock::now()) < args.seconds);
    const double quiet_mops =
        static_cast<double>(extra_lookups) / quiet_busy_s / 1e6;

    // Cold solve of the bootstrap problem, straight into the LP layer.
    std::vector<double> cold_ms;
    double cold_phases = 0;
    {
      const sor::RestrictedProblem problem =
          bootstrap_problem(p, seeds, kStream.total);
      sor::RestrictedMwuOptions mwu;
      mwu.epsilon = kEpsilon;
      const Clock::time_point c0 = Clock::now();
      do {
        const Clock::time_point a = Clock::now();
        const sor::RestrictedSolution s = sor::solve_restricted_mwu(problem, mwu);
        cold_ms.push_back(seconds_between(a, Clock::now()) * 1e3);
        cold_phases = static_cast<double>(s.phases);
      } while (cold_ms.size() < 3 && seconds_between(c0, Clock::now()) < 2.0);
    }

    auto steady = [&](auto field) { return main.steady(field); };
    std::vector<double> event_steps;
    double churn = 0, capped = 0, warm = 0;
    for (const EpochSample& e : main.epochs) {
      if (e.link_event && !e.bootstrap) event_steps.push_back(e.step_ms);
      churn += static_cast<double>(e.churn);
      capped += e.phases == kMaxPhases ? 1 : 0;
    }
    const std::vector<double> steady_warm =
        steady([](const EpochSample& e) { return e.warm_accepted ? 1.0 : 0.0; });
    warm = mean(steady_warm);
    const double traced_step = median(
        steady([](const EpochSample& e) { return e.step_ms; }));
    const double untraced_step = plain.epoch_ms_p50();
    metrics = {
        {"graph.build_ms", median(setup.graph_ms), "ms"},
        {"oblivious.racke_ms", median(setup.racke_ms), "ms"},
        {"oblivious.trees",
         static_cast<double>(p.routing->ensemble().num_trees()), "count"},
        {"core.sample_ms", median(setup.sample_ms), "ms"},
        {"core.pairs", static_cast<double>(p.system.num_pairs()), "count"},
        {"core.paths", static_cast<double>(p.system.total_paths()), "count"},
        {"setup.accounted_share", median(setup.accounted), "ratio"},
        {"lp.cold_solve_ms", median(cold_ms), "ms"},
        {"lp.cold_phases", cold_phases, "count"},
        {"lp.solve_ms_p50",
         median(steady([](const EpochSample& e) { return e.solve_ms; })), "ms"},
        {"lp.phases_p50",
         median(steady([](const EpochSample& e) {
           return static_cast<double>(e.phases);
         })),
         "count"},
        {"lp.warm_accept_ratio", warm, "ratio"},
        {"lp.capped_solves", main.per_round(capped), "count"},
        {"engine.step_ms_p50", traced_step, "ms"},
        {"engine.nonsolve_ms_p50",
         median(steady([](const EpochSample& e) {
           return e.step_ms - e.solve_ms;
         })),
         "ms"},
        {"engine.event_step_ms_p50", median(event_steps), "ms"},
        {"engine.churn_total", main.per_round(churn), "count"},
        {"demand.stream_us_p50",
         median(steady([](const EpochSample& e) { return e.stream_us; })),
         "us"},
        {"serve.snapshot_build_ms",
         median(steady([](const EpochSample& e) {
           return e.snapshot_build_ms;
         })),
         "ms"},
        {"serve.snapshot_paths",
         median(steady([](const EpochSample& e) { return e.snapshot_paths; })),
         "count"},
        {"serve.snapshot_bytes",
         median(steady([](const EpochSample& e) { return e.snapshot_bytes; })),
         "bytes"},
        {"serve.publish_us_p50",
         median(steady([](const EpochSample& e) { return e.publish_us; })),
         "us"},
        {"serve.publishes",
         main.per_round(static_cast<double>(main.publishes)), "count"},
        {"serve.updates_drained",
         main.per_round(static_cast<double>(main.updates_drained)), "count"},
        {"serve.lookup_mops", main.lookup_mops(), "M/s"},
        {"serve.quiet_lookup_mops", quiet_mops, "M/s"},
        {"telemetry.off_epoch_ms_p50", off.epoch_ms_p50(), "ms"},
        {"telemetry.off_lookup_mops", off.lookup_mops(), "M/s"},
        {"trace.untraced_epoch_ms_p50", untraced_step, "ms"},
        {"trace.overhead_ratio", traced_step / untraced_step, "ratio"},
    };
    // The untraced and telemetry-off rounds are checked like the traced
    // ones and count towards the result.
    for (Totals* t : {&plain, &off}) {
      main.epochs.insert(main.epochs.end(), t->epochs.begin(), t->epochs.end());
      main.lookups += t->lookups;
      main.failed_lookups += t->failed_lookups;
    }
  }

  const std::uint64_t attempted = main.epochs.size() + main.lookups + extra_lookups;
  const std::uint64_t failed = main.count(&EpochSample::failed) + main.failed_lookups;
  double loop_s = 0;
  for (const EpochSample& e : main.epochs) loop_s += e.loop_ms / 1e3;
  std::cerr << "te_bench " << w.name << ": rounds=" << main.rounds
            << " epochs=" << main.epochs.size()
            << " lookups=" << main.lookups + extra_lookups
            << " failed_epochs=" << main.count(&EpochSample::failed)
            << " (capped=" << main.count(&EpochSample::capped)
            << " duplicate=" << main.count(&EpochSample::duplicate) << ")"
            << " failed_lookups=" << main.failed_lookups
            << " loop_s=" << loop_s << " reader_busy_s="
            << (main.reader_busy_s.empty() ? 0 : main.reader_busy_s[0])
            << " reader_wall_s="
            << (main.reader_wall_s.empty() ? 0 : main.reader_wall_s[0]) << "\n";
  print_result(main.only_known_faults(), attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "te_bench: " << e.what() << "\n";
    return 2;
  }
}
