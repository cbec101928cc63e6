// Unit tests for src/engine: trace generation/serialization, the demand
// stream, predictors, failure repair over activation masks, the epoch
// controller, and record/replay byte-identity.

#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <sstream>

#include "engine/controller.hpp"
#include "engine/event_trace.hpp"
#include "engine/predictor.hpp"
#include "engine/repair.hpp"
#include "engine/replay.hpp"
#include "flow/congestion.hpp"
#include "graph/generators.hpp"
#include "serve/service.hpp"
#include "telemetry/json.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace sor::engine {
namespace {

// Exact equality of two sparse demand matrices (Demand has no
// operator==; commodities() is sorted, so elementwise compare works).
bool demand_equal(const Demand& a, const Demand& b) {
  const std::vector<Commodity> ca = a.commodities();
  const std::vector<Commodity> cb = b.commodities();
  if (ca.size() != cb.size()) return false;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (ca[i].src != cb[i].src || ca[i].dst != cb[i].dst ||
        ca[i].amount != cb[i].amount) {
      return false;
    }
  }
  return true;
}

// Connectivity of the subgraph induced by `alive` edges.
bool alive_connected(const Graph& g, const std::vector<char>& alive) {
  if (g.num_vertices() == 0) return true;
  std::vector<char> seen(g.num_vertices(), 0);
  std::queue<Vertex> queue;
  queue.push(0);
  seen[0] = 1;
  std::size_t reached = 1;
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop();
    for (const HalfEdge& half : g.neighbors(v)) {
      if (!alive[half.id] || seen[half.to]) continue;
      seen[half.to] = 1;
      ++reached;
      queue.push(half.to);
    }
  }
  return reached == g.num_vertices();
}

TEST(EventTrace, GenerationIsDeterministic) {
  const Graph g = make_abilene().graph;
  TraceOptions options;
  options.num_epochs = 24;
  const EventTrace a = generate_trace(g, options, 7);
  const EventTrace b = generate_trace(g, options, 7);
  EXPECT_EQ(a, b);
  const EventTrace c = generate_trace(g, options, 8);
  EXPECT_NE(a, c);
  EXPECT_GT(a.events.size(), 0u);
}

TEST(EventTrace, FailuresNeverDisconnect) {
  const Graph g = make_abilene().graph;
  TraceOptions options;
  options.num_epochs = 40;
  options.p_failure = 0.9;  // stress the connectivity guard
  options.max_concurrent_failures = 4;
  const EventTrace trace = generate_trace(g, options, 3);
  std::vector<char> alive(g.num_edges(), 1);
  for (std::size_t t = 0; t < trace.num_epochs; ++t) {
    for (const Event& e : trace.events_at(t)) {
      if (e.kind == EventKind::kLinkFailure) alive[e.edge] = 0;
      if (e.kind == EventKind::kLinkRecovery) alive[e.edge] = 1;
    }
    EXPECT_TRUE(alive_connected(g, alive)) << "epoch " << t;
  }
}

TEST(EventTrace, EventsAtReturnsContiguousRun) {
  EventTrace trace;
  trace.num_epochs = 4;
  trace.events = {{0, EventKind::kLinkFailure, 1, 0, 0},
                  {2, EventKind::kLinkRecovery, 1, 0, 0},
                  {2, EventKind::kDemandDrift, kInvalidEdge, 0.4, 9}};
  EXPECT_EQ(trace.events_at(0).size(), 1u);
  EXPECT_EQ(trace.events_at(1).size(), 0u);
  EXPECT_EQ(trace.events_at(2).size(), 2u);
  EXPECT_EQ(trace.events_at(3).size(), 0u);
}

TEST(EventTrace, SaveLoadRoundTrip) {
  const Graph g = make_b4().graph;
  TraceOptions options;
  options.num_epochs = 16;
  const EventTrace trace = generate_trace(g, options, 11);
  std::stringstream buffer;
  save_trace(trace, buffer);
  const EventTrace loaded = load_trace(buffer);
  EXPECT_EQ(trace, loaded);
}

TEST(EventTrace, LoadRejectsGarbage) {
  std::stringstream buffer("not a trace\n");
  EXPECT_THROW(load_trace(buffer), CheckError);
}

TEST(DemandStream, DeterministicPerEpoch) {
  const Graph g = make_abilene().graph;
  DemandStreamOptions options;
  DemandStream a(g, options, 5);
  DemandStream b(g, options, 5);
  EXPECT_TRUE(demand_equal(a.at_epoch(3), b.at_epoch(3)));
  // at_epoch is a pure function: asking twice gives the same matrix, and
  // jitter differs across epochs.
  EXPECT_TRUE(demand_equal(a.at_epoch(3), a.at_epoch(3)));
  EXPECT_FALSE(demand_equal(a.at_epoch(3), a.at_epoch(4)));
}

TEST(DemandStream, DriftIsDeterministicAndChangesTheMatrix) {
  const Graph g = make_abilene().graph;
  DemandStreamOptions options;
  DemandStream a(g, options, 5);
  DemandStream b(g, options, 5);
  const Demand before = a.at_epoch(2);
  a.apply_drift(0.5, 42);
  b.apply_drift(0.5, 42);
  EXPECT_TRUE(demand_equal(a.at_epoch(2), b.at_epoch(2)));
  EXPECT_FALSE(demand_equal(a.at_epoch(2), before));
}

TEST(Predictor, EwmaConvergesToConstantDemand) {
  EwmaPredictor predictor(0.5);
  Demand constant;
  constant.add(0, 1, 4.0);
  constant.add(2, 3, 1.0);
  EXPECT_TRUE(predictor.predict().empty());
  for (int i = 0; i < 12; ++i) predictor.observe(constant);
  const Demand predicted = predictor.predict();
  EXPECT_NEAR(predicted.at(0, 1), 4.0, 1e-3);
  EXPECT_NEAR(predicted.at(2, 3), 1.0, 1e-3);
  // Constant demand is perfectly predictable after the first observation.
  EXPECT_NEAR(predictor.error_summary().max, 0.0, 1e-9);
}

TEST(Predictor, PeakTracksWindowMaximum) {
  PeakPredictor predictor(2);
  Demand low;
  low.add(0, 1, 1.0);
  Demand high;
  high.add(0, 1, 5.0);
  predictor.observe(high);
  predictor.observe(low);
  EXPECT_NEAR(predictor.predict().at(0, 1), 5.0, 1e-12);
  predictor.observe(low);  // the 5.0 slides out of the window
  EXPECT_NEAR(predictor.predict().at(0, 1), 1.0, 1e-12);
}

TEST(Predictor, ErrorHistoryScoresPendingPrediction) {
  EwmaPredictor predictor(1.0);  // predicts exactly the last observation
  Demand first;
  first.add(0, 1, 2.0);
  Demand second;
  second.add(0, 1, 3.0);
  predictor.observe(first);
  EXPECT_EQ(predictor.error_summary().count, 0u);
  predictor.observe(second);
  ASSERT_EQ(predictor.error_summary().count, 1u);
  // |2 − 3| / |3|
  EXPECT_NEAR(predictor.error_summary().mean, 1.0 / 3.0, 1e-12);
}

// Diamond 0–1–3 / 0–2–3 plus a direct 0–3 edge the system does not use.
struct DiamondFixture {
  Graph g{4};
  EdgeId e01, e02, e13, e23, e03;
  PathSystem ps;

  DiamondFixture() {
    e01 = g.add_edge(0, 1);
    e02 = g.add_edge(0, 2);
    e13 = g.add_edge(1, 3);
    e23 = g.add_edge(2, 3);
    e03 = g.add_edge(0, 3);
    ps.add(Path{0, 3, {e01, e13}});
    ps.add(Path{0, 3, {e02, e23}});
  }
};

TEST(Repair, FailureDeactivatesOnlyAffectedCandidates) {
  DiamondFixture f;
  PathRepairer repairer(f.g, f.ps);
  const std::vector<VertexPair> support = {VertexPair::canonical(0, 3)};
  const std::vector<Event> events = {{0, EventKind::kLinkFailure, f.e01, 0, 0}};
  const RepairReport report = repairer.apply_epoch(events, support);
  EXPECT_EQ(report.deactivated, 1u);
  EXPECT_EQ(report.fallbacks_installed, 0u);
  EXPECT_FALSE(repairer.activation().is_active(0, 3, 0));
  EXPECT_TRUE(repairer.activation().is_active(0, 3, 1));
  EXPECT_EQ(repairer.activation().num_active(0, 3), 1u);
}

TEST(Repair, StrandedPairGetsMandatoryFallbackEvenWithZeroBudget) {
  DiamondFixture f;
  RepairOptions options;
  options.churn_budget = 0;
  PathRepairer repairer(f.g, f.ps, options);
  const std::vector<VertexPair> support = {VertexPair::canonical(0, 3)};
  const std::vector<Event> events = {{0, EventKind::kLinkFailure, f.e01, 0, 0},
                                     {0, EventKind::kLinkFailure, f.e23, 0, 0}};
  const RepairReport report = repairer.apply_epoch(events, support);
  EXPECT_EQ(report.deactivated, 2u);
  EXPECT_EQ(report.fallbacks_installed, 1u);
  ASSERT_EQ(repairer.activation().num_extras(0, 3), 1u);
  // BFS on the surviving graph finds the direct edge.
  EXPECT_EQ(repairer.activation().extra_path(0, 3, 0).edges,
            (std::vector<EdgeId>{f.e03}));
  EXPECT_EQ(repairer.activation().num_active(0, 3), 1u);
}

TEST(Repair, RecoveryReactivatesWithinBudget) {
  DiamondFixture f;
  PathRepairer repairer(f.g, f.ps);
  const std::vector<VertexPair> support = {VertexPair::canonical(0, 3)};
  const std::vector<Event> fail = {{0, EventKind::kLinkFailure, f.e01, 0, 0}};
  repairer.apply_epoch(fail, support);
  const std::vector<Event> recover = {
      {1, EventKind::kLinkRecovery, f.e01, 0, 0}};
  const RepairReport report = repairer.apply_epoch(recover, support);
  EXPECT_EQ(report.reactivated, 1u);
  EXPECT_EQ(report.deferred, 0u);
  EXPECT_TRUE(repairer.activation().is_active(0, 3, 0));
  EXPECT_EQ(repairer.failed_edges(), 0u);
}

TEST(Repair, ZeroBudgetDefersReactivation) {
  DiamondFixture f;
  RepairOptions options;
  options.churn_budget = 0;
  PathRepairer repairer(f.g, f.ps, options);
  const std::vector<VertexPair> support = {VertexPair::canonical(0, 3)};
  const std::vector<Event> fail = {{0, EventKind::kLinkFailure, f.e01, 0, 0}};
  repairer.apply_epoch(fail, support);
  const std::vector<Event> recover = {
      {1, EventKind::kLinkRecovery, f.e01, 0, 0}};
  const RepairReport report = repairer.apply_epoch(recover, support);
  EXPECT_EQ(report.reactivated, 0u);
  EXPECT_GE(report.deferred, 1u);
  EXPECT_FALSE(repairer.activation().is_active(0, 3, 0));
}

// Congestion of `demand` routed on the table a service last published.
double published_congestion(const Graph& g, const serve::RouteService& service,
                            const Demand& demand) {
  const auto snap = service.snapshot();
  EdgeLoad load = zero_load(g);
  for (const Commodity& c : demand.commodities()) {
    const serve::LookupResult answer = snap->lookup(c.src, c.dst);
    for (const serve::ServedPath& row : answer.paths) {
      add_path_load(row.path, c.amount * row.fraction, load);
    }
  }
  return max_congestion(g, load);
}

TEST(Repair, StrandedFallbackReArmsADeferredBaseCandidate) {
  // Diamond without the direct edge, so a stranded 0–3 pair's surviving
  // shortest path is one of its own base candidates.
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e02 = g.add_edge(0, 2);
  const EdgeId e13 = g.add_edge(1, 3);
  const EdgeId e23 = g.add_edge(2, 3);
  PathSystem ps;
  ps.add(Path{0, 3, {e01, e13}});
  ps.add(Path{0, 3, {e02, e23}});
  Demand demand;
  demand.add(0, 3, 1.0);

  serve::RouteService service;
  EngineOptions options;
  options.repair.churn_budget = 1;
  options.service = &service;
  EpochController controller(g, ps, options);
  const std::vector<std::vector<Event>> epochs = {
      {},
      {{1, EventKind::kLinkFailure, e01, 0, 0}},
      // e01 is back (its candidate is eligible again) while e23 strands
      // the pair: the fallback is exactly the 0–1–3 base candidate.
      {{2, EventKind::kLinkRecovery, e01, 0, 0},
       {2, EventKind::kLinkFailure, e23, 0, 0}},
      // Both candidates come back within the budget and split the pair;
      // a duplicate 0–1–3 copy would now be double-counted.
      {{3, EventKind::kLinkRecovery, e23, 0, 0}},
      {},
      {},
      {}};
  for (const std::vector<Event>& events : epochs) {
    const EpochReport report = controller.step(events, demand);
    const std::vector<Path> active =
        controller.activation().active_oriented(0, 3);
    for (std::size_t i = 0; i < active.size(); ++i) {
      for (std::size_t j = i + 1; j < active.size(); ++j) {
        EXPECT_FALSE(active[i] == active[j])
            << "epoch " << report.epoch << " lists a candidate twice";
      }
    }
    EXPECT_NEAR(report.congestion, published_congestion(g, service, demand),
                1e-9)
        << "epoch " << report.epoch;
    if (report.epoch == 2) {
      EXPECT_EQ(report.repair.fallbacks_installed, 0u);
      EXPECT_EQ(report.repair.reactivated, 1u);
      EXPECT_TRUE(controller.activation().is_active(0, 3, 0));
    }
  }
  EXPECT_EQ(controller.activation().num_extras(0, 3), 0u);
}

EngineRunConfig small_config() {
  EngineRunConfig config;
  config.topology = "wan:abilene";
  config.source = "sp";  // fast, deterministic path source for unit tests
  config.k = 3;
  config.seed = 21;
  config.trace.num_epochs = 8;
  config.stream.total = 32.0;
  return config;
}

TEST(Controller, ControlLoopIsDeterministic) {
  const EngineRunConfig config = small_config();
  const EngineRunOutput a = run_from_config(config);
  const EngineRunOutput b = run_from_config(config);
  EXPECT_EQ(digest_json(a.record, a.result).dump(2),
            digest_json(b.record, b.result).dump(2));
  EXPECT_EQ(a.result.epochs.size(), config.trace.num_epochs);
}

TEST(Controller, EveryEpochProducesFiniteCertifiedCongestion) {
  const EngineRunOutput out = run_from_config(small_config());
  for (const EpochReport& r : out.result.epochs) {
    EXPECT_GT(r.congestion, 0.0) << "epoch " << r.epoch;
    EXPECT_GE(r.solver_congestion, r.lower_bound * (1.0 - 1e-9))
        << "epoch " << r.epoch;
    EXPECT_GT(r.realized_total, 0.0);
  }
}

TEST(Controller, QuietTraceWarmAcceptsAndMatchesColdQuality) {
  // No failures, no drift, tiny jitter: after the bootstrap epoch the
  // installed split stays near-optimal, so warm starts should accept
  // without re-solving — and quality must match the cold loop.
  EngineRunConfig config = small_config();
  config.trace.p_failure = 0;
  config.trace.p_drift = 0;
  config.stream.jitter_sigma = 0.01;
  const EngineRunOutput warm = run_from_config(config);
  EXPECT_GE(warm.result.warm_accepts, 1u);

  EngineRunRecord cold_record = warm.record;
  cold_record.config.engine.warm_start = false;
  const ControlLoopResult cold = replay_record(cold_record);
  EXPECT_EQ(cold.warm_accepts, 0u);
  ASSERT_EQ(cold.epochs.size(), warm.result.epochs.size());
  for (std::size_t t = 0; t < cold.epochs.size(); ++t) {
    // Both are (1+ε) solutions of the same LP; allow both slacks.
    EXPECT_NEAR(warm.result.epochs[t].congestion, cold.epochs[t].congestion,
                0.15 * cold.epochs[t].congestion + 1e-9)
        << "epoch " << t;
  }
}

TEST(Quality, ShadowSamplingFollowsContractAndRegretIsSane) {
  EngineRunConfig config = small_config();
  config.engine.quality.shadow_every = 2;
  const EngineRunOutput out = run_from_config(config);
  ASSERT_EQ(out.result.epochs.size(), 8u);

  std::size_t sampled = 0;
  for (const EpochReport& r : out.result.epochs) {
    // Sampling is a pure function of the epoch index: every even epoch,
    // including epoch 0.
    EXPECT_EQ(r.quality.shadow_sampled, r.epoch % 2 == 0)
        << "epoch " << r.epoch;
    if (!r.quality.shadow_sampled) continue;
    ++sampled;
    EXPECT_GT(r.quality.shadow_opt, 0.0);
    EXPECT_GE(r.quality.shadow_opt,
              r.quality.shadow_lower_bound * (1.0 - 1e-9));
    // Achieved >= OPT and shadow_opt <= (1+eps) OPT, so the ratio can
    // undershoot 1 by at most the shadow solver's slack.
    EXPECT_GE(r.quality.regret,
              1.0 / (1.0 + config.engine.quality.shadow_epsilon) - 1e-6)
        << "epoch " << r.epoch;
  }
  EXPECT_EQ(sampled, 4u);
  EXPECT_EQ(out.result.shadow_solves, 4u);
  EXPECT_EQ(out.result.regret_summary.count, 4u);
  EXPECT_GT(out.result.regret_summary.max, 0.0);

  // Bootstrap epoch has no pending prediction; every later epoch scores.
  EXPECT_LT(out.result.epochs.front().quality.predictor_mape, 0.0);
  for (std::size_t t = 1; t < out.result.epochs.size(); ++t) {
    EXPECT_GE(out.result.epochs[t].quality.predictor_mape, 0.0);
  }
  EXPECT_EQ(out.result.predictor_mape_summary.count, 7u);
  // First epoch installs fresh state — churn is defined as zero.
  EXPECT_EQ(out.result.epochs.front().quality.mask_churn, 0u);
  EXPECT_DOUBLE_EQ(out.result.epochs.front().quality.weight_l1_drift, 0.0);
}

TEST(Quality, BlockReplaysByteIdenticallyAndStaysOutOfDigest) {
  EngineRunConfig config = small_config();
  config.engine.quality.shadow_every = 2;
  const EngineRunOutput out = run_from_config(config);
  const telemetry::JsonValue block =
      quality_to_json(out.result, config.engine.quality);

  // Round-trip the record through its text format, re-apply the quality
  // options (they are NOT serialized — replay re-passes them, like the
  // CLI's --shadow-every), and replay: the block must match byte for byte.
  std::stringstream io;
  save_record(out.record, io);
  EngineRunRecord loaded = load_record(io);
  loaded.config.engine.quality = config.engine.quality;
  const ControlLoopResult replayed = replay_record(loaded);
  EXPECT_EQ(quality_to_json(replayed, config.engine.quality).dump(2),
            block.dump(2));

  // The replay digest v1 excludes quality fields entirely: a run with
  // the observatory off digests identically.
  EngineRunConfig off = small_config();
  off.engine.quality.shadow_every = 0;
  const EngineRunOutput baseline = run_from_config(off);
  EXPECT_EQ(digest_json(out.record, out.result).dump(2),
            digest_json(baseline.record, baseline.result).dump(2));
}

TEST(Quality, DisabledShadowStillScoresPredictorAndChurn) {
  const EngineRunOutput out = run_from_config(small_config());
  EXPECT_EQ(out.result.shadow_solves, 0u);
  EXPECT_EQ(out.result.regret_summary.count, 0u);
  for (const EpochReport& r : out.result.epochs) {
    EXPECT_FALSE(r.quality.shadow_sampled);
  }
  // Predictor scoring and churn tracking are always on.
  EXPECT_EQ(out.result.predictor_mape_summary.count,
            out.result.epochs.size() - 1);
}

TEST(Controller, ExactBackendRunsTheLoop) {
  EngineRunConfig config = small_config();
  config.trace.num_epochs = 4;
  config.engine.backend = EngineBackend::kExact;
  const EngineRunOutput out = run_from_config(config);
  ASSERT_EQ(out.result.epochs.size(), 4u);
  for (const EpochReport& r : out.result.epochs) {
    EXPECT_GT(r.congestion, 0.0);
  }
}

TEST(Controller, CancelledSolvesTruncateButEveryEpochCompletes) {
  // A cancel hook that always fires is the deterministic stand-in for an
  // exhausted wall-clock budget: each cold MWU solve stops at its first
  // phase boundary with a feasible split, and the loop must keep going.
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::Recorder::global().clear();
  auto& truncation_counter =
      telemetry::Registry::global().counter("engine/solves_truncated");
  truncation_counter.reset();

  telemetry::ProgressReporter reporter;
  reporter.cancel = [] { return true; };
  std::uint64_t truncated_epochs = 0;
  {
    telemetry::ProgressScope scope(reporter);
    const EngineRunOutput out = run_from_config(small_config());
    ASSERT_EQ(out.result.epochs.size(), 8u);
    for (const EpochReport& r : out.result.epochs) {
      EXPECT_TRUE(std::isfinite(r.congestion)) << "epoch " << r.epoch;
      EXPECT_GT(r.congestion, 0.0) << "epoch " << r.epoch;
      if (r.truncated) ++truncated_epochs;
    }
  }
  EXPECT_GE(truncated_epochs, 1u);
  EXPECT_EQ(truncation_counter.value(), truncated_epochs);

  bool saw_event = false;
  for (const telemetry::RecorderEvent& e :
       telemetry::Recorder::global().snapshot()) {
    if (e.category == "engine/solve_truncated") saw_event = true;
  }
  EXPECT_TRUE(saw_event);
  telemetry::set_enabled(was_enabled);
}

TEST(Controller, SolveDeadlineBudgetKeepsTheLoopAliveAndReportsHonestly) {
  // An aggressive 1 ms budget may or may not truncate a given solve
  // (wall-clock), so assert the invariants that must hold either way:
  // the full epoch count completes, every epoch routes a feasible split,
  // and the truncation counter agrees with the per-epoch reports.
  auto& truncation_counter =
      telemetry::Registry::global().counter("engine/solves_truncated");
  truncation_counter.reset();
  EngineRunConfig config = small_config();
  config.engine.solve_deadline_ms = 1;
  config.engine.warm_start = false;  // every epoch re-solves under budget
  const EngineRunOutput out = run_from_config(config);
  ASSERT_EQ(out.result.epochs.size(), config.trace.num_epochs);
  std::uint64_t truncated_epochs = 0;
  for (const EpochReport& r : out.result.epochs) {
    EXPECT_TRUE(std::isfinite(r.congestion)) << "epoch " << r.epoch;
    EXPECT_GT(r.congestion, 0.0) << "epoch " << r.epoch;
    if (r.truncated) ++truncated_epochs;
  }
  if (telemetry::enabled()) {
    EXPECT_EQ(truncation_counter.value(), truncated_epochs);
  }
}

TEST(Replay, DigestRecordsTruncationPerEpoch) {
  // The digest row must carry the truncated flag so replays of budgeted
  // runs are comparable (replay re-executes with the same code; with no
  // budget installed, every row must say false).
  const EngineRunOutput out = run_from_config(small_config());
  const telemetry::JsonValue digest = digest_json(out.record, out.result);
  const telemetry::JsonValue& epochs = digest.at("per_epoch");
  ASSERT_GT(epochs.size(), 0u);
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    ASSERT_TRUE(epochs.at(i).has("truncated"));
    EXPECT_FALSE(epochs.at(i).at("truncated").as_bool());
  }
}

TEST(Replay, RecordRoundTripsAndReplaysByteIdentically) {
  const EngineRunOutput out = run_from_config(small_config());
  std::stringstream buffer;
  save_record(out.record, buffer);
  const EngineRunRecord loaded = load_record(buffer);
  EXPECT_EQ(loaded.trace, out.record.trace);
  const ControlLoopResult replayed = replay_record(loaded);
  EXPECT_EQ(digest_json(loaded, replayed).dump(2),
            digest_json(out.record, out.result).dump(2));
}

TEST(Replay, BuildTopologyRejectsUnknownSpecs) {
  EXPECT_THROW(build_topology("abilene"), CheckError);
  EXPECT_THROW(build_topology("wan:nowhere"), CheckError);
  EXPECT_EQ(build_topology("hypercube:3").num_vertices(), 8u);
}

}  // namespace
}  // namespace sor::engine
