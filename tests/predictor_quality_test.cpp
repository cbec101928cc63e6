// Unit tests for the routing-quality observatory's predictor scoring
// (score_prediction + DemandPredictor::mape_summary) and the
// QualityTracker churn signals. The predictor tests pin EXACT expected
// MAPE values for the EWMA and peak predictors on constant, linearly
// drifting, and adversarial flip-flop traces — the scoring is pure
// arithmetic, so the expectations are closed-form.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/path_system.hpp"
#include "demand/demand.hpp"
#include "engine/predictor.hpp"
#include "engine/quality.hpp"
#include "serve/snapshot.hpp"

namespace sor::engine {
namespace {

Demand single(double amount) {
  Demand d;
  d.add(0, 1, amount);
  return d;
}

// ---------------------------------------------------------------------------
// score_prediction

TEST(ScorePrediction, EmptyMatricesScoreZero) {
  const PredictorScore score = score_prediction(Demand{}, Demand{});
  EXPECT_EQ(score.pairs, 0u);
  EXPECT_DOUBLE_EQ(score.mape, 0);
  EXPECT_EQ(score.worst_src, kInvalidVertex);
  EXPECT_EQ(score.worst_dst, kInvalidVertex);
}

TEST(ScorePrediction, RelativeErrorPerPair) {
  Demand realized;
  realized.add(0, 1, 10);
  realized.add(2, 3, 4);
  Demand predicted;
  predicted.add(0, 1, 8);   // |8-10|/10 = 0.2
  predicted.add(2, 3, 5);   // |5-4|/4  = 0.25
  const PredictorScore score = score_prediction(predicted, realized);
  EXPECT_EQ(score.pairs, 2u);
  EXPECT_DOUBLE_EQ(score.mape, (0.2 + 0.25) / 2);
  EXPECT_DOUBLE_EQ(score.worst_error, 0.25);
  EXPECT_EQ(score.worst_src, 2u);
  EXPECT_EQ(score.worst_dst, 3u);
}

TEST(ScorePrediction, GhostPairContributesExactlyOne) {
  // A pair the predictor invented (realized 0) counts as 100% wrong —
  // bounded, so one ghost cannot swamp the mean.
  Demand realized;
  realized.add(0, 1, 10);
  Demand predicted;
  predicted.add(0, 1, 10);
  predicted.add(5, 6, 1000);
  const PredictorScore score = score_prediction(predicted, realized);
  EXPECT_EQ(score.pairs, 2u);
  EXPECT_DOUBLE_EQ(score.mape, 0.5);  // (0 + 1) / 2
  EXPECT_DOUBLE_EQ(score.worst_error, 1.0);
  EXPECT_EQ(score.worst_src, 5u);
  EXPECT_EQ(score.worst_dst, 6u);
}

TEST(ScorePrediction, MissedPairScoresFullError) {
  // Realized demand the predictor missed entirely: |0 - r| / r = 1.
  Demand realized;
  realized.add(0, 1, 7);
  const PredictorScore score = score_prediction(Demand{}, realized);
  EXPECT_EQ(score.pairs, 1u);
  EXPECT_DOUBLE_EQ(score.mape, 1.0);
}

TEST(ScorePrediction, WorstPairTieBreaksToSortedOrder) {
  // Both pairs attain the max error; the FIRST in sorted (a, b) order
  // wins, so the worst pair replays deterministically.
  Demand realized;
  realized.add(2, 3, 10);
  realized.add(0, 1, 10);
  Demand predicted;
  predicted.add(2, 3, 20);
  predicted.add(0, 1, 20);
  const PredictorScore score = score_prediction(predicted, realized);
  EXPECT_DOUBLE_EQ(score.worst_error, 1.0);
  EXPECT_EQ(score.worst_src, 0u);
  EXPECT_EQ(score.worst_dst, 1u);
}

// ---------------------------------------------------------------------------
// Predictor MAPE histories (satellite: exact expected values per trace)

TEST(PredictorMape, EwmaConstantTraceIsExact) {
  EwmaPredictor p(0.5);
  for (int t = 0; t < 5; ++t) p.observe(single(10));
  const StatsSummary mape = p.mape_summary();
  EXPECT_EQ(mape.count, 4u);  // no pending prediction at the bootstrap
  EXPECT_DOUBLE_EQ(mape.mean, 0);
  EXPECT_DOUBLE_EQ(mape.max, 0);
}

TEST(PredictorMape, EwmaLinearDriftIsExact) {
  // d_t = 10 + t, alpha = 0.5. States: 10, 10.5, 11.25, 12.125; pending
  // predictions lag the drift, so the per-epoch MAPEs are
  //   1/11, 1.5/12, 1.75/13, 1.875/14.
  EwmaPredictor p(0.5);
  for (int t = 0; t < 5; ++t) p.observe(single(10 + t));
  const StatsSummary mape = p.mape_summary();
  EXPECT_EQ(mape.count, 4u);
  const double expected_mean =
      (1.0 / 11 + 1.5 / 12 + 1.75 / 13 + 1.875 / 14) / 4;
  EXPECT_NEAR(mape.mean, expected_mean, 1e-12);
  EXPECT_NEAR(mape.max, 1.75 / 13, 1e-12);
}

TEST(PredictorMape, EwmaFlipFlopIsExact) {
  // Adversarial alternation 10, 20, 10, 20, 10, 20: the EWMA is always
  // chasing the previous value. Pending states 10, 15, 12.5, 16.25,
  // 13.125 give MAPEs 0.5, 0.5, 0.375, 0.625, 0.34375.
  EwmaPredictor p(0.5);
  for (int t = 0; t < 6; ++t) p.observe(single(t % 2 == 0 ? 10 : 20));
  const StatsSummary mape = p.mape_summary();
  EXPECT_EQ(mape.count, 5u);
  EXPECT_NEAR(mape.mean, (0.5 + 0.5 + 0.375 + 0.625 + 0.34375) / 5, 1e-12);
  EXPECT_DOUBLE_EQ(mape.max, 0.625);
}

TEST(PredictorMape, PeakConstantTraceIsExact) {
  PeakPredictor p(4);
  for (int t = 0; t < 5; ++t) p.observe(single(10));
  const StatsSummary mape = p.mape_summary();
  EXPECT_EQ(mape.count, 4u);
  EXPECT_DOUBLE_EQ(mape.mean, 0);
  EXPECT_DOUBLE_EQ(mape.max, 0);
}

TEST(PredictorMape, PeakLinearDriftIsExact) {
  // d_t = 10 + t: the window max is always the previous value, so the
  // MAPE at epoch t is 1 / (10 + t):  1/11, 1/12, 1/13, 1/14.
  PeakPredictor p(4);
  for (int t = 0; t < 5; ++t) p.observe(single(10 + t));
  const StatsSummary mape = p.mape_summary();
  EXPECT_EQ(mape.count, 4u);
  EXPECT_NEAR(mape.mean, (1.0 / 11 + 1.0 / 12 + 1.0 / 13 + 1.0 / 14) / 4,
              1e-12);
  EXPECT_NEAR(mape.max, 1.0 / 11, 1e-12);
}

TEST(PredictorMape, PeakFlipFlopIsExact) {
  // Window 2 over 10, 20, 10, 20, 10: predictions 10, 20, 20, 20 give
  // MAPEs 0.5, 1.0, 0.0, 1.0 — the conservative peak is perfect on the
  // high phase and 100% high on the low phase.
  PeakPredictor p(2);
  for (int t = 0; t < 5; ++t) p.observe(single(t % 2 == 0 ? 10 : 20));
  const StatsSummary mape = p.mape_summary();
  EXPECT_EQ(mape.count, 4u);
  EXPECT_DOUBLE_EQ(mape.mean, (0.5 + 1.0 + 0.0 + 1.0) / 4);
  EXPECT_DOUBLE_EQ(mape.max, 1.0);
}

// ---------------------------------------------------------------------------
// QualityTracker churn

Path make_path(Vertex src, Vertex dst, std::vector<EdgeId> edges) {
  Path p;
  p.src = src;
  p.dst = dst;
  p.edges = std::move(edges);
  return p;
}

// The tracker grades installed tables, which the controller freezes as
// route snapshots.
std::shared_ptr<const serve::RouteSnapshot> frozen(const SplitFractions& split) {
  return std::make_shared<const serve::RouteSnapshot>(
      serve::RouteSnapshot::build(0, split));
}

class QualityTrackerChurnTest : public ::testing::Test {
 protected:
  QualityTrackerChurnTest() {
    system_.add(make_path(0, 1, {0}));
    system_.add(make_path(0, 1, {1, 2}));
    system_.add(make_path(2, 3, {3}));
  }

  PathSystem system_;
};

TEST_F(QualityTrackerChurnTest, FirstEpochHasZeroChurn) {
  QualityTracker tracker({});
  PathActivation mask(system_);
  SplitFractions split;
  split[VertexPair::canonical(0, 1)][make_path(0, 1, {0})] = 1.0;
  EpochQuality q;
  tracker.observe_install(mask, frozen(split), q);
  EXPECT_EQ(q.mask_churn, 0u);
  EXPECT_DOUBLE_EQ(q.weight_l1_drift, 0);
  EXPECT_EQ(q.top_path_flips, 0u);
}

TEST_F(QualityTrackerChurnTest, FlagFlipAndExtraCountAsHamming) {
  QualityTracker tracker({});
  PathActivation mask(system_);
  SplitFractions split;
  EpochQuality q0;
  tracker.observe_install(mask, frozen(split), q0);

  // One base flag flipped + one fallback installed = Hamming 2.
  mask.set_active(0, 1, 0, false);
  mask.add_extra(make_path(2, 3, {4, 5}));
  EpochQuality q1;
  tracker.observe_install(mask, frozen(split), q1);
  EXPECT_EQ(q1.mask_churn, 2u);

  // Stable mask again: churn back to zero.
  EpochQuality q2;
  tracker.observe_install(mask, frozen(split), q2);
  EXPECT_EQ(q2.mask_churn, 0u);
}

TEST_F(QualityTrackerChurnTest, WeightDriftAndTopFlipAreExact) {
  QualityTracker tracker({});
  PathActivation mask(system_);
  const Path direct = make_path(0, 1, {0});
  const Path detour = make_path(0, 1, {1, 2});
  const VertexPair pair = VertexPair::canonical(0, 1);

  SplitFractions before;
  before[pair][direct] = 1.0;
  EpochQuality q0;
  tracker.observe_install(mask, frozen(before), q0);

  // Shift 60% of the pair onto the detour: L1 drift is
  // |0.4 - 1.0| + |0.6 - 0| = 1.2, and the top path flips.
  SplitFractions after;
  after[pair][direct] = 0.4;
  after[pair][detour] = 0.6;
  EpochQuality q1;
  tracker.observe_install(mask, frozen(after), q1);
  EXPECT_NEAR(q1.weight_l1_drift, 1.2, 1e-12);
  EXPECT_EQ(q1.top_path_flips, 1u);

  // Unchanged split: no drift, no flips.
  EpochQuality q2;
  tracker.observe_install(mask, frozen(after), q2);
  EXPECT_DOUBLE_EQ(q2.weight_l1_drift, 0);
  EXPECT_EQ(q2.top_path_flips, 0u);
}

TEST_F(QualityTrackerChurnTest, PairAppearingCountsWholeWeight) {
  // A pair installed only in the new epoch contributes its whole weight
  // sum to the drift but cannot flip (no previous top to compare).
  QualityTracker tracker({});
  PathActivation mask(system_);
  SplitFractions before;
  before[VertexPair::canonical(0, 1)][make_path(0, 1, {0})] = 1.0;
  EpochQuality q0;
  tracker.observe_install(mask, frozen(before), q0);

  SplitFractions after = before;
  after[VertexPair::canonical(2, 3)][make_path(2, 3, {3})] = 1.0;
  EpochQuality q1;
  tracker.observe_install(mask, frozen(after), q1);
  EXPECT_NEAR(q1.weight_l1_drift, 1.0, 1e-12);
  EXPECT_EQ(q1.top_path_flips, 0u);
}

TEST(QualityTrackerTest, ShadowDueFollowsSamplingContract) {
  QualityOptions off;
  EXPECT_FALSE(QualityTracker(off).shadow_due(0));

  QualityOptions every2;
  every2.shadow_every = 2;
  const QualityTracker tracker(every2);
  EXPECT_TRUE(tracker.shadow_due(0));  // epoch 0 always sampled
  EXPECT_FALSE(tracker.shadow_due(1));
  EXPECT_TRUE(tracker.shadow_due(2));
  EXPECT_FALSE(tracker.shadow_due(3));
}

}  // namespace
}  // namespace sor::engine
