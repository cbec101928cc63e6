#include "engine/quality.hpp"

#include <cmath>
#include <span>
#include <tuple>
#include <utility>

#include "engine/controller.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace sor::engine {

namespace {

using serve::ServedPath;

// A pair's top path: its largest fraction, ties to the lexicographically
// smallest path. Rows are path-sorted, so the first strictly-larger
// fraction wins.
const Path& top_path(std::span<const ServedPath> rows) {
  const ServedPath* best = &rows.front();
  for (const ServedPath& row : rows) {
    if (row.fraction > best->fraction) best = &row;
  }
  return best->path;
}

double weight_sum(std::span<const ServedPath> rows) {
  double sum = 0;
  for (const ServedPath& row : rows) sum += row.fraction;
  return sum;
}

}  // namespace

void QualityTracker::observe_install(
    const PathActivation& activation,
    std::shared_ptr<const serve::RouteSnapshot> installed, EpochQuality& q) {
  SOR_CHECK(installed != nullptr);
  std::vector<ActivationFlag> flags = activation.flag_snapshot();

  if (prev_split_ != nullptr) {
    q.mask_churn = activation_hamming(prev_flags_, flags);

    // Merge the two tables' sorted pair lists: L1 drift over the union,
    // top-path flips over the intersection.
    const serve::RouteSnapshot& prev = *prev_split_;
    const serve::RouteSnapshot& next = *installed;
    std::size_t i = 0;
    std::size_t j = 0;
    const auto pair_key = [](const VertexPair& pair) {
      return std::tie(pair.a, pair.b);
    };
    while (i < prev.num_pairs() && j < next.num_pairs()) {
      const VertexPair x = prev.pair_at(i);
      const VertexPair y = next.pair_at(j);
      if (x == y) {
        // Both epochs installed this pair: row-level L1 over the union of
        // paths (both row lists are path-sorted).
        const std::span<const ServedPath> before = prev.rows_at(i);
        const std::span<const ServedPath> after = next.rows_at(j);
        std::size_t a = 0;
        std::size_t b = 0;
        while (a < before.size() && b < after.size()) {
          if (before[a].path == after[b].path) {
            q.weight_l1_drift +=
                std::abs(after[b].fraction - before[a].fraction);
            ++a;
            ++b;
          } else if (path_lexicographic_less(before[a].path, after[b].path)) {
            q.weight_l1_drift += before[a].fraction;
            ++a;
          } else {
            q.weight_l1_drift += after[b].fraction;
            ++b;
          }
        }
        for (; a < before.size(); ++a) q.weight_l1_drift += before[a].fraction;
        for (; b < after.size(); ++b) q.weight_l1_drift += after[b].fraction;
        if (!(top_path(before) == top_path(after))) ++q.top_path_flips;
        ++i;
        ++j;
      } else if (pair_key(x) < pair_key(y)) {
        q.weight_l1_drift += weight_sum(prev.rows_at(i++));
      } else {
        q.weight_l1_drift += weight_sum(next.rows_at(j++));
      }
    }
    for (; i < prev.num_pairs(); ++i) {
      q.weight_l1_drift += weight_sum(prev.rows_at(i));
    }
    for (; j < next.num_pairs(); ++j) {
      q.weight_l1_drift += weight_sum(next.rows_at(j));
    }
  }

  prev_flags_ = std::move(flags);
  prev_split_ = std::move(installed);
}

telemetry::JsonValue quality_to_json(const ControlLoopResult& result,
                                     const QualityOptions& options) {
  using telemetry::JsonValue;
  JsonValue quality = JsonValue::object();
  quality.set("shadow_every",
              static_cast<std::uint64_t>(options.shadow_every));
  quality.set("shadow_epsilon", options.shadow_epsilon);
  quality.set("epochs", static_cast<std::uint64_t>(result.epochs.size()));

  // Regret: parallel arrays over the sampled epochs only.
  JsonValue regret = JsonValue::object();
  JsonValue regret_epochs = JsonValue::array();
  JsonValue achieved = JsonValue::array();
  JsonValue shadow_opt = JsonValue::array();
  JsonValue lower_bound = JsonValue::array();
  JsonValue ratio = JsonValue::array();
  std::vector<double> ratios;
  std::uint64_t truncated = 0;
  for (const EpochReport& r : result.epochs) {
    if (!r.quality.shadow_sampled) continue;
    regret_epochs.push(static_cast<std::uint64_t>(r.epoch));
    achieved.push(r.congestion);
    shadow_opt.push(r.quality.shadow_opt);
    lower_bound.push(r.quality.shadow_lower_bound);
    ratio.push(r.quality.regret);
    ratios.push_back(r.quality.regret);
    if (r.quality.shadow_truncated) ++truncated;
  }
  quality.set("shadow_solves", static_cast<std::uint64_t>(ratios.size()));
  regret.set("epochs", std::move(regret_epochs));
  regret.set("achieved", std::move(achieved));
  regret.set("shadow_opt", std::move(shadow_opt));
  regret.set("lower_bound", std::move(lower_bound));
  regret.set("ratio", std::move(ratio));
  regret.set("truncated", truncated);
  const StatsSummary regret_summary = summarize(ratios);
  regret.set("p50", regret_summary.p50);
  regret.set("p95", regret_summary.p95);
  regret.set("max", regret_summary.max);
  quality.set("regret", std::move(regret));

  // Predictor: per-epoch arrays (full length; -1 / null sentinels on the
  // bootstrap epoch, which has no pending prediction to score).
  JsonValue predictor = JsonValue::object();
  JsonValue mape = JsonValue::array();
  JsonValue worst_error = JsonValue::array();
  JsonValue worst_pair = JsonValue::array();
  std::vector<double> mapes;
  for (const EpochReport& r : result.epochs) {
    mape.push(r.quality.predictor_mape);
    worst_error.push(r.quality.worst_pair_error);
    if (r.quality.predictor_mape < 0 ||
        r.quality.worst_src == kInvalidVertex) {
      worst_pair.push(JsonValue());
    } else {
      JsonValue pair = JsonValue::array();
      pair.push(static_cast<std::uint64_t>(r.quality.worst_src));
      pair.push(static_cast<std::uint64_t>(r.quality.worst_dst));
      worst_pair.push(std::move(pair));
    }
    if (r.quality.predictor_mape >= 0) {
      mapes.push_back(r.quality.predictor_mape);
    }
  }
  predictor.set("mape", std::move(mape));
  predictor.set("worst_pair_error", std::move(worst_error));
  predictor.set("worst_pair", std::move(worst_pair));
  const StatsSummary mape_summary = summarize(mapes);
  predictor.set("scored_epochs", static_cast<std::uint64_t>(mapes.size()));
  predictor.set("mape_mean", mape_summary.mean);
  predictor.set("mape_max", mape_summary.max);
  quality.set("predictor", std::move(predictor));

  // Churn: per-epoch stability series.
  JsonValue churn = JsonValue::object();
  JsonValue mask = JsonValue::array();
  JsonValue weight = JsonValue::array();
  JsonValue flips = JsonValue::array();
  std::uint64_t total_flips = 0;
  for (const EpochReport& r : result.epochs) {
    mask.push(static_cast<std::uint64_t>(r.quality.mask_churn));
    weight.push(r.quality.weight_l1_drift);
    flips.push(static_cast<std::uint64_t>(r.quality.top_path_flips));
    total_flips += r.quality.top_path_flips;
  }
  churn.set("mask_hamming", std::move(mask));
  churn.set("weight_l1", std::move(weight));
  churn.set("top_path_flips", std::move(flips));
  churn.set("total_top_path_flips", total_flips);
  quality.set("churn", std::move(churn));

  return quality;
}

}  // namespace sor::engine
