// Unit tests for src/lp: the dense two-phase simplex on hand-solvable LPs
// (optimal / infeasible / unbounded / degenerate) and the restricted-path
// min-congestion solvers, including exact-vs-MWU cross-validation.

#include <gtest/gtest.h>

#include "demand/generators.hpp"
#include "flow/mcf.hpp"
#include "graph/generators.hpp"
#include "graph/search.hpp"
#include "lp/path_lp.hpp"
#include "lp/simplex.hpp"
#include "oblivious/ksp.hpp"
#include "util/rng.hpp"

namespace sor {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6  → as minimization of -(x+y).
  // Optimum at intersection: x = 8/5, y = 6/5, value 14/5.
  LpProblem lp;
  lp.objective = {-1, -1};
  lp.constraints.push_back({{1, 2}, ConstraintSense::kLe, 4});
  lp.constraints.push_back({{3, 1}, ConstraintSense::kLe, 6});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, -14.0 / 5, 1e-8);
  EXPECT_NEAR(s.x[0], 8.0 / 5, 1e-8);
  EXPECT_NEAR(s.x[1], 6.0 / 5, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 3, x <= 1 → x = 1, y = 2, value 5.
  LpProblem lp;
  lp.objective = {1, 2};
  lp.constraints.push_back({{1, 1}, ConstraintSense::kEq, 3});
  lp.constraints.push_back({{1, 0}, ConstraintSense::kLe, 1});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 5.0, 1e-8);
}

TEST(Simplex, GreaterEqualConstraint) {
  // min 2x + 3y s.t. x + y >= 4, x - y <= 2 → best at y as small as the
  // constraints allow: x + y = 4 with x <= y + 2: x = 3, y = 1 → 9; or
  // x = 4, y = 0 violates x - y <= 2... wait 4 - 0 = 4 > 2. So x - y = 2,
  // x + y = 4 → x = 3, y = 1: value 9.
  LpProblem lp;
  lp.objective = {2, 3};
  lp.constraints.push_back({{1, 1}, ConstraintSense::kGe, 4});
  lp.constraints.push_back({{1, -1}, ConstraintSense::kLe, 2});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 9.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  LpProblem lp;
  lp.objective = {1};
  lp.constraints.push_back({{1}, ConstraintSense::kGe, 5});
  lp.constraints.push_back({{1}, ConstraintSense::kLe, 2});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x s.t. x >= 1 (x can grow forever).
  LpProblem lp;
  lp.objective = {-1};
  lp.constraints.push_back({{1}, ConstraintSense::kGe, 1});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x s.t. -x <= -3  (i.e. x >= 3).
  LpProblem lp;
  lp.objective = {1};
  lp.constraints.push_back({{-1}, ConstraintSense::kLe, -3});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-8);
}

TEST(Simplex, DegenerateInstanceTerminates) {
  // Classic degenerate LP (multiple constraints active at the origin).
  LpProblem lp;
  lp.objective = {-0.75, 150, -0.02, 6};
  lp.constraints.push_back({{0.25, -60, -0.04, 9}, ConstraintSense::kLe, 0});
  lp.constraints.push_back({{0.5, -90, -0.02, 3}, ConstraintSense::kLe, 0});
  lp.constraints.push_back({{0, 0, 1, 0}, ConstraintSense::kLe, 1});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, -0.05, 1e-7);  // Beale's example optimum
  // Beale's example pivots through degenerate bases; the introspection
  // counters must see them, and must be bounded by the total pivot count.
  EXPECT_GT(s.iterations, 0u);
  EXPECT_GT(s.degenerate_pivots, 0u);
  EXPECT_LE(s.degenerate_pivots, s.iterations);
}

TEST(Simplex, PivotCapReturnsIterLimitNotAnInfiniteLoop) {
  // A 1-pivot budget cannot even finish phase 1 of a >= constraint; the
  // solver must report the cap distinctly (kIterLimit, never kTruncated —
  // that status is reserved for deadline/cancel hooks) with no solution.
  LpProblem lp;
  lp.objective = {2, 3};
  lp.constraints.push_back({{1, 1}, ConstraintSense::kGe, 4});
  lp.constraints.push_back({{1, -1}, ConstraintSense::kLe, 2});
  const LpSolution s = solve_lp(lp, 1);
  EXPECT_EQ(s.status, LpStatus::kIterLimit);
  EXPECT_TRUE(s.x.empty());
  EXPECT_LE(s.iterations, 2u);  // at most one pivot per phase attempted
}

TEST(Simplex, ZeroMaxIterationsMeansAutoBoundNotZeroPivots) {
  // max_iterations = 0 is the documented "pick a safe cap" sentinel; a
  // plain LP must still solve to optimality under it.
  LpProblem lp;
  lp.objective = {-1, -1};
  lp.constraints.push_back({{1, 2}, ConstraintSense::kLe, 4});
  lp.constraints.push_back({{3, 1}, ConstraintSense::kLe, 6});
  const LpSolution s = solve_lp(lp, 0);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_GT(s.iterations, 0u);
}

TEST(Simplex, RedundantEqualities) {
  // x + y = 2 listed twice; min x → x = 0, y = 2.
  LpProblem lp;
  lp.objective = {1, 0};
  lp.constraints.push_back({{1, 1}, ConstraintSense::kEq, 2});
  lp.constraints.push_back({{1, 1}, ConstraintSense::kEq, 2});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 0.0, 1e-8);
}

// ---------------------------------------------------------------------
// Restricted-path LP
// ---------------------------------------------------------------------

RestrictedProblem diamond_problem(const Graph& g, double demand) {
  // Two disjoint 2-hop paths 0→3.
  RestrictedProblem problem;
  problem.graph = &g;
  RestrictedCommodity c;
  c.demand = demand;
  c.candidates.push_back(Path{0, 3, {0, 2}});  // via vertex 1
  c.candidates.push_back(Path{0, 3, {1, 3}});  // via vertex 2
  problem.commodities.push_back(std::move(c));
  return problem;
}

Graph diamond() {
  Graph g(4);
  g.add_edge(0, 1);  // e0
  g.add_edge(0, 2);  // e1
  g.add_edge(1, 3);  // e2
  g.add_edge(2, 3);  // e3
  return g;
}

TEST(RestrictedExact, SplitsEvenly) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  const RestrictedSolution s = solve_restricted_exact(problem);
  EXPECT_NEAR(s.congestion, 0.5, 1e-8);
  EXPECT_NEAR(s.weights[0][0] + s.weights[0][1], 1.0, 1e-8);
  EXPECT_NEAR(s.weights[0][0], 0.5, 1e-6);
  EXPECT_NEAR(s.lower_bound, s.congestion, 1e-6);
}

TEST(RestrictedExact, SinglePathForced) {
  const Graph g = diamond();
  RestrictedProblem problem;
  problem.graph = &g;
  RestrictedCommodity c;
  c.demand = 3.0;
  c.candidates.push_back(Path{0, 3, {0, 2}});
  problem.commodities.push_back(std::move(c));
  const RestrictedSolution s = solve_restricted_exact(problem);
  EXPECT_NEAR(s.congestion, 3.0, 1e-8);
}

TEST(RestrictedExact, TwoCommoditiesShareEdge) {
  // Path graph 0-1-2; commodity A: 0→2 (only path through both edges),
  // commodity B: 0→1. Congestion on edge (0,1) = dA + dB.
  Graph g(3);
  g.add_edge(0, 1);  // e0
  g.add_edge(1, 2);  // e1
  RestrictedProblem problem;
  problem.graph = &g;
  {
    RestrictedCommodity a;
    a.demand = 1.0;
    a.candidates.push_back(Path{0, 2, {0, 1}});
    problem.commodities.push_back(a);
  }
  {
    RestrictedCommodity b;
    b.demand = 2.0;
    b.candidates.push_back(Path{0, 1, {0}});
    problem.commodities.push_back(b);
  }
  const RestrictedSolution s = solve_restricted_exact(problem);
  EXPECT_NEAR(s.congestion, 3.0, 1e-8);
}

TEST(RestrictedExact, RespectsCapacities) {
  // Diamond with one fat route: capacities 4 on path A, 1 on path B.
  Graph g(4);
  g.add_edge(0, 1, 4.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 4.0);
  g.add_edge(2, 3, 1.0);
  const RestrictedProblem problem = diamond_problem(g, 5.0);
  const RestrictedSolution s = solve_restricted_exact(problem);
  // Optimal: 4 on the fat path, 1 on the thin → congestion 1.
  EXPECT_NEAR(s.congestion, 1.0, 1e-6);
}

TEST(RestrictedMwu, MatchesExactOnDiamond) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  RestrictedMwuOptions options;
  options.epsilon = 0.05;
  const RestrictedSolution s = solve_restricted_mwu(problem, options);
  EXPECT_NEAR(s.congestion, 0.5, 0.5 * 0.06);
  EXPECT_LE(s.lower_bound, 0.5 + 1e-9);
}

TEST(RestrictedMwu, AgreesWithMcfWhenEachPairHasOnePath) {
  // On a tree each pair has exactly one simple path, so the restricted
  // MWU over that path and the all-paths MCF take the same steps; only
  // the summation order of their dual numerators differs.
  Graph g(6);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 3, 3.0);
  g.add_edge(3, 4, 1.5);
  g.add_edge(3, 5, 1.0);
  const std::vector<Commodity> commodities = {
      {0, 4, 1.0}, {2, 5, 0.7}, {5, 0, 1.3}, {4, 2, 0.4}};
  RestrictedProblem problem;
  problem.graph = &g;
  const std::vector<double> unit(g.num_edges(), 1.0);
  for (const Commodity& c : commodities) {
    RestrictedCommodity rc;
    rc.demand = c.amount;
    rc.candidates.push_back(dijkstra(g, c.src, unit).extract_path(g, c.dst));
    problem.commodities.push_back(std::move(rc));
  }
  const RestrictedSolution mwu = solve_restricted_mwu(problem);
  const McfResult mcf = min_congestion_routing(g, commodities);
  EXPECT_GT(mcf.phases, 1u);
  EXPECT_EQ(mwu.phases, mcf.phases);
  EXPECT_NEAR(mwu.congestion, mcf.congestion, 1e-12 * mcf.congestion);
  EXPECT_NEAR(mwu.lower_bound, mcf.lower_bound, 1e-12 * mcf.lower_bound);
}

TEST(RestrictedMwu, CrossValidatesWithExactOnSampledSystems) {
  // Random KSP path systems on a torus; exact and MWU must agree to 1+ε.
  const Graph g = make_torus(4, 4);
  const KspRouting ksp(g, 3);
  Rng rng(7);
  const Demand demand = random_permutation_demand(g, rng);

  RestrictedProblem problem;
  problem.graph = &g;
  for (const Commodity& c : demand.commodities()) {
    RestrictedCommodity rc;
    rc.demand = c.amount;
    for (const Path& p : ksp.candidates(c.src, c.dst)) {
      rc.candidates.push_back(p.src == c.src ? p : Path{
          p.dst, p.src, {p.edges.rbegin(), p.edges.rend()}});
    }
    problem.commodities.push_back(std::move(rc));
  }

  const RestrictedSolution exact = solve_restricted_exact(problem);
  RestrictedMwuOptions options;
  options.epsilon = 0.05;
  const RestrictedSolution mwu = solve_restricted_mwu(problem, options);
  EXPECT_LE(exact.congestion, mwu.congestion + 1e-6);
  EXPECT_LE(mwu.congestion, exact.congestion * (1 + options.epsilon) + 1e-6);
  // Both lower bounds are genuine lower bounds on the same optimum.
  EXPECT_LE(exact.lower_bound, exact.congestion + 1e-6);
  EXPECT_LE(mwu.lower_bound, exact.congestion + 1e-6);
}

TEST(RestrictedWarm, RepeatSolveIsAcceptedWithoutPhases) {
  // Warm-starting from a solution of the *same* problem must short-circuit:
  // the accept test re-checks exactly the MWU stopping condition.
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  RestrictedMwuOptions options;
  options.epsilon = 0.05;
  const RestrictedSolution cold = solve_restricted_mwu(problem, options);
  ASSERT_FALSE(cold.dual_lengths.empty());
  EXPECT_FALSE(cold.warm_accepted);
  EXPECT_GE(cold.phases, 1u);

  RestrictedWarmStart warm;
  warm.fractions = cold.weights;  // renormalized internally
  warm.lengths = cold.dual_lengths;
  options.warm = &warm;
  const RestrictedSolution rerun = solve_restricted_mwu(problem, options);
  EXPECT_TRUE(rerun.warm_accepted);
  EXPECT_EQ(rerun.phases, 0u);
  EXPECT_NEAR(rerun.congestion, cold.congestion, 1e-9);
  EXPECT_LE(rerun.congestion,
            (1 + options.epsilon) * rerun.lower_bound + 1e-9);
}

TEST(RestrictedWarm, DualBoundIsSoundAndScaleInvariant) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  // Optimum is 0.5; ANY positive length vector must lower-bound it.
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> lengths(g.num_edges());
    for (double& l : lengths) l = 0.01 + rng.next_double();
    const double bound = restricted_dual_bound(problem, lengths);
    EXPECT_LE(bound, 0.5 + 1e-9);
    std::vector<double> scaled = lengths;
    for (double& l : scaled) l *= 1000.0;
    EXPECT_NEAR(restricted_dual_bound(problem, scaled), bound, 1e-9);
  }
  // The uniform vector is exactly tight on the symmetric diamond.
  const std::vector<double> uniform(g.num_edges(), 1.0);
  EXPECT_NEAR(restricted_dual_bound(problem, uniform), 0.5, 1e-12);
}

TEST(RestrictedWarm, RouteFractionsAppliesTheSplit) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  const RestrictedSolution one_path =
      route_restricted_fractions(problem, {{1.0, 0.0}});
  EXPECT_NEAR(one_path.congestion, 1.0, 1e-12);
  const RestrictedSolution even =
      route_restricted_fractions(problem, {{0.5, 0.5}});
  EXPECT_NEAR(even.congestion, 0.5, 1e-12);
  // All-zero fractions fall back to a uniform split.
  const RestrictedSolution uniform =
      route_restricted_fractions(problem, {{0.0, 0.0}});
  EXPECT_NEAR(uniform.congestion, 0.5, 1e-12);
  // Unnormalized fractions are renormalized per commodity.
  const RestrictedSolution scaled =
      route_restricted_fractions(problem, {{2.0, 2.0}});
  EXPECT_NEAR(scaled.congestion, 0.5, 1e-12);
}

TEST(RestrictedWarm, StaleWarmStartCostsPhasesNotCorrectness) {
  // A lopsided warm split (congestion 1.0 vs optimum 0.5) fails the
  // accept test and the MWU re-solves from the warm lengths — landing on
  // the same (1+ε) guarantee as a cold solve.
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  RestrictedWarmStart warm;
  warm.fractions = {{1.0, 0.0}};
  warm.lengths.assign(g.num_edges(), 1.0);
  RestrictedMwuOptions options;
  options.epsilon = 0.05;
  options.warm = &warm;
  const RestrictedSolution s = solve_restricted_mwu(problem, options);
  EXPECT_FALSE(s.warm_accepted);
  EXPECT_GE(s.phases, 1u);
  EXPECT_NEAR(s.congestion, 0.5, 0.5 * 0.06);
}

TEST(RestrictedValidate, RejectsMalformedProblems) {
  const Graph g = diamond();
  {
    RestrictedProblem p;
    p.graph = &g;
    RestrictedCommodity c;
    c.demand = 0;  // zero demand
    c.candidates.push_back(Path{0, 3, {0, 2}});
    p.commodities.push_back(c);
    EXPECT_THROW(validate_restricted_problem(p), CheckError);
  }
  {
    RestrictedProblem p;
    p.graph = &g;
    RestrictedCommodity c;
    c.demand = 1;  // no candidates
    p.commodities.push_back(c);
    EXPECT_THROW(validate_restricted_problem(p), CheckError);
  }
  {
    RestrictedProblem p;
    p.graph = &g;
    RestrictedCommodity c;
    c.demand = 1;
    c.candidates.push_back(Path{0, 3, {0, 2}});
    c.candidates.push_back(Path{0, 1, {0}});  // endpoint mismatch
    p.commodities.push_back(c);
    EXPECT_THROW(validate_restricted_problem(p), CheckError);
  }
}

TEST(RestrictedExact, WeightsCoverDemand) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 7.0);
  const RestrictedSolution s = solve_restricted_exact(problem);
  double total = 0;
  for (double w : s.weights[0]) total += w;
  EXPECT_NEAR(total, 7.0, 1e-6);
}

}  // namespace
}  // namespace sor
