// Unit tests for src/demand: the sparse demand matrix and the workload
// generators (permutation / hypercube-adversarial / gravity / etc).

#include <gtest/gtest.h>

#include <cmath>

#include "demand/demand.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"

namespace sor {
namespace {

TEST(Demand, AccumulatesUnorderedPairs) {
  Demand d;
  d.add(3, 1, 2.0);
  d.add(1, 3, 0.5);
  EXPECT_DOUBLE_EQ(d.at(1, 3), 2.5);
  EXPECT_DOUBLE_EQ(d.at(3, 1), 2.5);
  EXPECT_EQ(d.support_size(), 1u);
  EXPECT_DOUBLE_EQ(d.total(), 2.5);
  EXPECT_DOUBLE_EQ(d.max_entry(), 2.5);
}

TEST(Demand, ZeroAddIsNoop) {
  Demand d;
  d.add(0, 1, 0.0);
  EXPECT_TRUE(d.empty());
  EXPECT_DOUBLE_EQ(d.at(0, 1), 0.0);
}

TEST(Demand, RejectsInvalidEntries) {
  Demand d;
  EXPECT_THROW(d.add(2, 2, 1.0), CheckError);
  EXPECT_THROW(d.add(0, 1, -1.0), CheckError);
}

TEST(Demand, ScaleAndSum) {
  Demand a;
  a.add(0, 1, 1.0);
  a.add(1, 2, 2.0);
  Demand b;
  b.add(1, 2, 3.0);
  b.add(4, 5, 1.0);
  const Demand s = Demand::sum(a, b);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(s.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(s.at(4, 5), 1.0);

  Demand c = a;
  c.scale(2.0);
  EXPECT_DOUBLE_EQ(c.at(1, 2), 4.0);
  EXPECT_THROW(c.scale(0.0), CheckError);
}

TEST(Demand, CommoditiesSortedAndComplete) {
  Demand d;
  d.add(5, 2, 1.0);
  d.add(0, 9, 2.0);
  d.add(1, 3, 3.0);
  const auto commodities = d.commodities();
  ASSERT_EQ(commodities.size(), 3u);
  EXPECT_LE(commodities[0].src, commodities[1].src);
  double total = 0;
  for (const Commodity& c : commodities) {
    EXPECT_LT(c.src, c.dst);  // canonical order
    total += c.amount;
  }
  EXPECT_DOUBLE_EQ(total, d.total());
}

TEST(Demand, IntegralityAndOneDemandChecks) {
  Demand d;
  d.add(0, 1, 2.0);
  EXPECT_TRUE(d.is_integral());
  EXPECT_FALSE(d.is_one_demand());
  Demand e;
  e.add(0, 1, 0.5);
  EXPECT_FALSE(e.is_integral());
  EXPECT_TRUE(e.is_one_demand());
}

TEST(Generators, RandomPermutationIsPermutationLike) {
  const Graph g = make_hypercube(5);
  Rng rng(9);
  const Demand d = random_permutation_demand(g, rng);
  EXPECT_GT(d.support_size(), 0u);
  // Each vertex participates in at most 2 pairs worth of demand
  // (v→π(v) and π⁻¹(v)→v), so per-vertex incident demand <= 2.
  std::vector<double> incident(g.num_vertices(), 0);
  for (const Commodity& c : d.commodities()) {
    incident[c.src] += c.amount;
    incident[c.dst] += c.amount;
  }
  for (double x : incident) EXPECT_LE(x, 2.0 + 1e-9);
  EXPECT_TRUE(d.is_integral());
}

TEST(Generators, PermutationOverSubset) {
  const Graph g = make_grid(4, 4);
  const std::vector<Vertex> endpoints{0, 3, 12, 15};
  Rng rng(17);
  const Demand d = random_permutation_demand(endpoints, rng);
  for (const Commodity& c : d.commodities()) {
    EXPECT_TRUE(std::count(endpoints.begin(), endpoints.end(), c.src) == 1);
    EXPECT_TRUE(std::count(endpoints.begin(), endpoints.end(), c.dst) == 1);
  }
}

TEST(Generators, BitComplement) {
  const Demand d = bit_complement_demand(4);
  // 16 vertices pair up into 8 antipodal pairs, each of weight 2.
  EXPECT_EQ(d.support_size(), 8u);
  EXPECT_DOUBLE_EQ(d.at(0, 15), 2.0);
  EXPECT_DOUBLE_EQ(d.at(5, 10), 2.0);
  EXPECT_DOUBLE_EQ(d.total(), 16.0);
}

TEST(Generators, BitReversal) {
  const Demand d = bit_reversal_demand(4);
  // 0b0001 ↔ 0b1000.
  EXPECT_DOUBLE_EQ(d.at(1, 8), 2.0);
  // Palindromic addresses (0b0000, 0b0110, ...) are fixed points: absent.
  EXPECT_DOUBLE_EQ(d.at(0, 0 ^ 1) + 0, d.at(0, 1));  // no demand at (0,*)
  for (const Commodity& c : d.commodities()) {
    EXPECT_NE(c.src, c.dst);
  }
}

TEST(Generators, TransposeSwapsHalves) {
  const Demand d = transpose_demand(4);
  // v = 0b0111 (lo=3, hi=1) ↔ 0b1101 (lo=1... wait lo=0b11=3 hi=0b01=1 →
  // transposed = (3 << 2) | 1 = 0b1101 = 13.
  EXPECT_DOUBLE_EQ(d.at(7, 13), 2.0);
  EXPECT_THROW(transpose_demand(5), CheckError);  // odd dimension
}

TEST(Generators, UniformRandomPairs) {
  const Graph g = make_grid(5, 5);
  Rng rng(3);
  const Demand d = uniform_random_pairs(g, 40, 0.5, rng);
  EXPECT_DOUBLE_EQ(d.total(), 20.0);
  for (const Commodity& c : d.commodities()) {
    EXPECT_NE(c.src, c.dst);
    EXPECT_LT(c.dst, g.num_vertices());
  }
}

TEST(Generators, GravityNormalizesTotal) {
  const WanTopology wan = make_abilene();
  const Demand d = gravity_demand(wan.graph, 100.0);
  EXPECT_NEAR(d.total(), 100.0, 1e-9);
  // Gravity weights scale with incident capacity: the largest entries
  // involve high-degree hubs.
  EXPECT_GT(d.support_size(), 40u);
}

TEST(Generators, GravityIsExactUnderPowerOfTwoCapacityScaling) {
  // Capacities near the top of the double range once overflowed the
  // masses into a NaN demand. Scaling every capacity by a power of two
  // must leave the matrix bit-identical.
  const WanTopology wan = make_abilene();
  Graph big(wan.graph.num_vertices());
  for (const Edge& e : wan.graph.edges()) {
    big.add_edge(e.u, e.v, std::ldexp(e.capacity, 900));
  }
  const Demand base = gravity_demand(wan.graph, 100.0);
  const Demand scaled = gravity_demand(big, 100.0);
  ASSERT_EQ(scaled.support_size(), base.support_size());
  for (const Commodity& c : base.commodities()) {
    EXPECT_EQ(scaled.at(c.src, c.dst), c.amount);
  }
  Graph triangle(3);
  for (Vertex v = 0; v < 3; ++v) triangle.add_edge(v, (v + 1) % 3, 1e308);
  const Demand even = gravity_demand(triangle, 3.0);
  EXPECT_EQ(even.support_size(), 3u);
  for (const Commodity& c : even.commodities()) {
    EXPECT_DOUBLE_EQ(c.amount, 1.0);
  }
}

TEST(Generators, GravityOverEndpointsOnly) {
  const Graph g = make_fat_tree(4);
  const auto hosts = fat_tree_edge_switches(4);
  const Demand d = gravity_demand(g, hosts, 10.0);
  EXPECT_NEAR(d.total(), 10.0, 1e-9);
  for (const Commodity& c : d.commodities()) {
    EXPECT_EQ(std::count(hosts.begin(), hosts.end(), c.src), 1);
    EXPECT_EQ(std::count(hosts.begin(), hosts.end(), c.dst), 1);
  }
}

TEST(Generators, PerturbedGravityStaysPositiveAndVaries) {
  const WanTopology wan = make_b4();
  Rng rng(5);
  const auto verts = all_vertices(wan.graph);
  const Demand base = gravity_demand(wan.graph, verts, 50.0);
  const Demand noisy =
      perturbed_gravity_demand(wan.graph, verts, 50.0, 0.4, rng);
  EXPECT_EQ(noisy.support_size(), base.support_size());
  bool differs = false;
  for (const Commodity& c : base.commodities()) {
    const double v = noisy.at(c.src, c.dst);
    EXPECT_GT(v, 0.0);
    if (std::abs(v - c.amount) > 1e-6) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Generators, AllToAll) {
  const std::vector<Vertex> endpoints{0, 1, 2, 3};
  const Demand d = all_to_all_demand(endpoints, 2.0);
  EXPECT_EQ(d.support_size(), 6u);
  EXPECT_DOUBLE_EQ(d.total(), 12.0);
}

}  // namespace
}  // namespace sor
