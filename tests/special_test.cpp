// Tests for the special-demand machinery (Definition 5.5 / Lemma 5.9):
// the specialness predicate, the power-of-two bucketing reduction, and
// its end-to-end use for routing general demands. Plus demand file I/O
// and the new topology generators.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/router.hpp"
#include "core/sampler.hpp"
#include "core/special.hpp"
#include "demand/generators.hpp"
#include "demand/io.hpp"
#include "graph/generators.hpp"
#include "graph/search.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/valiant.hpp"

namespace sor {
namespace {

PathSystem two_pair_system(const Graph& g) {
  PathSystem ps;
  ps.add(shortest_path_hops(g, 0, 5));
  ps.add(shortest_path_hops(g, 0, 5));  // duplicate: |P| = 2 for (0,5)
  ps.add(shortest_path_hops(g, 1, 6));  // |P| = 1 for (1,6)
  return ps;
}

TEST(SpecialDemand, PredicateChecksUniformRatio) {
  const Graph g = make_grid(3, 3);
  const PathSystem ps = two_pair_system(g);
  Demand special;
  special.add(0, 5, 2.0);  // ratio 2/2 = 1
  special.add(1, 6, 1.0);  // ratio 1/1 = 1
  EXPECT_TRUE(is_special_demand(special, ps));

  Demand not_special;
  not_special.add(0, 5, 2.0);  // ratio 1
  not_special.add(1, 6, 3.0);  // ratio 3
  EXPECT_FALSE(is_special_demand(not_special, ps));

  EXPECT_TRUE(is_special_demand(Demand{}, ps));  // vacuous
}

TEST(SpecialDemand, PredicateThrowsOnUncoveredPair) {
  const Graph g = make_grid(3, 3);
  const PathSystem ps = two_pair_system(g);
  Demand d;
  d.add(2, 7, 1.0);  // not in the system
  EXPECT_THROW(is_special_demand(d, ps), CheckError);
}

TEST(SpecialBucketing, SplitsByPowerOfTwoRatios) {
  const Graph g = make_grid(3, 3);
  const PathSystem ps = two_pair_system(g);
  Demand d;
  d.add(0, 5, 1.0);  // ratio 0.5 → bucket [-1], ceiling 1
  d.add(1, 6, 5.0);  // ratio 5   → bucket [2],  ceiling 8
  const auto buckets = split_into_special(d, ps);
  ASSERT_EQ(buckets.size(), 2u);
  for (const SpecialBucket& bucket : buckets) {
    EXPECT_TRUE(is_special_demand(bucket.demand, ps));
    // Rounded up by at most 2×.
    for (const Commodity& c : bucket.demand.commodities()) {
      const double original = d.at(c.src, c.dst);
      EXPECT_GE(c.amount + 1e-9, original);
      EXPECT_LE(c.amount, 2 * original + 1e-9);
    }
  }
}

TEST(SpecialBucketing, SameRatioPairsShareOneBucket) {
  const Graph g = make_grid(3, 3);
  PathSystem ps;
  ps.add(shortest_path_hops(g, 0, 8));
  ps.add(shortest_path_hops(g, 2, 6));
  Demand d;
  d.add(0, 8, 3.0);
  d.add(2, 6, 3.0);
  const auto buckets = split_into_special(d, ps);
  EXPECT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].demand.support_size(), 2u);
}

TEST(SpecialBucketing, BucketCountIsLogarithmic) {
  // Ratios spanning 2^0..2^10 → at most 11-ish buckets.
  const Graph g = make_complete(24);
  PathSystem ps;
  Demand d;
  for (Vertex v = 1; v < 12; ++v) {
    ps.add(shortest_path_hops(g, 0, v));
    d.add(0, v, std::ldexp(1.0, static_cast<int>(v % 11)));
  }
  const auto buckets = split_into_special(d, ps);
  EXPECT_LE(buckets.size(), 11u);
  EXPECT_GE(buckets.size(), 2u);
}

TEST(SpecialBucketing, RouteViaBucketsCoversDemandWithBoundedLoss) {
  // End-to-end Lemma 5.9: route each bucket with the LP; the combined
  // load routes a dominating demand, with congestion <= Σ buckets <=
  // (#buckets)·max-bucket — and since rounding is <= 2×, the whole thing
  // is within 2·#buckets of the direct LP.
  const std::uint32_t d = 4;
  const Graph g = make_hypercube(d);
  const ValiantHypercube routing(g, d);
  Rng rng(3);
  Demand demand;
  // Wildly varying entries to force several buckets.
  for (int i = 0; i < 10; ++i) {
    Vertex a = 0, b = 0;
    while (a == b) {
      a = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
      b = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
    }
    demand.add(a, b, std::ldexp(1.0, i % 5));
  }
  SampleOptions sample;
  sample.k = 4;
  const PathSystem ps =
      sample_path_system_for_demand(routing, demand, sample, 5);

  RouterOptions opts;
  opts.backend = LpBackend::kExact;
  const SemiObliviousRouter router(g, ps, opts);
  const double direct = router.route_fractional(demand).congestion;

  std::size_t buckets_seen = 0;
  const EdgeLoad combined = route_via_special_buckets(
      g, demand, ps, [&](const SpecialBucket& bucket) {
        ++buckets_seen;
        return router.route_fractional(bucket.demand).load;
      });
  const double bucketed = max_congestion(g, combined);
  EXPECT_GE(buckets_seen, 2u);
  EXPECT_GE(bucketed + 1e-9, direct);  // routes MORE demand
  EXPECT_LE(bucketed, 2.0 * static_cast<double>(buckets_seen) * direct + 1e-9);
}

TEST(DemandIo, RoundTrips) {
  Demand d;
  d.add(3, 7, 1.5);
  d.add(0, 2, 4.0);
  std::stringstream buffer;
  write_demand(d, buffer);
  const Demand loaded = read_demand(buffer);
  EXPECT_EQ(loaded.support_size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.at(3, 7), 1.5);
  EXPECT_DOUBLE_EQ(loaded.at(0, 2), 4.0);
}

TEST(DemandIo, SkipsCommentsRejectsGarbage) {
  std::stringstream good("# header\n1 2 3.5\n\n4 5 1\n");
  const Demand d = read_demand(good);
  EXPECT_EQ(d.support_size(), 2u);
  std::stringstream bad("1 2\n");
  EXPECT_THROW(read_demand(bad), CheckError);
  // The amount field is read whole: "2x" is not an amount of 2.
  for (const char* amount : {"2x", "nan", "inf", "-1"}) {
    std::stringstream row(std::string("1 2 3\n4 5 ") + amount + "\n");
    try {
      read_demand(row);
      ADD_FAILURE() << "accepted amount " << amount;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Generators, Ring) {
  const Graph g = make_ring(8);
  EXPECT_EQ(g.num_edges(), 8u);
  for (Vertex v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_EQ(hop_diameter(g), 4u);
}

TEST(Generators, BinaryTree) {
  const Graph g = make_binary_tree(4);
  EXPECT_EQ(g.num_vertices(), 15u);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(0), 2u);   // root
  EXPECT_EQ(g.degree(14), 1u);  // a leaf
  EXPECT_EQ(hop_diameter(g), 6u);
}

TEST(Generators, RandomGeometric) {
  const Graph g = make_random_geometric(50, 0.35, 7);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.num_vertices(), 50u);
  // Deterministic in the seed.
  const Graph h = make_random_geometric(50, 0.35, 7);
  EXPECT_EQ(g.num_edges(), h.num_edges());
}

}  // namespace
}  // namespace sor
