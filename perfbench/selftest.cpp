// te_bench_selftest — plants a wrong output for each benchmark check and
// requires the check to count it as failed; the matching correct output
// must pass. Exit code 0 when every check behaves, 1 otherwise.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

int g_failures = 0;

void expect(bool condition, const std::string& what) {
  std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
  if (!condition) ++g_failures;
}

}  // namespace

int main() {
  using sor::Path;
  using sor::serve::RouteSnapshot;
  using sor::serve::ServedPath;

  // A 4-cycle 0-1-2-3-0 with unit capacities plus a chord 0-2 of capacity 2.
  sor::Graph g(4);
  g.add_edge(0, 1);     // e0
  g.add_edge(1, 2);     // e1
  g.add_edge(2, 3);     // e2
  g.add_edge(3, 0);     // e3
  g.add_edge(0, 2, 2);  // e4
  const std::vector<char> all_alive(g.num_edges(), 1);

  const Path via1{0, 2, {0, 1}};
  const Path via3{0, 2, {3, 2}};
  const Path chord{0, 2, {4}};

  // Fractions: >= 0 and summing to 1 within 1e-9.
  expect(perfbench::fractions_ok(std::vector<ServedPath>{{via1, 0.5}, {via3, 0.5}}),
         "fractions summing to 1 pass");
  expect(!perfbench::fractions_ok(
             std::vector<ServedPath>{{via1, 0.5}, {via3, 0.5 + 1e-6}}),
         "fraction sum off by 1e-6 fails");
  expect(!perfbench::fractions_ok(
             std::vector<ServedPath>{{via1, 1.25}, {via3, -0.25}}),
         "negative fraction fails");

  // Paths: simple s-t walks over live links.
  expect(perfbench::path_ok(g, via1, 2, 0, all_alive), "live simple path passes");
  std::vector<char> e1_down = all_alive;
  e1_down[1] = 0;
  expect(!perfbench::path_ok(g, via1, 0, 2, e1_down),
         "path over a failed link fails");
  expect(!perfbench::path_ok(g, Path{0, 2, {0, 2}}, 0, 2, all_alive),
         "broken walk fails");
  expect(!perfbench::path_ok(g, Path{0, 0, {0, 1, 4}}, 0, 0, all_alive),
         "walk revisiting a vertex fails");
  expect(!perfbench::path_ok(g, via1, 0, 3, all_alive),
         "path to the wrong endpoint fails");

  sor::SplitFractions split;
  split[sor::VertexPair{0, 2}][via1] = 0.25;
  split[sor::VertexPair{0, 2}][chord] = 0.75;
  split[sor::VertexPair{0, 1}][Path{0, 1, {0}}] = 1.0;
  const RouteSnapshot snap = RouteSnapshot::build(7, split);
  const std::vector<sor::VertexPair> pairs{{0, 1}, {0, 2}};
  expect(perfbench::bad_snapshot_pairs(g, snap, pairs, all_alive) == 0,
         "valid snapshot has no bad pairs");
  expect(perfbench::bad_snapshot_pairs(g, snap, pairs, e1_down) == 1,
         "snapshot path over a failed link is counted");
  const std::vector<sor::VertexPair> missing{{1, 3}};
  expect(perfbench::bad_snapshot_pairs(g, snap, missing, all_alive) == 1,
         "pair missing from the snapshot is counted");

  // Congestion recomputed from the snapshot: demand 4 on {0,2}, 1 on {0,1}.
  // Loads: e0 = 1 + 1, e1 = 1, e4 = 3 (capacity 2) -> max(2, 1, 1.5) = 2.
  sor::Demand demand;
  demand.add(0, 2, 4);
  demand.add(1, 0, 1);
  const double recomputed = perfbench::snapshot_congestion(g, snap, demand);
  expect(std::abs(recomputed - 2.0) < 1e-12, "snapshot congestion recomputed");
  expect(perfbench::congestion_matches(2.0, recomputed),
         "matching congestion passes");
  expect(!perfbench::congestion_matches(2.0 * (1 + 1e-6), recomputed),
         "congestion off by 1e-6 relative fails");
  sor::Demand stray;
  stray.add(1, 3, 1);
  expect(!perfbench::congestion_matches(
             0, perfbench::snapshot_congestion(g, snap, stray)),
         "demand pair the snapshot lacks fails");

  // Volume bound: (4·1 + 1·1) / (1+1+1+1+2) = 5/6 with every link up; with
  // e4 down, {0,2} needs 2 hops: (8 + 1) / 4.
  expect(std::abs(perfbench::volume_bound(g, all_alive, demand) - 5.0 / 6.0) <
             1e-12,
         "volume bound over all links");
  std::vector<char> chord_down = all_alive;
  chord_down[4] = 0;
  expect(std::abs(perfbench::volume_bound(g, chord_down, demand) - 9.0 / 4.0) <
             1e-12,
         "volume bound over surviving links");
  expect(perfbench::above_volume_bound(2.0, 5.0 / 6.0),
         "congestion above the volume bound passes");
  expect(!perfbench::above_volume_bound(2.0, 9.0 / 4.0),
         "congestion below the volume bound fails");

  // Solver certificate: lower <= congestion <= (1+eps)·lower.
  expect(perfbench::certificate_ok(1.0, 1.049, 0.05), "gap within 1+eps passes");
  expect(!perfbench::certificate_ok(1.0, 1.051, 0.05), "gap above 1+eps fails");
  expect(!perfbench::certificate_ok(1.1, 1.0, 0.05),
         "lower bound above congestion fails");
  expect(!perfbench::certificate_ok(0.0, 1.0, 0.05), "zero lower bound fails");

  // Torn (epoch, digest) pairs.
  const perfbench::PublishedSet published{{7, snap.digest()}};
  expect(perfbench::was_published(published, 7, snap.digest()),
         "published (epoch, digest) passes");
  expect(!perfbench::was_published(published, 7, snap.digest() ^ 1),
         "torn (epoch, digest) fails");
  expect(!perfbench::was_published(published, 8, snap.digest()),
         "digest under another epoch fails");

  std::cout << (g_failures == 0 ? "selftest: all checks behave\n"
                                : "selftest: some checks misbehave\n");
  return g_failures == 0 ? 0 : 1;
}
