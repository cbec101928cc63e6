#include "demand/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sor {

Demand random_permutation_demand(const Graph& g, Rng& rng) {
  const std::vector<Vertex> verts = all_vertices(g);
  return random_permutation_demand(verts, rng);
}

Demand random_permutation_demand(std::span<const Vertex> endpoints,
                                 Rng& rng) {
  SOR_CHECK(endpoints.size() >= 2);
  const std::vector<std::uint32_t> perm = rng.permutation(endpoints.size());
  Demand d;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    if (perm[i] != i) d.add(endpoints[i], endpoints[perm[i]], 1.0);
  }
  return d;
}

Demand bit_complement_demand(std::uint32_t dimension) {
  SOR_CHECK(dimension >= 1 && dimension <= 24);
  const std::uint32_t n = 1u << dimension;
  const std::uint32_t mask = n - 1;
  Demand d;
  for (Vertex v = 0; v < n; ++v) {
    const Vertex u = (~v) & mask;
    if (v < u) d.add(v, u, 2.0);  // both directions of the permutation
  }
  return d;
}

namespace {
std::uint32_t reverse_bits(std::uint32_t v, std::uint32_t dimension) {
  std::uint32_t out = 0;
  for (std::uint32_t b = 0; b < dimension; ++b) {
    out |= ((v >> b) & 1u) << (dimension - 1 - b);
  }
  return out;
}
}  // namespace

Demand bit_reversal_demand(std::uint32_t dimension) {
  SOR_CHECK(dimension >= 1 && dimension <= 24);
  const std::uint32_t n = 1u << dimension;
  Demand d;
  for (Vertex v = 0; v < n; ++v) {
    const Vertex u = reverse_bits(v, dimension);
    if (v < u) d.add(v, u, 2.0);
  }
  return d;
}

Demand transpose_demand(std::uint32_t dimension) {
  SOR_CHECK_MSG(dimension % 2 == 0, "transpose needs an even dimension");
  SOR_CHECK(dimension >= 2 && dimension <= 24);
  const std::uint32_t half = dimension / 2;
  const std::uint32_t n = 1u << dimension;
  const std::uint32_t low_mask = (1u << half) - 1;
  Demand d;
  for (Vertex v = 0; v < n; ++v) {
    const std::uint32_t lo = v & low_mask;
    const std::uint32_t hi = v >> half;
    const Vertex u = (lo << half) | hi;
    if (v < u) d.add(v, u, 2.0);
  }
  return d;
}

Demand uniform_random_pairs(const Graph& g, std::size_t count, double amount,
                            Rng& rng) {
  SOR_CHECK(g.num_vertices() >= 2);
  SOR_CHECK(amount > 0);
  Demand d;
  for (std::size_t i = 0; i < count; ++i) {
    Vertex a = 0, b = 0;
    do {
      a = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
      b = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
    } while (a == b);
    d.add(a, b, amount);
  }
  return d;
}

Demand gravity_demand(const Graph& g, double total) {
  const std::vector<Vertex> verts = all_vertices(g);
  return gravity_demand(g, verts, total);
}

Demand gravity_demand(const Graph& g, std::span<const Vertex> endpoints,
                      double total) {
  SOR_CHECK(endpoints.size() >= 2);
  SOR_CHECK(total > 0);
  // Capacities near the top of the double range would overflow the masses
  // and their products. Scaling every capacity by one power of two is
  // exact and cancels in w / weight_sum, so the demand is bit-identical to
  // the unscaled one wherever that stays in range.
  double max_cap = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    max_cap = std::max(max_cap, g.edge(e).capacity);
  }
  const double scale = max_cap > 0 ? std::ldexp(1.0, -std::ilogb(max_cap)) : 1;
  std::vector<double> mass(endpoints.size(), 0.0);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    for (const HalfEdge& h : g.neighbors(endpoints[i])) {
      mass[i] += g.edge(h.id).capacity * scale;
    }
  }
  double weight_sum = 0;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    for (std::size_t j = i + 1; j < endpoints.size(); ++j) {
      weight_sum += mass[i] * mass[j];
    }
  }
  SOR_CHECK(weight_sum > 0);
  Demand d;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    for (std::size_t j = i + 1; j < endpoints.size(); ++j) {
      const double w = mass[i] * mass[j];
      if (w > 0) d.add(endpoints[i], endpoints[j], total * w / weight_sum);
    }
  }
  return d;
}

Demand perturbed_gravity_demand(const Graph& g,
                                std::span<const Vertex> endpoints,
                                double total, double sigma, Rng& rng) {
  SOR_CHECK(sigma >= 0);
  Demand base = gravity_demand(g, endpoints, total);
  Demand out;
  for (const auto& [pair, value] : base.entries()) {
    // Box–Muller normal sample.
    const double u1 = std::max(rng.next_double(), 1e-12);
    const double u2 = rng.next_double();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    out.add(pair.a, pair.b, value * std::exp(sigma * z));
  }
  return out;
}

Demand all_to_all_demand(std::span<const Vertex> endpoints, double amount) {
  SOR_CHECK(endpoints.size() >= 2);
  SOR_CHECK(amount > 0);
  Demand d;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    for (std::size_t j = i + 1; j < endpoints.size(); ++j) {
      d.add(endpoints[i], endpoints[j], amount);
    }
  }
  return d;
}

std::vector<Vertex> all_vertices(const Graph& g) {
  std::vector<Vertex> verts(g.num_vertices());
  std::iota(verts.begin(), verts.end(), Vertex{0});
  return verts;
}

}  // namespace sor
