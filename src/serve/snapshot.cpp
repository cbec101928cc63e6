#include "serve/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <tuple>

#include "util/check.hpp"

namespace sor::serve {

std::vector<Path> LookupResult::oriented_paths() const {
  std::vector<Path> out;
  out.reserve(paths.size());
  for (const ServedPath& row : paths) {
    out.push_back(reverse ? reversed(row.path) : row.path);
  }
  return out;
}

double LookupResult::fraction_sum() const {
  double sum = 0;
  for (const ServedPath& row : paths) sum += row.fraction;
  return sum;
}

RouteSnapshot RouteSnapshot::build(std::uint64_t epoch,
                                   const SplitFractions& split) {
  RouteSnapshot snap;
  snap.epoch_ = epoch;

  // Zero-fraction rows are dropped (matching core::split_fractions, which
  // never emits them), so two tables equal up to explicit zeros freeze
  // into byte-identical snapshots.
  const auto has_positive_row = [](const auto& rows) {
    for (const auto& [path, fraction] : rows) {
      if (fraction > 0) return true;
    }
    return false;
  };
  std::vector<VertexPair> pairs;
  pairs.reserve(split.size());
  for (const auto& [pair, rows] : split) {
    if (has_positive_row(rows)) pairs.push_back(pair);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const VertexPair& x, const VertexPair& y) {
              return std::tie(x.a, x.b) < std::tie(y.a, y.b);
            });

  for (const VertexPair& pair : pairs) {
    const auto& rows = split.at(pair);
    Entry entry;
    entry.pair = pair;
    entry.begin = static_cast<std::uint32_t>(snap.paths_.size());
    for (const auto& [path, fraction] : rows) {
      if (fraction <= 0) continue;
      SOR_CHECK_MSG(path.src < path.dst,
                    "split fraction keyed on a non-canonical path ("
                        << path.src << "," << path.dst << ")");
      snap.paths_.push_back(ServedPath{path, fraction});
    }
    entry.count =
        static_cast<std::uint32_t>(snap.paths_.size()) - entry.begin;
    std::sort(snap.paths_.begin() + entry.begin, snap.paths_.end(),
              [](const ServedPath& x, const ServedPath& y) {
                return path_lexicographic_less(x.path, y.path);
              });
    snap.entries_.push_back(entry);
  }

  // FNV-1a over the canonical encoding: content-determined, so snapshots
  // built from equal tables (whatever their unordered_map layout) share
  // a digest, and readers can match answers to published epochs exactly.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : snap.serialize()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  snap.digest_ = h;
  return snap;
}

LookupResult RouteSnapshot::lookup(Vertex s, Vertex t) const {
  LookupResult result;
  result.epoch = epoch_;
  const VertexPair key = VertexPair::canonical(s, t);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, const VertexPair& k) {
        return std::tie(e.pair.a, e.pair.b) < std::tie(k.a, k.b);
      });
  if (it == entries_.end() || !(it->pair == key)) return result;
  result.found = true;
  result.reverse = s > t;
  result.paths = std::span<const ServedPath>(paths_).subspan(it->begin,
                                                             it->count);
  return result;
}

std::string RouteSnapshot::serialize() const {
  std::ostringstream os;
  os << "sor-route-snapshot v1\n";
  os << "epoch " << epoch_ << "\n";
  os << "pairs " << entries_.size() << " paths " << paths_.size() << "\n";
  for (const Entry& entry : entries_) {
    os << "pair " << entry.pair.a << " " << entry.pair.b << " "
       << entry.count << "\n";
    for (std::uint32_t i = entry.begin; i < entry.begin + entry.count; ++i) {
      const ServedPath& row = paths_[i];
      // Fractions as raw IEEE-754 bits: bit-exact round trip, no
      // formatting-precision ambiguity in the byte-identity contract.
      os << "path " << std::hex << std::bit_cast<std::uint64_t>(row.fraction)
         << std::dec;
      for (const EdgeId e : row.path.edges) os << " " << e;
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace sor::serve
