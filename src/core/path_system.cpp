#include "core/path_system.hpp"

#include <algorithm>
#include <unordered_set>

namespace sor {

Path reversed(const Path& p) {
  Path out;
  out.src = p.dst;
  out.dst = p.src;
  out.edges.assign(p.edges.rbegin(), p.edges.rend());
  return out;
}

void PathSystem::add(Path path) {
  SOR_CHECK_MSG(path.src != path.dst, "trivial path in path system");
  if (path.src > path.dst) path = reversed(path);
  paths_[VertexPair{path.src, path.dst}].push_back(std::move(path));
}

bool PathSystem::has_pair(Vertex s, Vertex t) const {
  return paths_.contains(VertexPair::canonical(s, t));
}

std::span<const Path> PathSystem::canonical_paths(Vertex s, Vertex t) const {
  const auto it = paths_.find(VertexPair::canonical(s, t));
  if (it == paths_.end()) return {};
  return it->second;
}

std::vector<Path> PathSystem::paths_oriented(Vertex s, Vertex t) const {
  std::vector<Path> out;
  for (const Path& p : canonical_paths(s, t)) {
    out.push_back(p.src == s ? p : reversed(p));
  }
  return out;
}

std::vector<VertexPair> PathSystem::pairs() const {
  std::vector<VertexPair> out;
  out.reserve(paths_.size());
  for (const auto& [pair, list] : paths_) out.push_back(pair);
  std::sort(out.begin(), out.end(), [](const VertexPair& x, const VertexPair& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return out;
}

std::size_t PathSystem::max_sparsity() const {
  std::size_t best = 0;
  for (const auto& [pair, list] : paths_) best = std::max(best, list.size());
  return best;
}

std::size_t PathSystem::total_paths() const {
  std::size_t total = 0;
  for (const auto& [pair, list] : paths_) total += list.size();
  return total;
}

std::size_t PathSystem::deduplicate() {
  std::size_t removed = 0;
  for (auto& [pair, list] : paths_) {
    std::unordered_set<Path, PathHash> seen;
    std::vector<Path> unique;
    unique.reserve(list.size());
    for (Path& p : list) {
      if (seen.insert(p).second) unique.push_back(std::move(p));
    }
    removed += list.size() - unique.size();
    list = std::move(unique);
  }
  return removed;
}

std::size_t PathSystem::max_hops() const {
  std::size_t best = 0;
  for (const auto& [pair, list] : paths_) {
    for (const Path& p : list) best = std::max(best, p.hops());
  }
  return best;
}

double mean_pairwise_overlap(const PathSystem& system) {
  double total = 0;
  std::size_t counted = 0;
  for (const VertexPair& pair : system.pairs()) {
    const auto paths = system.canonical_paths(pair.a, pair.b);
    if (paths.size() < 2) continue;
    double pair_total = 0;
    std::size_t pair_count = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      std::unordered_set<EdgeId> edges_i(paths[i].edges.begin(),
                                         paths[i].edges.end());
      for (std::size_t j = i + 1; j < paths.size(); ++j) {
        std::size_t common = 0;
        for (EdgeId e : paths[j].edges) common += edges_i.contains(e);
        const std::size_t unions =
            edges_i.size() + paths[j].edges.size() - common;
        pair_total += unions == 0
                          ? 1.0
                          : static_cast<double>(common) /
                                static_cast<double>(unions);
        ++pair_count;
      }
    }
    total += pair_total / static_cast<double>(pair_count);
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

PathActivation::PathActivation(const PathSystem& system) : system_(&system) {}

void PathActivation::set_active(Vertex s, Vertex t, std::size_t index,
                                bool active) {
  SOR_CHECK(system_ != nullptr);
  const VertexPair pair = VertexPair::canonical(s, t);
  const auto paths = system_->canonical_paths(s, t);
  SOR_CHECK_MSG(index < paths.size(),
                "activation index out of range for pair (" << pair.a << ","
                                                           << pair.b << ")");
  auto it = base_.find(pair);
  if (it == base_.end()) {
    it = base_.emplace(pair, std::vector<char>(paths.size(), 1)).first;
  }
  it->second[index] = active ? 1 : 0;
}

bool PathActivation::is_active(Vertex s, Vertex t, std::size_t index) const {
  const auto it = base_.find(VertexPair::canonical(s, t));
  if (it == base_.end()) return true;
  SOR_CHECK(index < it->second.size());
  return it->second[index] != 0;
}

std::size_t PathActivation::add_extra(Path path) {
  SOR_CHECK(system_ != nullptr);
  SOR_CHECK_MSG(path.src != path.dst, "trivial fallback path");
  if (path.src > path.dst) path = reversed(path);
  auto& list = extras_[VertexPair{path.src, path.dst}];
  list.push_back(Extra{std::move(path), true});
  return list.size() - 1;
}

std::size_t PathActivation::num_extras(Vertex s, Vertex t) const {
  const auto it = extras_.find(VertexPair::canonical(s, t));
  return it == extras_.end() ? 0 : it->second.size();
}

const Path& PathActivation::extra_path(Vertex s, Vertex t,
                                       std::size_t index) const {
  const auto it = extras_.find(VertexPair::canonical(s, t));
  SOR_CHECK(it != extras_.end() && index < it->second.size());
  return it->second[index].path;
}

void PathActivation::set_extra_active(Vertex s, Vertex t, std::size_t index,
                                      bool active) {
  const auto it = extras_.find(VertexPair::canonical(s, t));
  SOR_CHECK(it != extras_.end() && index < it->second.size());
  it->second[index].active = active;
}

bool PathActivation::is_extra_active(Vertex s, Vertex t,
                                     std::size_t index) const {
  const auto it = extras_.find(VertexPair::canonical(s, t));
  SOR_CHECK(it != extras_.end() && index < it->second.size());
  return it->second[index].active;
}

std::vector<Path> PathActivation::active_oriented(Vertex s, Vertex t) const {
  SOR_CHECK(system_ != nullptr);
  std::vector<Path> out;
  const auto paths = system_->canonical_paths(s, t);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!is_active(s, t, i)) continue;
    out.push_back(paths[i].src == s ? paths[i] : reversed(paths[i]));
  }
  const auto it = extras_.find(VertexPair::canonical(s, t));
  if (it != extras_.end()) {
    for (const Extra& extra : it->second) {
      if (!extra.active) continue;
      out.push_back(extra.path.src == s ? extra.path : reversed(extra.path));
    }
  }
  return out;
}

std::size_t PathActivation::num_active(Vertex s, Vertex t) const {
  SOR_CHECK(system_ != nullptr);
  std::size_t count = 0;
  const auto paths = system_->canonical_paths(s, t);
  for (std::size_t i = 0; i < paths.size(); ++i) count += is_active(s, t, i);
  const auto it = extras_.find(VertexPair::canonical(s, t));
  if (it != extras_.end()) {
    for (const Extra& extra : it->second) count += extra.active;
  }
  return count;
}

std::vector<ActivationFlag> PathActivation::flag_snapshot() const {
  std::vector<ActivationFlag> flags;
  if (system_ == nullptr) return flags;
  // Base candidates in sorted pair order, candidate-index order within
  // each pair.
  for (const VertexPair& pair : system_->pairs()) {
    const std::uint64_t key = (static_cast<std::uint64_t>(pair.a) << 32) |
                              static_cast<std::uint64_t>(pair.b);
    const std::size_t count = system_->canonical_paths(pair.a, pair.b).size();
    for (std::size_t i = 0; i < count; ++i) {
      flags.push_back({key, static_cast<std::uint32_t>(i), false,
                       is_active(pair.a, pair.b, i)});
    }
  }
  // Extras (which may cover pairs outside the system) in sorted pair
  // order, install order within the pair.
  std::vector<VertexPair> extra_pairs;
  extra_pairs.reserve(extras_.size());
  for (const auto& [pair, list] : extras_) extra_pairs.push_back(pair);
  std::sort(extra_pairs.begin(), extra_pairs.end(),
            [](const VertexPair& x, const VertexPair& y) {
              return std::tie(x.a, x.b) < std::tie(y.a, y.b);
            });
  for (const VertexPair& pair : extra_pairs) {
    const std::uint64_t key = (static_cast<std::uint64_t>(pair.a) << 32) |
                              static_cast<std::uint64_t>(pair.b);
    const std::vector<Extra>& list = extras_.at(pair);
    for (std::size_t i = 0; i < list.size(); ++i) {
      flags.push_back({key, static_cast<std::uint32_t>(i), true,
                       list[i].active});
    }
  }
  // Keep the overall vector sorted by (pair, extra, index) so snapshots
  // from different epochs merge-compare directly.
  std::sort(flags.begin(), flags.end(),
            [](const ActivationFlag& x, const ActivationFlag& y) {
              return std::tie(x.pair_key, x.extra, x.index) <
                     std::tie(y.pair_key, y.extra, y.index);
            });
  return flags;
}

std::size_t activation_hamming(std::span<const ActivationFlag> before,
                               std::span<const ActivationFlag> after) {
  const auto key = [](const ActivationFlag& f) {
    return std::tie(f.pair_key, f.extra, f.index);
  };
  std::size_t distance = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < before.size() && j < after.size()) {
    if (key(before[i]) == key(after[j])) {
      if (before[i].active != after[j].active) ++distance;
      ++i;
      ++j;
    } else if (key(before[i]) < key(after[j])) {
      ++distance;  // candidate vanished
      ++i;
    } else {
      ++distance;  // candidate appeared (e.g. a fresh fallback install)
      ++j;
    }
  }
  distance += (before.size() - i) + (after.size() - j);
  return distance;
}

PathSystem merge(const PathSystem& a, const PathSystem& b) {
  PathSystem out = a;
  for (const VertexPair& pair : b.pairs()) {
    for (const Path& p : b.canonical_paths(pair.a, pair.b)) {
      out.add(p);
    }
  }
  return out;
}

}  // namespace sor
