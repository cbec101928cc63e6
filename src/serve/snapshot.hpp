#pragma once

// RouteSnapshot — one epoch's installed routing table, frozen.
//
// The TE-as-a-service consumer shape: the control loop re-solves split
// fractions once per epoch, but route lookups happen per flow, many
// orders of magnitude more often. A RouteSnapshot is the bridge: an
// immutable, pre-sorted copy of a split (SplitFractions, as
// core::split_fractions extracts it from a solved restricted problem),
// built once on the control thread and then queried lock-free by any
// number of reader threads through serve::RouteService. The engine's
// installed split IS a RouteSnapshot: EpochController::install builds one
// per epoch, warm-starts and grades quality from it, and publishes that
// same object.
//
// Immutability is the whole thread-safety story: after build() returns,
// nothing ever mutates the snapshot, so const lookups need no
// synchronization. Readers hold the snapshot alive via shared_ptr (see
// RouteService::lookup); a LookupResult's spans view the snapshot's
// storage and are valid exactly as long as that guard.
//
// Determinism: entries are stored in sorted VertexPair order and each
// pair's rows in path_lexicographic_less order, so serialize() and
// digest() are pure functions of the table's CONTENT — independent of
// unordered_map iteration order, insertion order, thread count, and
// process. Two snapshots built from equal tables are byte-identical.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/path_system.hpp"
#include "graph/path.hpp"

namespace sor::serve {

/// One candidate of a served answer: a path in canonical orientation and
/// the fraction of the pair's demand it carries.
struct ServedPath {
  Path path;
  double fraction = 0;

  friend bool operator==(const ServedPath&, const ServedPath&) = default;
};

/// Answer to a (src, dst) lookup. `paths` views the snapshot's storage
/// (canonical orientation, path_lexicographic_less order) and is valid as
/// long as the snapshot that produced it — hold RouteService::Answer's
/// guard across any use.
struct LookupResult {
  bool found = false;
  /// True when the queried (src, dst) is the non-canonical orientation;
  /// use oriented_paths() (or reverse manually) for src→dst path objects.
  bool reverse = false;
  /// The epoch of the snapshot that answered.
  std::uint64_t epoch = 0;
  std::span<const ServedPath> paths;

  /// The answer's paths oriented src→dst (copies).
  std::vector<Path> oriented_paths() const;
  /// Σ fractions — 1 (up to solver rounding) for any installed pair.
  double fraction_sum() const;
};

class RouteSnapshot {
 public:
  RouteSnapshot() = default;

  /// Freezes `split` as the routing table for `epoch`. Zero-fraction
  /// rows, and pairs with no positive-fraction rows, are dropped —
  /// matching what split_fractions emits, so tables equal up to
  /// explicit zeros freeze byte-identically. Runs on the control thread;
  /// the result is immutable and safe to share with readers.
  static RouteSnapshot build(std::uint64_t epoch,
                             const SplitFractions& split);

  /// Lock-free, allocation-free lookup (binary search over sorted pairs).
  /// Safe from any thread for the snapshot's whole lifetime.
  LookupResult lookup(Vertex s, Vertex t) const;

  std::uint64_t epoch() const { return epoch_; }
  std::size_t num_pairs() const { return entries_.size(); }
  std::size_t num_paths() const { return paths_.size(); }
  /// The i-th pair in sorted (a, b) order, i < num_pairs(), and its rows
  /// in path_lexicographic_less order — the table in serialize() order,
  /// for consumers that walk two epochs' tables side by side.
  VertexPair pair_at(std::size_t i) const { return entries_[i].pair; }
  std::span<const ServedPath> rows_at(std::size_t i) const {
    return std::span<const ServedPath>(paths_).subspan(entries_[i].begin,
                                                       entries_[i].count);
  }

  /// FNV-1a over the serialized table — equal iff serialize() is equal.
  /// Precomputed at build; readers use it to prove an answer came from
  /// exactly one published epoch.
  std::uint64_t digest() const { return digest_; }

  /// Canonical byte encoding: header, then pairs in sorted VertexPair
  /// order, each pair's rows in path_lexicographic_less order, fractions
  /// as bit-exact hex doubles. Content-determined — see file comment.
  std::string serialize() const;

 private:
  struct Entry {
    VertexPair pair;
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  std::uint64_t epoch_ = 0;
  std::uint64_t digest_ = 0;
  std::vector<Entry> entries_;   // sorted by (pair.a, pair.b)
  std::vector<ServedPath> paths_;  // entries_' rows, back to back
};

}  // namespace sor::serve
