#pragma once

// RouteService — the snapshot-swapped TE serving front-end.
//
// Publication protocol (RCU-style):
//   * The control thread builds the next epoch's RouteSnapshot privately
//     (the back buffer — readers keep answering from the front buffer,
//     i.e. the currently published snapshot, the whole time), then
//     publish()es it: one release store of the raw pointer, with the
//     owning shared_ptr swapped in lockstep under a mutex publish alone
//     contends on.
//   * Readers acquire-load the raw pointer. While it matches the guard
//     cached in their thread-local slot — every lookup between two
//     swaps — the answer path takes NO lock and allocates nothing; only
//     when the pointer changed does the reader briefly take the swap
//     mutex to re-guard (once per swap per thread). A reader therefore
//     always answers from EXACTLY ONE published epoch — never a torn
//     mix — and a retired snapshot is reclaimed when the last thread
//     still guarding it refreshes (or exits).
//   * See the current_ member comment for why this is hand-rolled
//     instead of std::atomic<shared_ptr>.
//
// Demand ingestion rides the same object in the other direction: serving
// frontends enqueue_update() observed demand deltas (thread-safe, one
// mutex on the COLD path only — the lookup path never touches it), and
// the control loop drain_updates()s the batch between epochs, folding it
// into the next epoch's realized matrix (see engine::run_control_loop).
//
// Thread-safety contract: every member is safe to call from any thread.
// publish() is expected from one control thread at a time (last write
// wins either way); lookup()/snapshot() from arbitrarily many readers.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/snapshot.hpp"

namespace sor::serve {

/// One observed demand delta: `amount` EXTRA demand (>= 0) between
/// src and dst, accumulated onto the pair when the batch is applied.
struct DemandUpdate {
  Vertex src = kInvalidVertex;
  Vertex dst = kInvalidVertex;
  double amount = 0;
};

class RouteService {
 public:
  /// A lookup answer plus the shared_ptr guard keeping its spans alive.
  /// `snapshot` is null (and `result.found` false) before the first
  /// publish.
  struct Answer {
    std::shared_ptr<const RouteSnapshot> snapshot;
    LookupResult result;
  };

  /// The currently published snapshot (null before the first publish).
  /// The returned shared_ptr is the reader's guard.
  std::shared_ptr<const RouteSnapshot> snapshot() const;

  /// Lock-free weighted-path-set lookup against the current snapshot.
  Answer lookup(Vertex s, Vertex t) const;

  /// Atomically swaps `snap` in as the table every subsequent lookup
  /// answers from (release). Control-thread API.
  void publish(std::shared_ptr<const RouteSnapshot> snap);

  /// Queues a demand delta for the next inter-epoch batch. Thread-safe;
  /// requires src != dst and amount >= 0.
  void enqueue_update(const DemandUpdate& update);

  /// Takes the whole pending batch (control thread, between epochs).
  std::vector<DemandUpdate> drain_updates();

  std::uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }
  /// Lookups answered before any publish or for an unknown pair.
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t updates_enqueued() const {
    return updates_enqueued_.load(std::memory_order_relaxed);
  }
  /// Updates handed to the control loop by drain_updates() so far.
  std::uint64_t updates_drained() const {
    return updates_drained_.load(std::memory_order_relaxed);
  }

 private:
  /// Publication state. NOT std::atomic<shared_ptr>: libstdc++'s
  /// _Sp_atomic unlocks its load() with a relaxed RMW, which leaves the
  /// internal pointer read formally unordered against the next store —
  /// ThreadSanitizer flags it, and the ISO memory model agrees. Instead
  /// the swap keeps two views in lockstep under swap_mu_: the owning
  /// shared_ptr (current_) and a plain atomic raw pointer (current_raw_)
  /// readers poll lock-free. A reader only takes swap_mu_ to refresh its
  /// thread-local guard when the raw pointer says the table actually
  /// changed — once per swap per thread, not per lookup (see lookup()).
  mutable std::mutex swap_mu_;
  std::shared_ptr<const RouteSnapshot> current_;
  std::atomic<const RouteSnapshot*> current_raw_{nullptr};
  std::atomic<std::uint64_t> publishes_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> updates_enqueued_{0};
  std::atomic<std::uint64_t> updates_drained_{0};
  std::mutex ingest_mu_;
  std::vector<DemandUpdate> pending_;
};

}  // namespace sor::serve
