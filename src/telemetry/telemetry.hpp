#pragma once

// Thread-safe metric registry: one name → one metric, of three kinds —
// counters, gauges, and quantile sketches (telemetry/sketch.hpp).
//
// Design goals, in order:
//  1. Negligible hot-path overhead. Metric objects live at stable
//     addresses for the process lifetime, so call sites intern them once
//     into a function-local static and afterwards pay one relaxed atomic
//     op per event. The registry lock is only taken at interning time, at
//     epoch rolls, and by exporters.
//  2. A process-wide kill switch: SOR_TELEMETRY=off (or 0) disables all
//     recording; disabled metrics are a single relaxed atomic-bool load.
//     Tests can override with set_enabled().
//  3. Exportability: everything is snapshotable into plain structs,
//     serialized by telemetry/export.hpp and telemetry/metrics.hpp.
//
// Windowing is a property of an interned counter or gauge, not a separate
// metric: SOR_RATE / SOR_WINDOW_GAUGE intern the same Counter / Gauge that
// SOR_COUNTER / SOR_GAUGE would, and mark it windowed. The control loop
// calls roll_epoch() at each epoch boundary, which closes a per-epoch
// window point for the windowed metrics only — a counter contributes its
// delta since the previous roll, a gauge its current value. Windowing is
// epoch-INDEXED, not wall-clock driven, so windows are deterministic given
// the trace (epochs, not seconds, are the engine's time axis).
//
// A name belongs to exactly one kind: interning "x" as a gauge after it
// was registered as a counter is a CheckError, so no exporter ever sees
// two metrics under one name.
//
// Metric naming scheme (see DESIGN.md "Observability"): lower-case
// "<subsystem>/<event>" paths, e.g. "mwu/phases", "sampler/paths_sampled".

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "telemetry/sketch.hpp"

namespace sor::telemetry {

/// Whether recording is enabled. Initialized from SOR_TELEMETRY on first
/// use ("off"/"0" disables; anything else, including unset, enables).
bool enabled();

/// Test/CLI override of the kill switch.
void set_enabled(bool on);

/// Monotonically increasing event count. Each counter owns a cache line:
/// counters such as serve/lookups are bumped by every reader thread, and
/// whatever the allocator placed beside one on its line would be
/// invalidated in the other cores' caches on each bump. (On a 4-core VM,
/// two readers of a static GEANT table reached 8 M lookups/s without the
/// alignment and 14-19 M/s with it.)
class alignas(64) Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

namespace detail {
std::uint64_t to_bits(double v);
double from_bits(std::uint64_t b);
}  // namespace detail

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (enabled()) bits_.store(detail::to_bits(v), std::memory_order_relaxed);
  }
  double value() const {
    return detail::from_bits(bits_.load(std::memory_order_relaxed));
  }
  void reset() { bits_.store(detail::to_bits(0.0), std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// One closed window: the value a series took over epoch `epoch`.
struct WindowPoint {
  std::uint64_t epoch = 0;
  double value = 0;
};

/// One SLO violation, produced by the tracker in telemetry/slo.hpp and
/// stored here so exporters see every breach of the run.
struct SloBreach {
  std::string slo;  // "max_congestion" | "solve_p99_ms" | "cache_hit_rate"
  std::uint64_t epoch = 0;
  double value = 0;   // observed
  double budget = 0;  // configured bound it violated
};

/// Name → metric map. Metrics are created on first access and live (at a
/// stable address) until process exit; lookups after interning are free.
class Registry {
 public:
  /// Per-series window ring bound: older epochs fall off the front.
  static constexpr std::size_t kWindowCapacity = 512;

  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Sketch& sketch(std::string_view name);
  /// The counter / gauge of that name, additionally marked windowed so
  /// roll_epoch() samples it.
  Counter& rate(std::string_view name);
  Gauge& window_gauge(std::string_view name);

  /// Closes the current accumulation window under index `epoch` for
  /// every windowed metric. No-op when telemetry is disabled.
  void roll_epoch(std::uint64_t epoch);
  std::uint64_t epochs_rolled() const;

  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, SketchSnapshot>> sketches() const;
  /// Window rings of the windowed counters / gauges, by name.
  std::vector<std::pair<std::string, std::vector<WindowPoint>>> rate_windows()
      const;
  std::vector<std::pair<std::string, std::vector<WindowPoint>>> gauge_windows()
      const;

  /// Appends to the run's breach list (no-op when telemetry is disabled;
  /// the control loop still returns breaches in its result either way).
  void record_breach(const SloBreach& breach);
  std::vector<SloBreach> breaches() const;
  /// 0 when no breach has been recorded, 1 otherwise.
  int health_status() const;

  /// Zeroes every metric, window, and breach (registrations are kept, so
  /// interned references stay valid). For bench/test isolation, not hot
  /// paths.
  void reset();

 private:
  using Metric = std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                              std::unique_ptr<Sketch>>;
  struct Entry {
    Metric metric;
    bool windowed = false;
    std::uint64_t last_mark = 0;  // counter value at the previous roll
    std::vector<WindowPoint> window;
  };

  Registry() = default;
  template <typename T>
  T& intern(std::string_view name, bool windowed);
  template <typename T>
  std::vector<std::pair<std::string, std::vector<WindowPoint>>> windows()
      const;

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
  std::uint64_t epochs_rolled_ = 0;
  std::vector<SloBreach> breaches_;
};

}  // namespace sor::telemetry

/// Call-site helpers: intern once, then one relaxed atomic per event.
#define SOR_TELEMETRY_INTERN(type, method, name)                      \
  ([]() -> ::sor::telemetry::type& {                                  \
    static ::sor::telemetry::type& m =                                \
        ::sor::telemetry::Registry::global().method(name);            \
    return m;                                                         \
  }())

#define SOR_COUNTER(name) SOR_TELEMETRY_INTERN(Counter, counter, name)
#define SOR_GAUGE(name) SOR_TELEMETRY_INTERN(Gauge, gauge, name)
#define SOR_SKETCH(name) SOR_TELEMETRY_INTERN(Sketch, sketch, name)
/// Windowed counter: its per-epoch deltas form a series.
#define SOR_RATE(name) SOR_TELEMETRY_INTERN(Counter, rate, name)
/// Windowed gauge: its value is sampled into a series at each epoch roll.
#define SOR_WINDOW_GAUGE(name) SOR_TELEMETRY_INTERN(Gauge, window_gauge, name)
