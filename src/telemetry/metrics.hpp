#pragma once

// Runtime health exporters over telemetry::Registry: the artifact
// `health` block (sketches with quantiles, watermarks, the windowed
// series of SOR_RATE / SOR_WINDOW_GAUGE metrics, SLO breaches), per-epoch
// JSONL snapshots, and the Prometheus text exposition.
//
// The metrics themselves — counters, gauges, sketches, and the epoch
// windows — live in the one registry of telemetry.hpp; this header only
// reads them. Exporting takes the registry lock, recording never does.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace sor::telemetry {

/// Hit rate over the telemetry cache counters (cache/hits +
/// cache/disk_hits vs cache/misses); -1 when there was no cache traffic
/// (so an SLO floor does not spuriously breach an idle cache).
double cache_hit_rate();

/// The artifact `health` block (schema v5): kill-switch state, recorder
/// drop counters, sketch snapshots with quantiles, per-sketch watermarks,
/// windowed series, the breach list, and the 0/1 health status.
JsonValue health_to_json();

/// One JSONL snapshot line for epoch `epoch`: the window points closed
/// under that epoch plus running sketch summaries. The periodic JSONL
/// exporter appends one such line per epoch roll.
JsonValue epoch_health_json(std::uint64_t epoch);

/// Escapes a label VALUE per the Prometheus text exposition format:
/// backslash -> \\, double-quote -> \", newline -> \n. Telemetry keys
/// are free-form strings, so anything that flows into a label value
/// (e.g. memory subsystem names) must pass through here.
std::string prometheus_escape_label(std::string_view value);

/// Escapes a HELP string: backslash -> \\ and newline -> \n (quotes are
/// legal in HELP text and stay as-is).
std::string prometheus_escape_help(std::string_view text);

/// Prometheus text exposition of the full telemetry state: one family
/// per registry metric plus the memory accountant's per-subsystem
/// figures (subsystem label). Family names are the telemetry key
/// sanitized ("/" and other non-alphanumerics become "_") and prefixed
/// "sor_"; every counter (windowed or not) adds the "_total" suffix and
/// exposes its run total, a gauge its current value, and a sketch a
/// summary with quantile labels. Each family carries a HELP line with
/// the raw (escaped) telemetry key.
std::string prometheus_text();

/// Writes prometheus_text() to `os`.
void write_prometheus(std::ostream& os);

}  // namespace sor::telemetry
