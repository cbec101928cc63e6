#include "telemetry/telemetry.hpp"

#include <bit>
#include <cstdlib>
#include <type_traits>

#include "util/check.hpp"

namespace sor::telemetry {

namespace {

bool enabled_from_env() {
  const char* env = std::getenv("SOR_TELEMETRY");
  if (env == nullptr) return true;
  const std::string_view v(env);
  return !(v == "off" || v == "0" || v == "false");
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{enabled_from_env()};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

namespace detail {
std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }
}  // namespace detail

Registry& Registry::global() {
  static Registry* registry = new Registry();  // never destroyed: metrics
  return *registry;  // outlive static-destruction-order hazards
}

namespace {

template <typename T>
constexpr const char* kind_name() {
  if constexpr (std::is_same_v<T, Counter>) return "counter";
  if constexpr (std::is_same_v<T, Gauge>) return "gauge";
  return "sketch";
}

}  // namespace

template <typename T>
T& Registry::intern(std::string_view name, bool windowed) {
  std::lock_guard lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.metric = std::make_unique<T>();
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  auto* metric = std::get_if<std::unique_ptr<T>>(&it->second.metric);
  SOR_CHECK_MSG(metric != nullptr,
                "telemetry name '"
                    << std::string(name) << "' is registered as a "
                    << std::visit(
                           [](const auto& m) {
                             return kind_name<std::decay_t<decltype(*m)>>();
                           },
                           it->second.metric)
                    << ", not a " << kind_name<T>());
  it->second.windowed = it->second.windowed || windowed;
  return **metric;
}

Counter& Registry::counter(std::string_view name) {
  return intern<Counter>(name, false);
}
Gauge& Registry::gauge(std::string_view name) {
  return intern<Gauge>(name, false);
}
Sketch& Registry::sketch(std::string_view name) {
  return intern<Sketch>(name, false);
}
Counter& Registry::rate(std::string_view name) {
  return intern<Counter>(name, true);
}
Gauge& Registry::window_gauge(std::string_view name) {
  return intern<Gauge>(name, true);
}

void Registry::roll_epoch(std::uint64_t epoch) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  for (auto& [name, entry] : metrics_) {
    if (!entry.windowed) continue;
    double value = 0;
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&entry.metric)) {
      const std::uint64_t total = (*c)->value();
      value = static_cast<double>(total - entry.last_mark);
      entry.last_mark = total;
    } else {
      value = std::get<std::unique_ptr<Gauge>>(entry.metric)->value();
    }
    entry.window.push_back({epoch, value});
    if (entry.window.size() > kWindowCapacity) {
      entry.window.erase(entry.window.begin());
    }
  }
  ++epochs_rolled_;
}

std::uint64_t Registry::epochs_rolled() const {
  std::lock_guard lock(mu_);
  return epochs_rolled_;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, entry] : metrics_) {
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&entry.metric)) {
      out.emplace_back(name, (*c)->value());
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, entry] : metrics_) {
    if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&entry.metric)) {
      out.emplace_back(name, (*g)->value());
    }
  }
  return out;
}

std::vector<std::pair<std::string, SketchSnapshot>> Registry::sketches()
    const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, SketchSnapshot>> out;
  for (const auto& [name, entry] : metrics_) {
    if (const auto* s = std::get_if<std::unique_ptr<Sketch>>(&entry.metric)) {
      out.emplace_back(name, (*s)->snapshot());
    }
  }
  return out;
}

template <typename T>
std::vector<std::pair<std::string, std::vector<WindowPoint>>>
Registry::windows() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::vector<WindowPoint>>> out;
  for (const auto& [name, entry] : metrics_) {
    if (entry.windowed &&
        std::holds_alternative<std::unique_ptr<T>>(entry.metric)) {
      out.emplace_back(name, entry.window);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::vector<WindowPoint>>>
Registry::rate_windows() const {
  return windows<Counter>();
}

std::vector<std::pair<std::string, std::vector<WindowPoint>>>
Registry::gauge_windows() const {
  return windows<Gauge>();
}

void Registry::record_breach(const SloBreach& breach) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  breaches_.push_back(breach);
}

std::vector<SloBreach> Registry::breaches() const {
  std::lock_guard lock(mu_);
  return breaches_;
}

int Registry::health_status() const {
  std::lock_guard lock(mu_);
  return breaches_.empty() ? 0 : 1;
}

void Registry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, entry] : metrics_) {
    std::visit([](auto& metric) { metric->reset(); }, entry.metric);
    entry.last_mark = 0;
    entry.window.clear();
  }
  epochs_rolled_ = 0;
  breaches_.clear();
}

}  // namespace sor::telemetry
