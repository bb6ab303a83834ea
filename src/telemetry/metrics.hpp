// Named per-component metrics: counters, gauges, and latency histograms.
//
// The registry is the collection point the export sinks (JSON report,
// Perfetto trace) read from. Naming convention is `component/metric`, e.g.
// `sm3/loads_issued`, `l2_slice0/hits`, `mc2/aes_busy_cycles`; aggregate
// metrics omit the component prefix. Instruments are created on first use and
// accumulate across simulator instances (the network runner sums one
// registry over all simulated layers). Export order is lexicographic by
// name, so two identical runs serialize byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/stats.hpp"

namespace sealdl::telemetry {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Returns the instrument named `name`, creating it on first use.
  /// References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Histogram bounds are fixed by the first call for a given name;
  /// subsequent calls return the existing instance unchanged.
  util::Histogram& histogram(const std::string& name, double lo, double hi,
                             std::size_t buckets);

  /// Null when no instrument of that kind has the name.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const util::Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Folds another registry into this one: counters and histogram buckets
  /// add exactly (integers); gauges add. Parallel layer runs collect into a
  /// private registry per task, and the runner merges the fragments in spec
  /// order — each gauge then sees the same addends in the same order as a
  /// serial run, so even floating-point totals are bitwise-identical.
  /// Histogram fragments must be compatible() with any existing same-named
  /// histogram (std::invalid_argument otherwise).
  ///
  /// Thread-confinement contract: the registry is deliberately unlocked —
  /// a fragment belongs to exactly one task and the shared sink is merged
  /// from the submitting thread only. A concurrent merge_from call on the
  /// same registry throws std::logic_error instead of silently corrupting
  /// counts.
  void merge_from(const MetricsRegistry& other);

  /// Serializes all instruments as one JSON object value (name-sorted).
  /// Histograms export count plus p50/p95/p99.
  void write_json(util::JsonWriter& json) const;

 private:
  // std::map: reference stability plus the sorted order the exports rely on.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, util::Histogram> histograms_;
  util::AccessSentinel merge_sentinel_{"telemetry.MetricsRegistry.merge"};
};

}  // namespace sealdl::telemetry
