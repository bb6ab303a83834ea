#include "telemetry/metrics.hpp"

namespace sealdl::telemetry {

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }

util::Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t buckets) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, util::Histogram(lo, hi, buckets)).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const util::Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  // Confinement check only — the registry stays unlocked by design (see
  // header). Two threads merging into the same sink is a bug the byte-exact
  // determinism gate may never interleave; the guard throws on it directly.
  util::AccessGuard guard(merge_sentinel_);
  for (const auto& [name, counter] : other.counters_) {
    counters_[name].add(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    gauges_[name].add(gauge.value());
  }
  for (const auto& [name, hist] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, hist);
    } else {
      it->second.merge(hist);
    }
  }
}

void MetricsRegistry::write_json(util::JsonWriter& json) const {
  json.begin_object();
  for (const auto& [name, counter] : counters_) json.field(name, counter.value());
  for (const auto& [name, gauge] : gauges_) json.field(name, gauge.value());
  for (const auto& [name, hist] : histograms_) {
    json.key(name).begin_object();
    json.field("count", hist.count());
    // Out-of-range mass clamps the percentiles to the histogram bounds
    // (Histogram::percentile contract); export the clamped-sample counts so
    // a saturated p99 is detectable from the report alone.
    json.field("underflow", hist.underflow());
    json.field("overflow", hist.overflow());
    json.field("p50", hist.percentile(50.0));
    json.field("p95", hist.percentile(95.0));
    json.field("p99", hist.percentile(99.0));
    json.end_object();
  }
  json.end_object();
}

}  // namespace sealdl::telemetry
