// Span recorder, operation ledger and small statistics helpers.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

int Tracer::open(std::string_view name, int op, int parent, bool push) {
  const double now = ms_since(epoch_);
  std::lock_guard<std::mutex> lock(mu_);
  if (parent < -1) parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{std::string(name), now, now, parent, op});
  const int id = static_cast<int>(spans_.size() - 1);
  if (push) stack_.push_back(id);
  return id;
}

void Tracer::close(int id, bool pop) {
  const double now = ms_since(epoch_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_ms = now;
  if (pop && !stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int Tracer::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stack_.empty() ? -1 : stack_.back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.ms());
  }
  return out;
}

double Tracer::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const double ms : durations(name)) total += ms;
  return total;
}

double Tracer::ms(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.at(static_cast<std::size_t>(id)).ms();
}

double Tracer::uncovered_share(int root) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& outer = spans_.at(static_cast<std::size_t>(root));
  std::vector<std::pair<double, double>> children;
  for (const Span& span : spans_) {
    if (span.parent == root) children.emplace_back(span.start_ms, span.end_ms);
  }
  std::sort(children.begin(), children.end());
  // Union of the children's intervals (parallel children may overlap).
  double covered = 0.0;
  double reach = outer.start_ms;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  const double total = outer.ms();
  return total > 0.0 ? std::max(0.0, 1.0 - covered / total) : 0.0;
}

std::string Tracer::to_json(const std::string& provenance_json,
                            const std::string& extra_json) const {
  sealdl::util::JsonWriter json;
  json.begin_object();
  json.key("spans").begin_array();
  for (const Span& span : spans()) {
    json.begin_object();
    json.field("name", span.name);
    json.field("start_ms", span.start_ms);
    json.field("end_ms", span.end_ms);
    json.field("parent", span.parent);
    json.field("op", span.op);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  // Splice the pre-rendered sections in front of the closing brace.
  std::string out = json.str();
  out.pop_back();
  out += ",\"provenance\":" + provenance_json + ",\"workload\":" + extra_json + "}";
  return out;
}

int Ops::begin(std::string what) {
  names_.push_back(std::move(what));
  failed_.push_back(false);
  return static_cast<int>(names_.size() - 1);
}

void Ops::fail(int op, const std::string& why) {
  const auto index = static_cast<std::size_t>(op);
  std::fprintf(stderr, "FAILED op %d (%s): %s\n", op, names_.at(index).c_str(),
               why.c_str());
  if (failed_.at(index)) return;
  failed_[index] = true;
  ++failed_count_;
}

}  // namespace perfbench
