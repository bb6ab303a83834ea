#include "verify/diagnostics.hpp"

#include <cstdio>
#include <utility>

namespace sealdl::verify {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

void Report::add(Diagnostic diagnostic) {
  auto& count = counts_[diagnostic.rule];
  ++count;
  if (diagnostic.severity == Severity::kError) {
    ++errors_;
  } else {
    ++warnings_;
  }
  if (count <= max_per_rule_) diagnostics_.push_back(std::move(diagnostic));
}

void Report::error(std::string rule, std::string message) {
  Diagnostic diagnostic;
  diagnostic.rule = std::move(rule);
  diagnostic.severity = Severity::kError;
  diagnostic.message = std::move(message);
  add(std::move(diagnostic));
}

std::uint64_t Report::count(std::string_view rule) const {
  const auto it = counts_.find(rule);
  return it == counts_.end() ? 0 : it->second;
}

std::string Report::to_text() const {
  std::string out;
  char buffer[64];
  for (const auto& d : diagnostics_) {
    out += severity_name(d.severity);
    out += " [";
    out += d.rule;
    out += "]";
    if (!d.layer.empty()) {
      out += " ";
      out += d.layer;
    }
    if (d.end > d.begin) {
      std::snprintf(buffer, sizeof(buffer), " [0x%llx, 0x%llx)",
                    static_cast<unsigned long long>(d.begin),
                    static_cast<unsigned long long>(d.end));
      out += buffer;
    }
    out += ": ";
    out += d.message;
    out += "\n";
  }
  for (const auto& [rule, count] : counts_) {
    const std::uint64_t stored = [&] {
      std::uint64_t n = 0;
      for (const auto& d : diagnostics_) n += d.rule == rule ? 1 : 0;
      return n;
    }();
    if (count > stored) {
      std::snprintf(buffer, sizeof(buffer), "%llu",
                    static_cast<unsigned long long>(count - stored));
      out += "note [" + rule + "]: " + buffer + " further finding(s) not shown\n";
    }
  }
  std::snprintf(buffer, sizeof(buffer), "%llu error(s), %llu warning(s)\n",
                static_cast<unsigned long long>(errors_),
                static_cast<unsigned long long>(warnings_));
  out += buffer;
  return out;
}

void Report::write_json(util::JsonWriter& json) const {
  json.begin_object();
  json.field("errors", errors_);
  json.field("warnings", warnings_);
  json.key("rules");
  json.begin_object();
  for (const auto& [rule, count] : counts_) json.field(rule, count);
  json.end_object();
  json.key("diagnostics");
  json.begin_array();
  for (const auto& d : diagnostics_) {
    json.begin_object();
    json.field("rule", d.rule);
    json.field("severity", severity_name(d.severity));
    if (!d.layer.empty()) json.field("layer", d.layer);
    if (d.end > d.begin) {
      json.field("begin", d.begin);
      json.field("end", d.end);
    }
    json.field("message", d.message);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

std::string fmt(const char* format, double value) {
  // Large enough that no message + "%g" rendering can truncate.
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

}  // namespace sealdl::verify
