// Structured diagnostics for the static analyzer (sealdl-check).
//
// Every finding carries a stable dotted rule id ("plan.closure",
// "trace.mixed", ...), a severity, the layer it concerns and — when the rule
// is address-based — the offending physical range. The Report collects
// findings, keeps exact per-rule counts even when the stored diagnostics are
// capped, and renders either human-readable text or deterministic JSON
// through util::JsonWriter (the telemetry writer).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/request.hpp"
#include "util/json.hpp"

namespace sealdl::verify {

enum class Severity : std::uint8_t {
  kWarning,  ///< suspicious but not a security-invariant break
  kError,    ///< the invariant is provably violated
};

[[nodiscard]] const char* severity_name(Severity severity);

struct Diagnostic {
  std::string rule;      ///< stable dotted id, e.g. "plan.closure"
  Severity severity = Severity::kError;
  std::string layer;     ///< spec/layer name ("" when network-wide)
  sim::Addr begin = 0;   ///< offending address range [begin, end); 0/0 = n/a
  sim::Addr end = 0;
  std::string message;   ///< one-line human explanation
};

/// Ordered collection of diagnostics with exact per-rule counts. At most
/// `max_per_rule` diagnostics are *stored* per rule (reports stay readable
/// when a broken plan violates one rule thousands of times); counts are
/// always exact.
class Report {
 public:
  explicit Report(std::size_t max_per_rule = 16) : max_per_rule_(max_per_rule) {}

  void add(Diagnostic diagnostic);
  /// Adds a network-wide error finding: no layer, no address range.
  void error(std::string rule, std::string message);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diagnostics_;
  }
  /// Exact number of findings for `rule`, including ones dropped by the cap.
  [[nodiscard]] std::uint64_t count(std::string_view rule) const;
  [[nodiscard]] bool fired(std::string_view rule) const { return count(rule) > 0; }
  [[nodiscard]] std::uint64_t error_count() const { return errors_; }
  [[nodiscard]] std::uint64_t warning_count() const { return warnings_; }
  /// rule id -> exact count, sorted by rule id.
  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>& rule_counts() const {
    return counts_;
  }

  /// Human-readable rendering, one line per stored diagnostic plus a summary.
  [[nodiscard]] std::string to_text() const;

  /// Writes this report as one JSON object value on `json` (the caller owns
  /// the surrounding document).
  void write_json(util::JsonWriter& json) const;

 private:
  std::size_t max_per_rule_;
  std::vector<Diagnostic> diagnostics_;
  std::map<std::string, std::uint64_t, std::less<>> counts_;
  std::uint64_t errors_ = 0;
  std::uint64_t warnings_ = 0;
};

/// printf-style rendering of one double into a diagnostic message, e.g.
/// fmt("link latency must be >= 0 cycles (got %g)", latency).
[[nodiscard]] std::string fmt(const char* format, double value);

}  // namespace sealdl::verify
