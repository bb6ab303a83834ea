#include "verify/profile_checkers.hpp"

namespace sealdl::verify {

namespace {

void add_error(Report& report, const char* rule, std::string message) {
  Diagnostic diagnostic;
  diagnostic.rule = rule;
  diagnostic.severity = Severity::kError;
  diagnostic.message = std::move(message);
  report.add(std::move(diagnostic));
}

}  // namespace

std::vector<std::string> profile_rules() {
  return {"profile.conservation", "profile.total"};
}

void check_cycle_profile(const telemetry::CycleProfile& profile,
                         Report& report) {
  for (const telemetry::LayerCycleProfile& layer : profile.layers) {
    for (const telemetry::ComponentProfile& comp : layer.components) {
      const std::uint64_t sum = comp.bucket_sum();
      if (sum != comp.total_cycles) {
        add_error(report, "profile.conservation",
                  "layer '" + layer.layer + "' component " + comp.name +
                      ": buckets sum to " + std::to_string(sum) +
                      " cycles but the component was profiled for " +
                      std::to_string(comp.total_cycles));
      }
      if (comp.total_cycles != layer.total_cycles) {
        add_error(report, "profile.total",
                  "layer '" + layer.layer + "' component " + comp.name +
                      ": total " + std::to_string(comp.total_cycles) +
                      " disagrees with the layer total " +
                      std::to_string(layer.total_cycles));
      }
    }
  }
}

Report run_profile_check(const telemetry::CycleProfile& profile) {
  Report report;
  check_cycle_profile(profile, report);
  return report;
}

}  // namespace sealdl::verify
