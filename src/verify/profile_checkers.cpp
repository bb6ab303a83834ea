#include "verify/profile_checkers.hpp"

namespace sealdl::verify {

std::vector<std::string> profile_rules() {
  return {"profile.conservation", "profile.total"};
}

void check_cycle_profile(const telemetry::CycleProfile& profile,
                         Report& report) {
  for (const telemetry::LayerCycleProfile& layer : profile.layers) {
    for (const telemetry::ComponentProfile& comp : layer.components) {
      const std::uint64_t sum = comp.bucket_sum();
      if (sum != comp.total_cycles) {
        report.error("profile.conservation",
                     "layer '" + layer.layer + "' component " + comp.name +
                         ": buckets sum to " + std::to_string(sum) +
                         " cycles but the component was profiled for " +
                         std::to_string(comp.total_cycles));
      }
      if (comp.total_cycles != layer.total_cycles) {
        report.error("profile.total",
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
