#include "sim/gpu_config.hpp"

namespace sealdl::sim {

const char* scheme_name(EncryptionScheme scheme) {
  switch (scheme) {
    case EncryptionScheme::kNone:
      return "Baseline";
    case EncryptionScheme::kDirect:
      return "Direct";
    case EncryptionScheme::kCounter:
      return "Counter";
  }
  return "?";
}

const char* protection_scope_name(ProtectionScope scope) {
  switch (scope) {
    case ProtectionScope::kNone:
      return "none";
    case ProtectionScope::kAll:
      return "all";
    case ProtectionScope::kPlanRows:
      return "plan-rows";
    case ProtectionScope::kWeights:
      return "weights";
  }
  return "?";
}

GpuConfig GpuConfig::gtx480() { return GpuConfig{}; }

}  // namespace sealdl::sim
