#include "sim/scheme_model.hpp"

namespace sealdl::sim {

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

}  // namespace sealdl::sim
