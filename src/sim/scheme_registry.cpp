#include "sim/scheme_registry.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

namespace sealdl::sim {
namespace {

// Paper schemes first (the order the fig benches sweep), the others after.
constexpr int kNumSchemes = 7;
const std::array<SchemeInfo, kNumSchemes> g_registry{{
    {"baseline", "Baseline", EncryptionScheme::kNone, ProtectionScope::kNone,
     /*paper=*/true},
    {"direct", "Direct", EncryptionScheme::kDirect, ProtectionScope::kAll,
     /*paper=*/true},
    {"counter", "Counter", EncryptionScheme::kCounter, ProtectionScope::kAll,
     /*paper=*/true},
    {"seal-d", "SEAL-D", EncryptionScheme::kDirect, ProtectionScope::kPlanRows,
     /*paper=*/true},
    {"seal-c", "SEAL-C", EncryptionScheme::kCounter, ProtectionScope::kPlanRows,
     /*paper=*/true},
    // Counter mode with split counters (Yan et al.): Counter's timing, with
    // one counter byte per data line instead of eight.
    {"split-counter", "Split-Counter", EncryptionScheme::kCounter,
     ProtectionScope::kAll, /*paper=*/false, /*split_counters=*/true},
    // GuardNN-style: Direct timing over a structural weights-only boundary.
    {"guardnn", "GuardNN", EncryptionScheme::kDirect, ProtectionScope::kWeights,
     /*paper=*/false},
}};

}  // namespace

std::span<const SchemeInfo> scheme_registry() { return g_registry; }

const SchemeInfo* find_scheme(std::string_view name) {
  const auto it = std::find_if(
      g_registry.begin(), g_registry.end(), [&](const SchemeInfo& info) {
        return name == info.cli_name || name == info.display;
      });
  return it == g_registry.end() ? nullptr : &*it;
}

const SchemeInfo& parse_scheme(std::string_view name) {
  if (const SchemeInfo* entry = find_scheme(name)) return *entry;
  std::string names;
  for (const SchemeInfo& info : g_registry) {
    if (!names.empty()) names += '|';
    names += info.cli_name;
  }
  throw std::invalid_argument("unknown --scheme " + std::string(name) + " (" +
                              names + ")");
}

void apply_scheme(const SchemeInfo& info, GpuConfig& config) {
  config.scheme = info.family;
  config.selective = info.selective();
  config.split_counters = info.split_counters;
}

}  // namespace sealdl::sim
