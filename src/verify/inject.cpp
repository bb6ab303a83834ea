#include "verify/inject.hpp"

namespace sealdl::verify {

namespace {

struct InjectionInfo {
  Injection injection;
  const char* name;
  std::vector<std::string> rules;
};

const std::vector<InjectionInfo>& table() {
  static const std::vector<InjectionInfo> kTable = {
      {Injection::kPlanShape, "plan-shape", {"plan.shape"}},
      {Injection::kPlanRatio, "plan-ratio", {"plan.ratio"}},
      {Injection::kPlanBoundary, "plan-boundary", {"plan.boundary"}},
      {Injection::kPlanClosure, "plan-closure", {"plan.closure"}},
      {Injection::kPlanResidual, "plan-residual", {"plan.residual"}},
      {Injection::kLayoutWeights, "layout-weights", {"layout.weights"}},
      {Injection::kLayoutAlign, "layout-align", {"layout.align"}},
      {Injection::kLayoutUntagged, "layout-untagged", {"layout.untagged"}},
      {Injection::kLayoutBounds, "layout-bounds", {"layout.bounds"}},
      {Injection::kLayoutOverlap, "layout-overlap", {"layout.overlap"}},
      {Injection::kLayoutAccount, "layout-account", {"layout.account"}},
      {Injection::kTraceMixed, "trace-mixed", {"trace.mixed"}},
      {Injection::kTraceBounds, "trace-bounds", {"trace.bounds"}},
      {Injection::kTraceWait, "trace-wait", {"trace.wait"}},
      {Injection::kTraceOrder, "trace-order", {"trace.order"}},
      {Injection::kTraceRegion, "trace-region", {"trace.region"}},
      // Staged in the functional scheme.* harness (run_functional_audit).
      {Injection::kAuditLeak, "audit-leak", {"scheme.wire"}},
      {Injection::kAuditBoundary, "audit-boundary", {"scheme.boundary"}},
      {Injection::kAuditCounter, "audit-counter", {"scheme.metadata"}},
      {Injection::kAuditOracle, "audit-oracle", {"scheme.oracle"}},
  };
  return kTable;
}

const InjectionInfo& info(Injection injection) {
  for (const auto& entry : table()) {
    if (entry.injection == injection) return entry;
  }
  static const InjectionInfo kNone = {Injection::kNone, "none", {}};
  return kNone;
}

}  // namespace

const std::vector<Injection>& all_injections() {
  static const std::vector<Injection> kAll = [] {
    std::vector<Injection> all;
    for (const auto& entry : table()) all.push_back(entry.injection);
    return all;
  }();
  return kAll;
}

const char* injection_name(Injection injection) { return info(injection).name; }

std::optional<Injection> injection_from_name(const std::string& name) {
  for (const auto& entry : table()) {
    if (name == entry.name) return entry.injection;
  }
  return std::nullopt;
}

std::vector<std::string> expected_rules(Injection injection) {
  return info(injection).rules;
}

bool requires_residual_topology(Injection injection) {
  return injection == Injection::kPlanResidual;
}

}  // namespace sealdl::verify
