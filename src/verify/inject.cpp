#include "verify/inject.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace sealdl::verify {

namespace {

constexpr InjectFlag kCheck = InjectFlag::kInject;
constexpr InjectFlag kScheme = InjectFlag::kInjectScheme;
constexpr InjectFlag kProfile = InjectFlag::kInjectProfile;
constexpr InjectFlag kFleet = InjectFlag::kInjectFleet;

}  // namespace

const std::vector<InjectionInfo>& injection_table() {
  static const std::vector<InjectionInfo> kTable = {
      {Injection::kPlanShape, kCheck, "plan-shape", {"plan.shape"}},
      {Injection::kPlanRatio, kCheck, "plan-ratio", {"plan.ratio"}},
      {Injection::kPlanBoundary, kCheck, "plan-boundary", {"plan.boundary"}},
      // A dropped channel propagation breaks plan closure and, seen from
      // the trace side, the mixed-operand invariant.
      {Injection::kPlanClosure, kCheck, "plan-closure",
       {"plan.closure", "trace.mixed"}},
      {Injection::kPlanResidual, kCheck, "plan-residual", {"plan.residual"},
       Needs::kResidualTopology},
      {Injection::kLayoutWeights, kCheck, "layout-weights", {"layout.weights"}},
      {Injection::kLayoutAlign, kCheck, "layout-align", {"layout.align"}},
      {Injection::kLayoutUntagged, kCheck, "layout-untagged",
       {"layout.untagged"}},
      {Injection::kLayoutBounds, kCheck, "layout-bounds", {"layout.bounds"}},
      {Injection::kLayoutOverlap, kCheck, "layout-overlap", {"layout.overlap"}},
      {Injection::kLayoutAccount, kCheck, "layout-account", {"layout.account"}},
      {Injection::kTraceBounds, kCheck, "trace-bounds", {"trace.bounds"}},
      {Injection::kTraceWait, kCheck, "trace-wait", {"trace.wait"}},
      {Injection::kTraceOrder, kCheck, "trace-order", {"trace.order"}},
      {Injection::kTraceRegion, kCheck, "trace-region", {"trace.region"}},
      {Injection::kAuditLeak, kCheck, "audit-leak", {"scheme.wire"},
       Needs::kNothing, "seal-d"},
      {Injection::kAuditBoundary, kCheck, "audit-boundary", {"scheme.boundary"},
       Needs::kNothing, "seal-d"},
      {Injection::kAuditCounter, kCheck, "audit-counter", {"scheme.metadata"},
       Needs::kNothing, "counter"},
      {Injection::kAuditOracle, kCheck, "audit-oracle", {"scheme.oracle"},
       Needs::kNothing, "seal-d"},
      {Injection::kSchemeWire, kScheme, "scheme-wire", {"scheme.wire"},
       Needs::kMustCipher},
      {Injection::kSchemeBoundary, kScheme, "scheme-boundary",
       {"scheme.boundary"}, Needs::kMustCipher},
      {Injection::kSchemeMetadata, kScheme, "scheme-metadata",
       {"scheme.metadata"}},
      {Injection::kSchemeCoverage, kScheme, "scheme-coverage",
       {"scheme.coverage"}},
      {Injection::kSchemeTiming, kScheme, "scheme-timing", {"scheme.timing"}},
      {Injection::kSchemeRegistry, kScheme, "scheme-registry",
       {"scheme.registry"}},
      {Injection::kProfileConservation, kProfile, "conservation",
       {"profile.conservation"}},
      {Injection::kProfileTotal, kProfile, "total", {"profile.total"}},
      {Injection::kFleetRequests, kFleet, "requests", {"fleet.requests"}},
      {Injection::kFleetBatches, kFleet, "batches", {"fleet.batches"}},
      {Injection::kFleetStages, kFleet, "stages", {"fleet.stages"}},
      {Injection::kFleetDevices, kFleet, "devices", {"fleet.devices"}},
  };
  return kTable;
}

const InjectionInfo& injection_info(Injection id) {
  for (const InjectionInfo& row : injection_table()) {
    if (row.id == id) return row;
  }
  static const InjectionInfo kNone = {Injection::kNone, kCheck, "none", {}};
  return kNone;
}

const char* inject_flag_usage(InjectFlag flag) {
  switch (flag) {
    case InjectFlag::kInject: return "--inject";
    case InjectFlag::kInjectScheme: return "sealdl-sim --inject-scheme";
    case InjectFlag::kInjectProfile: return "sealdl-sim --inject-profile";
    case InjectFlag::kInjectFleet: return "sealdl-serve --inject-fleet";
  }
  return "?";
}

std::vector<Injection> select_injections(InjectFlag flag,
                                         const std::string& value) {
  const bool accepts_all =
      flag == InjectFlag::kInject || flag == InjectFlag::kInjectScheme;
  std::vector<Injection> all;
  std::string names = accepts_all ? "all" : "";
  for (const InjectionInfo& row : injection_table()) {
    if (row.flag != flag) continue;
    if (value == row.name) return {row.id};
    all.push_back(row.id);
    if (!names.empty()) names += '|';
    names += row.name;
  }
  if (accepts_all && value == "all") return all;
  // The bare flag: its usage without the binary prefix.
  const char* flag_name = std::strstr(inject_flag_usage(flag), "--");
  throw std::invalid_argument("unknown " + std::string(flag_name) + " " +
                              value + " (" + names + ")");
}

bool SelfTest::run(const std::vector<Injection>& selected, const Stage& stage) {
  for (const Injection id : selected) {
    const InjectionInfo& info = injection_info(id);
    Outcome outcome{&info, Status::kCaught, {}};
    if (info.needs == Needs::kResidualTopology && !target_.residual_topology) {
      outcome.reason = "no residual topology in " + target_.workload;
    } else if (info.needs == Needs::kMustCipher &&
               target_.scope == sim::ProtectionScope::kNone) {
      // No line is required to be ciphertext, so there is no line whose
      // corruption the rule could object to.
      outcome.reason = std::string("no must-cipher lines under scope ") +
                       sim::protection_scope_name(target_.scope);
    }
    if (!outcome.reason.empty()) {
      outcome.status = Status::kSkipped;
      std::printf("skip    %-18s (%s)\n", info.name, outcome.reason.c_str());
      outcomes_.push_back(std::move(outcome));
      continue;
    }
    const Report report = stage(id);
    for (const std::string& rule : info.fires) {
      if (!report.fired(rule)) {
        std::printf("MISSED  %-18s rule %s did not fire\n", info.name,
                    rule.c_str());
        outcome.status = Status::kMissed;
      }
    }
    outcome.errors = report.error_count();
    outcome.warnings = report.warning_count();
    if (outcome.status == Status::kCaught) {
      std::printf("caught  %-18s (%llu errors, %llu warnings)\n", info.name,
                  static_cast<unsigned long long>(outcome.errors),
                  static_cast<unsigned long long>(outcome.warnings));
    }
    outcomes_.push_back(std::move(outcome));
  }
  const std::string label =
      target_.scheme.empty() ? target_.workload
                             : target_.workload + "/" + target_.scheme;
  std::printf("%s: %llu injections exercised, %llu skipped, %llu total, %s\n",
              label.c_str(), static_cast<unsigned long long>(exercised()),
              static_cast<unsigned long long>(skipped()),
              static_cast<unsigned long long>(total()),
              missed() == 0 ? "all caught" : "SOME MISSED");
  return missed() == 0;
}

std::uint64_t SelfTest::skipped() const {
  std::uint64_t n = 0;
  for (const Outcome& o : outcomes_) n += o.status == Status::kSkipped ? 1 : 0;
  return n;
}

std::uint64_t SelfTest::missed() const {
  std::uint64_t n = 0;
  for (const Outcome& o : outcomes_) n += o.status == Status::kMissed ? 1 : 0;
  return n;
}

std::string SelfTest::to_json() const {
  static constexpr const char* kStatus[] = {"caught", "missed", "skipped"};
  util::JsonWriter json;
  json.begin_object();
  json.field("tool", target_.tool);
  json.field("schema_version", 1);
  json.field("mode", target_.mode);
  json.field("workload", target_.workload);
  if (!target_.scheme.empty()) json.field("scheme", target_.scheme);
  json.field("total", total());
  json.field("exercised", exercised());
  json.field("skipped", skipped());
  json.field("missed", missed());
  json.key("injections");
  json.begin_array();
  for (const Outcome& o : outcomes_) {
    json.begin_object();
    json.field("name", o.info->name);
    json.field("status", kStatus[static_cast<int>(o.status)]);
    if (o.status == Status::kSkipped) {
      json.field("reason", o.reason);
    } else {
      json.field("errors", o.errors);
      json.field("warnings", o.warnings);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace sealdl::verify
