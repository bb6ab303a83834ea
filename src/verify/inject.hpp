// Seeded-violation self-tests: one injection table and one outcome ledger
// behind every `--inject*` flag.
//
// A static analyzer that never fires is indistinguishable from one that
// checks nothing, so every rule has at least one injection: a deliberate,
// minimal corruption that must make the rule report. The corruptions live
// next to the data they corrupt (the plan / secure map / analyzer model in
// analysis.cpp, the trace stream in trace_checkers.cpp, the functional
// audit harness and run evidence in scheme_checkers.cpp, the cycle profile
// in sealdl-sim, the fleet report in sealdl-serve); this table names them,
// says which flag stages each one and which rules it must fire, and says
// where it applies. SelfTest runs a selection of rows and keeps the ledger
// that tests and CI assert (exercised + skipped == total, nothing missed).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheme_model.hpp"
#include "verify/diagnostics.hpp"

namespace sealdl::verify {

/// The flag, and binary, that stages an injection.
enum class InjectFlag {
  kInject,         ///< sealdl-check --inject
  kInjectScheme,   ///< sealdl-sim --inject-scheme
  kInjectProfile,  ///< sealdl-sim --inject-profile
  kInjectFleet,    ///< sealdl-serve --inject-fleet
};

enum class Injection {
  kNone,
  // --- sealdl-check --inject -------------------------------------------------
  kPlanShape,      ///< truncate a layer's encrypted_rows vector
  kPlanRatio,      ///< strip encryption from a non-boundary layer
  kPlanBoundary,   ///< strip encryption from a boundary layer
  kPlanClosure,    ///< un-mark one encrypted fmap channel (dropped propagation)
  kPlanResidual,   ///< swap an encrypted row out of a residual block's plan
  kLayoutWeights,  ///< un-mark one encrypted weight row
  kLayoutAlign,    ///< mark an unaligned secure sub-range in a weight region
  kLayoutUntagged, ///< forget a region, orphaning its secure ranges
  kLayoutBounds,   ///< mark a secure range beyond the allocated heap
  kLayoutOverlap,  ///< stretch one model region over its neighbour
  kLayoutAccount,  ///< add an aligned stray secure line inside a plain row
  kTraceBounds,    ///< rewrite some trace loads to out-of-heap addresses
  kTraceWait,      ///< raise a WaitLoads threshold beyond any possible depth
  kTraceOrder,     ///< drop the WaitLoads barriers before output stores
  kTraceRegion,    ///< shift output stores into a foreign region
  kAuditLeak,      ///< un-mark a protected weight row: its plaintext hits the bus
  kAuditBoundary,  ///< force-encrypt a deliberately-plain row: boundary shrinks
  kAuditCounter,   ///< detach the probe before the counter flush
  kAuditOracle,    ///< forge a capture whose encrypted flag lies about the wire
  // --- sealdl-sim --inject-scheme (run_scheme_injection) --------------------
  kSchemeWire,      ///< record plaintext bytes on a must-cipher line
  kSchemeBoundary,  ///< record plaintext bytes inside a protected weight row
  kSchemeMetadata,  ///< perturb the controllers' counter-traffic accounting
  kSchemeCoverage,  ///< claim one encrypted byte the controllers never saw
  kSchemeTiming,    ///< falsify the contract's declared serialization shape
  kSchemeRegistry,  ///< duplicate a CLI name in a copy of the registry table
  // --- sealdl-sim --inject-profile ------------------------------------------
  kProfileConservation,  ///< add one cycle to a bucket: sum != total
  kProfileTotal,         ///< add one cycle to a bucket and its total
  // --- sealdl-serve --inject-fleet ------------------------------------------
  kFleetRequests,  ///< one phantom completion on device 0
  kFleetBatches,   ///< one phantom batch on device 0
  kFleetStages,    ///< stretch the lifecycle stage sum past the latency sum
  kFleetDevices,   ///< renumber device 0
};

/// What a row needs from its target to be staged at all.
enum class Needs {
  kNothing,
  kResidualTopology,  ///< a ResNet-style identity block
  kMustCipher,        ///< a must-cipher wire side (any scope but none)
};

/// One row of the injection table.
struct InjectionInfo {
  Injection id;
  InjectFlag flag;
  const char* name;                ///< the value its flag accepts
  std::vector<std::string> fires;  ///< rules it is guaranteed to fire (it may
                                   ///< fire others too)
  Needs needs = Needs::kNothing;
  /// Registry CLI name of the scheme whose functional transcript an audit-*
  /// row corrupts (scheme.* consumes a bus ledger, not the model alone).
  const char* audit_scheme = nullptr;
};

/// Every injection, grouped by flag.
[[nodiscard]] const std::vector<InjectionInfo>& injection_table();

/// The row of `id` (kNone has a row-less placeholder named "none").
[[nodiscard]] const InjectionInfo& injection_info(Injection id);

/// The flag as --list-rules prints it: sealdl-check's own flag bare, the
/// others prefixed with their binary.
[[nodiscard]] const char* inject_flag_usage(InjectFlag flag);

/// Parses a flag value: one of the flag's row names, or "all" for the two
/// flags that run a whole suite (--inject, --inject-scheme). Throws
/// std::invalid_argument naming the flag and every accepted value.
[[nodiscard]] std::vector<Injection> select_injections(InjectFlag flag,
                                                       const std::string& value);

/// What a ledger is about, and what the applicability columns test against.
struct SelfTestTarget {
  std::string tool{};      ///< JSON "tool"
  std::string mode{};      ///< JSON "mode", e.g. "inject-all"
  std::string workload{};  ///< JSON "workload"
  std::string scheme{};    ///< JSON "scheme" when non-empty
  bool residual_topology = true;  ///< the workload has identity blocks
  sim::ProtectionScope scope = sim::ProtectionScope::kAll;  ///< audited scope
};

/// The self-test ledger: stages each selected injection, demands its rules,
/// prints one `caught` / `MISSED` / `skip` line per injection and a summary,
/// and renders the JSON ledger. Every selected injection is recorded exactly
/// once, so exercised + skipped == total holds by construction.
class SelfTest {
 public:
  /// Stages one injection and returns the report its corruption produced.
  using Stage = std::function<Report(Injection)>;

  explicit SelfTest(SelfTestTarget target) : target_(std::move(target)) {}

  /// Runs `selected` in order; rows that do not apply to the target are
  /// skipped with a reason and never staged. Returns true iff none missed.
  bool run(const std::vector<Injection>& selected, const Stage& stage);

  [[nodiscard]] std::uint64_t total() const { return outcomes_.size(); }
  [[nodiscard]] std::uint64_t exercised() const { return total() - skipped(); }
  [[nodiscard]] std::uint64_t skipped() const;
  [[nodiscard]] std::uint64_t missed() const;

  /// The JSON ledger: tool, schema_version, mode, workload, [scheme], total,
  /// exercised, skipped, missed, injections[].
  [[nodiscard]] std::string to_json() const;

 private:
  enum class Status { kCaught, kMissed, kSkipped };
  struct Outcome {
    const InjectionInfo* info;
    Status status;
    std::string reason;  ///< only for kSkipped
    std::uint64_t errors = 0;
    std::uint64_t warnings = 0;
  };

  SelfTestTarget target_;
  std::vector<Outcome> outcomes_;
};

}  // namespace sealdl::verify
