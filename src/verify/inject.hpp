// Seeded-violation self-test support (`sealdl-check --inject`).
//
// A static analyzer that never fires is indistinguishable from one that
// checks nothing, so every rule has at least one injection: a deliberate,
// minimal corruption of the plan / secure map / analyzer model / trace
// stream that must make the rule report. expected_rules() documents the
// contract, and tests + CI assert it.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace sealdl::verify {

enum class Injection {
  kNone,
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
  kTraceMixed,     ///< alias of kPlanClosure seen from the trace side
  kTraceBounds,    ///< rewrite some trace loads to out-of-heap addresses
  kTraceWait,      ///< raise a WaitLoads threshold beyond any possible depth
  kTraceOrder,     ///< drop the WaitLoads barriers before output stores
  kTraceRegion,    ///< shift output stores into a foreign region
  kAuditLeak,      ///< un-mark a protected weight row: its plaintext hits the bus
  kAuditBoundary,  ///< force-encrypt a deliberately-plain row: boundary shrinks
  kAuditCounter,   ///< detach the probe before the counter flush
  kAuditOracle,    ///< forge a capture whose encrypted flag lies about the wire
};

/// All injections, in declaration order (excluding kNone).
[[nodiscard]] const std::vector<Injection>& all_injections();

/// CLI name of an injection, e.g. "plan-closure".
[[nodiscard]] const char* injection_name(Injection injection);

/// Parses a CLI name; nullopt if unknown.
[[nodiscard]] std::optional<Injection> injection_from_name(const std::string& name);

/// Rule ids this injection is guaranteed to fire (it may fire others too —
/// e.g. dropping a channel propagation breaks both plan closure and the
/// trace-level mixed-operand invariant).
[[nodiscard]] std::vector<std::string> expected_rules(Injection injection);

/// True for injections that require a ResNet-style residual topology.
[[nodiscard]] bool requires_residual_topology(Injection injection);

}  // namespace sealdl::verify
