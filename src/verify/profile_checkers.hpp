// Invariant checks over cycle-attribution profiles — the `profile.*` rule
// family.
//
// The profiler (telemetry/profiler.hpp) claims an exact partition: every
// simulated cycle of every component lands in exactly one bucket. These
// rules prove it on the emitted data, so a future attribution bug (a span
// double-counted, a drain tail dropped) fails loudly instead of producing a
// quietly-wrong flamegraph. sealdl-sim runs them on every profiled run and
// supports seeded violations (--inject-profile) that must be caught, the
// same self-test discipline as sealdl-check --inject. Rule catalog
// (docs/ANALYSIS.md):
//
//   profile.conservation   per-component buckets sum exactly to the
//                          component's total profiled cycles
//   profile.total          every component of a layer agrees on the layer's
//                          total cycle count
#pragma once

#include <string>
#include <vector>

#include "telemetry/profiler.hpp"
#include "verify/diagnostics.hpp"

namespace sealdl::verify {

/// Rule ids the family can emit, in catalog order (for --list-rules).
std::vector<std::string> profile_rules();

/// Appends one error diagnostic per violated conservation/total rule.
void check_cycle_profile(const telemetry::CycleProfile& profile,
                         Report& report);

/// Convenience wrapper returning a fresh report.
[[nodiscard]] Report run_profile_check(const telemetry::CycleProfile& profile);

}  // namespace sealdl::verify
