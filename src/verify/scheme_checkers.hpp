// The scheme.* rule family: conformance of any registered secure-memory
// scheme against the obligations its registry row implies, and the
// repository's one proof that protected bytes cross the bus as ciphertext.
//
// A scheme is its row (sim/scheme_registry.hpp): every clause below is
// derived from the row's cipher family and protection scope, and proved
// against the evidence of a real run — the byte-provenance taint ledger
// (verify/taint.hpp), the controllers' SimStats accounting, and a timing
// micro-probe through a real MemoryController. A scheme added to the
// registry is covered with no checker changes.
//
//   family   metadata          AES occupancy   secure read shape
//   kNone    none              none            passthrough (plain DRAM)
//   kDirect  none              every enc. byte AES after the data arrives
//   kCounter counter lines     every enc. byte pad overlaps the data fetch;
//                                              hidden on a counter hit, +1 XOR
//
//   scope      must be ciphertext on the wire
//   kNone      nothing (every data byte plaintext)
//   kAll       every data byte
//   kPlanRows  the plan's protected rows/channels (and the output buffer)
//   kWeights   every weight byte; feature maps plaintext
//
//   scheme.registry  static table consistency: unique CLI and display names,
//                    both spellings round-trip through find_scheme(), and
//                    family is kNone iff scope is kNone.
//   scheme.wire      ledger bytes sit on the side the scope requires (plan
//                    rows follow the plan's rows/channels; weights-only
//                    splits by region kind; none/all admit no wrong-side
//                    bytes at all); bytes outside every known region are a
//                    warning.
//   scheme.boundary  row-level protection boundary over weight regions:
//                    the observed plaintext/ciphertext row sets match the
//                    scope (plan rows / all / none / every weight row); over
//                    a functional transcript every row must be observed.
//   scheme.metadata  metadata-traffic reconciliation: counter_traffic ==
//                    fills + writebacks + flushes, fills == misses x line,
//                    ledger counter-region bytes == controller accounting —
//                    and all of it zero unless the family is kCounter.
//   scheme.coverage  SimStats identities: encrypted + bypassed bytes
//                    partition the secure-capable traffic per scope, and AES
//                    occupancy is paid iff the family is not kNone.
//   scheme.timing    serialization-shape micro-probe: a fresh controller per
//                    entry measures a secure line read against the plain
//                    baseline and holds it to a claimed family's shape
//                    (normally the entry's own).
//   scheme.oracle    known-plaintext cross-check over a functional
//                    transcript's wire captures: a transfer whose encrypted
//                    flag claims ciphertext must not carry the known
//                    plaintext, and a plaintext-flagged one must carry
//                    exactly it — catches "the flag lied" bugs the
//                    flag-trusting rules cannot see.
//
// Two sources of evidence:
//   * a timing run: a TaintAuditor records the live bus traffic, and
//     run_scheme_conformance() proves the run (sealdl-sim / sealdl-serve
//     --scheme-audit);
//   * run_functional_audit(): a self-contained functional transcript per
//     paper registry entry — a known pseudorandom plaintext image written
//     through sim::FunctionalMemory and read back with a TaintProbe
//     attached, touching every weight row — plus a counter-mode replay
//     through a real sim::MemoryController (counter cache + end-of-run
//     flush) for the metadata reconciliation (sealdl-check --scheme-audit).
//
// Every rule has a seeded violation: --inject-scheme (sealdl-sim) corrupts
// the evidence of a clean run, and the four audit-* injections of
// sealdl-check --inject corrupt the secure map or the functional harness.
// A checker that never fires is indistinguishable from one that checks
// nothing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/gpu_config.hpp"
#include "sim/scheme_registry.hpp"
#include "sim/sim_stats.hpp"
#include "verify/analysis.hpp"
#include "verify/diagnostics.hpp"
#include "verify/inject.hpp"
#include "verify/taint.hpp"

namespace sealdl::verify {

/// Rule ids of the scheme.* family (for --list-rules and the catalog test).
[[nodiscard]] std::vector<std::string> scheme_rules();

/// Post-run evidence one conformance pass consumes: the analyzer model of
/// the audited network, the run's taint ledger, and the summed SimStats of
/// every layer (carrying the controllers' metadata decomposition).
struct SchemeRunEvidence {
  const AnalysisInput* input = nullptr;  ///< regions + plan (borrowed)
  const TaintLedger* ledger = nullptr;   ///< run traffic (borrowed)
  sim::SimStats stats;                   ///< summed over the run's layers
  sim::GpuConfig config;                 ///< the config that ran
  /// The ledger comes from a functional transcript that touched every weight
  /// row, so scheme.boundary also reports a row it never observed.
  bool full_coverage = false;
};

// --- static rules -----------------------------------------------------------

/// Validates a registry table (normally sim::scheme_registry(); injections
/// pass a corrupted copy).
void check_scheme_registry(std::span<const sim::SchemeInfo> entries,
                           Report& report);

/// Micro-probes `entry`'s secure read path through a fresh MemoryController
/// and holds the measured serialization against the read shape of the
/// `claimed` family (normally entry.family; injections pass another).
void check_scheme_timing(const sim::SchemeInfo& entry,
                         sim::EncryptionScheme claimed, Report& report);

// --- post-run rules ---------------------------------------------------------

void check_scheme_wire(const sim::SchemeInfo& entry,
                       const SchemeRunEvidence& evidence, Report& report);
void check_scheme_boundary(const sim::SchemeInfo& entry,
                           const SchemeRunEvidence& evidence, Report& report);
void check_scheme_metadata(const sim::SchemeInfo& entry,
                           const SchemeRunEvidence& evidence, Report& report);
void check_scheme_coverage(const sim::SchemeInfo& entry,
                           const SchemeRunEvidence& evidence, Report& report);
/// Known-plaintext cross-check over the ledger's wire captures (only a
/// functional transcript captures wire images; a timing ledger has none).
void check_scheme_oracle(const SchemeRunEvidence& evidence, Report& report);

/// The ledger-vs-controller clause of scheme.metadata on its own: the
/// ledger's counter-region bytes must equal the controllers' metadata
/// accounting, and both must be zero outside the counter family.
void check_scheme_metadata_ledger(const sim::SchemeInfo& entry,
                                  const TaintLedger& ledger,
                                  std::uint64_t controller_counter_bytes,
                                  Report& report);

/// Runs every timing-run scheme.* rule for one registered scheme over one
/// run's evidence: the registry and timing statics plus the four post-run
/// clauses (scheme.oracle needs a functional transcript).
[[nodiscard]] Report run_scheme_conformance(const sim::SchemeInfo& entry,
                                            const SchemeRunEvidence& evidence);

// --- functional harness -----------------------------------------------------

/// Functional transcript of every paper registry entry (SEAL-D/SEAL-C only
/// when `input` carries a plan), or of `only` when given, checked by
/// scheme.wire, scheme.boundary (full coverage) and scheme.oracle; a
/// counter-family entry adds the counter replay, checked by
/// scheme.metadata. Honors input.inject for the injections staged inside the
/// harness (kAuditCounter detaches the probe before the counter flush;
/// kAuditOracle forges a capture whose encrypted flag lies). Returns the
/// number of schemes transcribed.
int run_functional_audit(const AnalysisInput& input, Report& report,
                         const sim::SchemeInfo* only = nullptr);

// --- seeded violations (--inject-scheme) ------------------------------------

/// Applies an --inject-scheme `injection` to copies of the entry/evidence
/// and runs the targeted checker(s); the returned report must contain the
/// rules its table row fires. kSchemeWire/kSchemeBoundary need a scheme
/// whose scope has a must-cipher side (any entry except baseline).
/// Throws std::invalid_argument for an injection of another flag.
[[nodiscard]] Report run_scheme_injection(Injection injection,
                                          const sim::SchemeInfo& entry,
                                          const SchemeRunEvidence& evidence);

}  // namespace sealdl::verify
