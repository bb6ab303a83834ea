// The single source of truth for every secure-memory scheme the toolchain
// knows. A scheme is its row: CLI spelling, display name, cipher family
// (none, direct, or counter with a counter cache) and protection scope
// (nothing, everything, SEAL's plan rows, or weights only). Everything else
// follows from those two choices: the MemoryController times a secure line
// by switching on the family, and the scheme.* analyzer
// (verify/scheme_checkers.hpp) derives every obligation it checks — wire
// side, boundary, metadata, AES occupancy, read serialization — from the
// family and the scope.
//
// `GpuConfig`, `sealdl-sim`, `sealdl-serve`, `sealdl-check`, and the benches
// all resolve schemes by name through this table, so adding a scheme is one
// row here and cannot desync `--scheme` parsing, report provenance, and the
// conformance analyzer — scheme.registry plus the rule-catalog drift gates
// fail the build on a missing or inconsistent entry.
#pragma once

#include <span>
#include <string_view>

#include "sim/gpu_config.hpp"

namespace sealdl::sim {

/// One registered scheme. `cli_name` is the canonical `--scheme` spelling;
/// `display` is the human/provenance name (reports, bench tables).
struct SchemeInfo {
  const char* cli_name;
  const char* display;
  EncryptionScheme family;  ///< cipher mode the controller times
  ProtectionScope scope;    ///< what the scheme protects
  bool paper;               ///< one of the paper's five schemes (fig benches)
  bool split_counters = false;  ///< 1-byte counters (GpuConfig::split_counters)

  /// Whether the scheme needs a SecureMap (any scope narrower than "all").
  [[nodiscard]] bool selective() const {
    return scope == ProtectionScope::kPlanRows ||
           scope == ProtectionScope::kWeights;
  }
};

/// All registered schemes, in canonical (paper-first) order.
[[nodiscard]] std::span<const SchemeInfo> scheme_registry();

/// Looks up a scheme by CLI or display name (exact match, both spellings);
/// returns nullptr when unknown.
[[nodiscard]] const SchemeInfo* find_scheme(std::string_view name);

/// find_scheme() for a `--scheme` flag value: throws std::invalid_argument
/// listing every registered CLI name when `name` is unknown, so the message
/// can never drift from the accepted set.
[[nodiscard]] const SchemeInfo& parse_scheme(std::string_view name);

/// Configures `config` to run `info`: sets the scheme family, the selective
/// flag, and the counter layout.
void apply_scheme(const SchemeInfo& info, GpuConfig& config);

}  // namespace sealdl::sim
