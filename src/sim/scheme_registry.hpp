// The single source of truth for every secure-memory scheme the toolchain
// knows: CLI spelling, display name, EncryptionScheme family, protection
// scope, and the SchemeModel singleton that times it.
//
// `GpuConfig`, `sealdl-sim`, `sealdl-serve`, `sealdl-check`, and the benches
// all resolve schemes by name through this table, so adding a scheme is one
// row here (plus its model) and cannot desync `--scheme` parsing, report
// provenance, and the conformance analyzer — scheme.registry plus the
// rule-catalog drift gates fail the build on a missing or inconsistent entry.
#pragma once

#include <span>
#include <string_view>

#include "sim/gpu_config.hpp"
#include "sim/scheme_model.hpp"

namespace sealdl::sim {

/// One registered scheme. `cli_name` is the canonical `--scheme` spelling;
/// `display` is the human/provenance name (reports, bench tables).
struct SchemeInfo {
  const char* cli_name;
  const char* display;
  EncryptionScheme family;  ///< timing family the controller enum still names
  ProtectionScope scope;    ///< what the scheme protects
  const SchemeModel* model; ///< registry-owned singleton, never null
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

/// The registry entry whose model a config resolves to when no explicit
/// model was applied: the canonical full-coverage entry of each family.
[[nodiscard]] const SchemeInfo& default_scheme_for(EncryptionScheme family);

/// Configures `config` to run `info`: sets the scheme family, the selective
/// flag, and the model pointer the MemoryController dispatches through.
void apply_scheme(const SchemeInfo& info, GpuConfig& config);

}  // namespace sealdl::sim
