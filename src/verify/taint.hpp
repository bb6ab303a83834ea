// Byte-provenance taint tracking for bus traffic.
//
// Every byte that crosses the DRAM bus is tagged at its source: plaintext
// secure weight, weight ciphertext, plaintext activation, activation
// ciphertext, counter metadata, or untagged. A TaintProbe classifies each
// transfer against the analyzer's address-region model (verify::AnalysisInput
// reproduces the exact layout the runner builds) and accumulates a per-line,
// per-direction TaintLedger; in functional mode it additionally captures the
// raw wire image of each line for known-plaintext cross-checks. The
// scheme.* rule family (verify/scheme_checkers.hpp) proves the per-scheme
// no-plaintext-leakage invariant on top of the ledger.
//
// TaintAuditor plugs the probe into a timing run through
// workload::BusProbeHook: one private probe per layer task, merged strictly
// in spec order from the submitting thread, so the ledger is bitwise
// identical for any --jobs value.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>

#include "crypto/modes.hpp"
#include "sim/bus_probe.hpp"
#include "sim/request.hpp"
#include "util/json.hpp"
#include "verify/analysis.hpp"
#include "verify/diagnostics.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::verify {

/// Source tag of a byte observed on the bus.
enum class TaintClass : std::uint8_t {
  kWeightPlain = 0,   ///< model weight bytes, plaintext on the wire
  kWeightCipher = 1,  ///< model weight bytes, ciphertext on the wire
  kFmapPlain = 2,     ///< activation (feature-map) bytes, plaintext
  kFmapCipher = 3,    ///< activation bytes, ciphertext
  kCounterMeta = 4,   ///< counter-mode metadata (reserved high region)
  kUntagged = 5,      ///< address outside every known region
};

inline constexpr std::size_t kTaintClassCount = 6;

[[nodiscard]] const char* taint_class_name(TaintClass cls);

/// Per-direction byte counts, indexed by TaintClass.
struct TaintCounts {
  std::array<std::uint64_t, kTaintClassCount> read{};
  std::array<std::uint64_t, kTaintClassCount> write{};
};

/// Per-line, per-direction taint accounting for one run (or one layer task).
/// Lines and captures are keyed by sorted std::map so every iteration —
/// checking, JSON rendering, digesting — is deterministic.
class TaintLedger {
 public:
  /// Raw wire image of a line (functional mode only); the last transfer wins,
  /// which mirrors what a bus snooper's most recent observation holds.
  struct WireImage {
    std::array<std::uint8_t, crypto::kLineBytes> bytes{};
    std::uint32_t size = 0;  ///< observed bytes (<= kLineBytes)
    bool encrypted = false;  ///< the transfer's encrypted flag
  };

  void record(sim::Addr line_addr, std::uint32_t bytes, bool is_write,
              TaintClass cls);
  void capture(sim::Addr line_addr, std::span<const std::uint8_t> wire,
               bool encrypted);

  /// Folds `other` into this ledger (per-line counts add; captures overwrite
  /// in `other`'s key order). Used by the spec-ordered merge.
  void merge_from(const TaintLedger& other);

  [[nodiscard]] const std::map<sim::Addr, TaintCounts>& lines() const {
    return lines_;
  }
  [[nodiscard]] const std::map<sim::Addr, WireImage>& captures() const {
    return captures_;
  }
  [[nodiscard]] const TaintCounts& totals() const { return totals_; }
  /// read + write bytes of one class.
  [[nodiscard]] std::uint64_t class_bytes(TaintClass cls) const;
  /// All bytes across classes and directions.
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// FNV-1a over the sorted per-line stream: a stable fingerprint the
  /// determinism gates compare across --jobs values.
  [[nodiscard]] std::uint64_t digest() const;

  /// One JSON object value: class totals per direction, line/capture counts,
  /// and the digest. Deterministic byte-for-byte.
  void write_json(util::JsonWriter& json) const;

 private:
  std::map<sim::Addr, TaintCounts> lines_;
  std::map<sim::Addr, WireImage> captures_;
  TaintCounts totals_;
};

/// BusProbe that classifies transfers against the analyzer's region model and
/// records them into a ledger. Classification is pure (no mutable state
/// beyond the ledger), so one probe per layer task plus an ordered merge
/// keeps the aggregate jobs-invariant.
class TaintProbe : public sim::BusProbe {
 public:
  /// Both pointers are borrowed and must outlive the probe.
  TaintProbe(const AnalysisInput* input, TaintLedger* ledger)
      : input_(input), ledger_(ledger) {}

  void on_transfer(sim::Addr line_addr, std::uint32_t bytes, bool is_write,
                   bool encrypted) override;
  void on_data(sim::Addr line_addr, std::span<const std::uint8_t> wire_bytes,
               bool is_write, bool encrypted) override;

  /// Source tag for a line: counter region -> kCounterMeta, then the region
  /// map decides weight/fmap/untagged and `encrypted` picks the variant.
  [[nodiscard]] TaintClass classify(sim::Addr line_addr, bool encrypted) const;

 private:
  const AnalysisInput* input_;
  TaintLedger* ledger_;
};

/// workload::BusProbeHook implementation: attaches one recording TaintProbe
/// per layer task and folds the task-private ledgers back in spec order.
/// All hook methods run on the submitting thread (see BusProbeHook), so the
/// auditor needs no locks and its ledger is identical for any --jobs.
class TaintAuditor final : public workload::BusProbeHook {
 public:
  /// `input` is borrowed; it must describe the same specs/plan options the
  /// audited run uses (verify::build_input reproduces the runner's layout
  /// bit-identically, which is what makes external classification sound).
  explicit TaintAuditor(const AnalysisInput* input) : input_(input) {}

  std::unique_ptr<sim::BusProbe> make_probe(std::size_t spec_index) override;
  void merge_probe(std::unique_ptr<sim::BusProbe> probe,
                   std::size_t spec_index) override;

  [[nodiscard]] const TaintLedger& ledger() const { return ledger_; }
  [[nodiscard]] const AnalysisInput& input() const { return *input_; }

  /// Ledger-only audit of a paper-scheme timing run: scheme.wire,
  /// scheme.boundary and the ledger-vs-controller clause of scheme.metadata
  /// for the paper registry entry (`scheme`, `selective`) names.
  /// `counter_traffic_bytes` is the controllers' own metadata accounting
  /// (summed sim::SimStats::counter_traffic_bytes). The tools audit through
  /// run_scheme_conformance() instead; this signature stays because the
  /// host-time benchmark (perfbench/) calls it and must keep building
  /// unchanged. Throws std::invalid_argument when no paper entry matches.
  [[nodiscard]] Report check(sim::EncryptionScheme scheme, bool selective,
                             std::uint64_t counter_traffic_bytes) const;

 private:
  const AnalysisInput* input_;
  TaintLedger ledger_;
};

}  // namespace sealdl::verify
