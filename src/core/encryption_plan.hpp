// The criticality-aware Smart Encryption plan (paper §III-A/B).
//
// For each weight layer the plan records which kernel rows are encrypted.
// Row r encrypted in layer L implies input-feature-map channel r of layer L
// is encrypted too (it only ever meets row r in the convolution), so snooped
// plaintext never pairs with an encrypted operand and no secret can be solved
// for — the paper's two-layer argument around Equations (1)-(3).
//
// Boundary policy (§III-B1): the first two CONV layers, the last CONV layer
// and the final FC layer are always fully encrypted, preventing the adversary
// from solving weights through the known network input/output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/weight_layers.hpp"
#include "models/layer_spec.hpp"
#include "util/rng.hpp"

namespace sealdl::core {

/// How the plan picks which rows stay plaintext (ablation hook; the paper's
/// scheme is kSmallestL1Plain).
enum class RowPolicy {
  kSmallestL1Plain,  ///< leave the lowest-l1 rows unencrypted (SEAL)
  kRandomPlain,      ///< leave a random subset unencrypted
  kLargestL1Plain,   ///< security-inverted control: expose the biggest rows
};

struct PlanOptions {
  /// Fraction of kernel rows encrypted in each SE-scheme layer (paper default
  /// 0.5 after the §III-B calibration). Rounds up.
  double encryption_ratio = 0.5;
  /// Boundary layers that are always fully encrypted.
  int full_head_convs = 2;
  int full_tail_convs = 1;
  int full_tail_fcs = 1;
  RowPolicy policy = RowPolicy::kSmallestL1Plain;
  std::uint64_t random_seed = 11;  ///< for kRandomPlain
};

/// Per-layer slice of the plan.
struct LayerPlan {
  int rows = 0;
  bool fully_encrypted = false;
  /// encrypted_rows[r] != 0 iff kernel row r (== input channel r) is
  /// encrypted. Size == rows.
  std::vector<std::uint8_t> encrypted_rows;

  [[nodiscard]] int encrypted_count() const;
  [[nodiscard]] double encrypted_fraction() const;
  [[nodiscard]] bool row_encrypted(int r) const {
    return encrypted_rows[static_cast<std::size_t>(r)] != 0;
  }
};

class EncryptionPlan {
 public:
  EncryptionPlan() = default;

  /// Builds a plan from a trained model's actual weights (l1 ranking).
  static EncryptionPlan from_model(nn::Layer& model, const PlanOptions& options);

  /// Builds a geometry-only plan from per-layer row counts (used by the
  /// timing workloads, where only the encrypted fraction and placement
  /// matter, not which specific rows carry large weights). `is_conv` is
  /// parallel to `rows`.
  static EncryptionPlan from_row_counts(const std::vector<int>& rows,
                                        const std::vector<bool>& is_conv,
                                        const PlanOptions& options);

  /// Geometry-only plan for a LayerSpec chain: one plan layer per CONV/FC
  /// spec (POOLs excluded), rows = input channels / features. This is the
  /// single construction path shared by the network runner and the static
  /// analyzer, so both always reason about the same plan.
  static EncryptionPlan for_specs(const std::vector<models::LayerSpec>& specs,
                                  const PlanOptions& options);

  [[nodiscard]] const std::vector<LayerPlan>& layers() const { return layers_; }
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] const LayerPlan& layer(std::size_t i) const { return layers_.at(i); }

  /// Overall fraction of weight parameters encrypted (weighted by layer
  /// weight counts when built from a model; by rows otherwise).
  [[nodiscard]] double overall_encrypted_weight_fraction() const {
    return overall_fraction_;
  }

  [[nodiscard]] const PlanOptions& options() const { return options_; }

  /// Provenance query for the taint analyzer: true iff kernel row `row` of
  /// weight layer `layer` must be ciphertext on the bus under a selective
  /// scheme. Out-of-range layers/rows report false rather than throwing —
  /// a malformed plan must degrade into diagnostics, not crash the auditor.
  [[nodiscard]] bool row_protected(std::size_t layer, int row) const;

  /// The deliberately-unprotected rows of weight layer `layer`, ascending —
  /// SEAL's exact intended leakage boundary. scheme.boundary proves the
  /// plaintext rows observed on the bus equal this set, no more, no less.
  [[nodiscard]] std::vector<int> plaintext_rows(std::size_t layer) const;

  /// Mutable access to the per-layer slices. Exists for the analyzer's
  /// seeded-violation self-tests (sealdl-check --inject), which corrupt a
  /// real plan to prove every rule can fire; production code never mutates
  /// a built plan.
  [[nodiscard]] std::vector<LayerPlan>& mutable_layers() { return layers_; }

 private:
  static void apply_policy(LayerPlan& plan, const std::vector<float>& norms,
                           const PlanOptions& options, util::Rng& rng);

  std::vector<LayerPlan> layers_;
  PlanOptions options_;
  double overall_fraction_ = 0.0;
};

/// The §III-B boundary policy as a mask: full[i] is true iff weight layer i
/// (CONV/FC order, POOLs excluded) must be fully encrypted. Exposed so the
/// static analyzer checks the policy against the same definition the plan
/// builder uses.
std::vector<bool> boundary_layers(const std::vector<bool>& is_conv,
                                  const PlanOptions& options);

}  // namespace sealdl::core
