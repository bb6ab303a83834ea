// Model of one network-under-check: the plan, the laid-out address space,
// the analyzer's region map, and the residual topology.
//
// build_input() mirrors the exact pipeline the timing runner executes
// (core::EncryptionPlan::for_specs -> core::ModelLayout on a SecureHeap) and
// then derives the analyzer-side model: a sorted list of address regions
// (per-layer weight arrays and feature maps) that the checkers interrogate
// without ever running the cycle simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/encryption_plan.hpp"
#include "core/model_layout.hpp"
#include "core/secure_heap.hpp"
#include "models/layer_spec.hpp"
#include "verify/inject.hpp"

namespace sealdl::verify {

/// One contiguous address region the layout placed: a layer's weight array
/// or a feature-map buffer.
struct Region {
  enum class Kind : std::uint8_t { kWeights, kFmap };

  Kind kind = Kind::kWeights;
  sim::Addr begin = 0;
  sim::Addr end = 0;           ///< half-open
  /// Owning spec: for weights, the layer; for fmaps, the spec the buffer
  /// feeds (specs.size() marks the network-output buffer).
  std::size_t spec_index = 0;
  std::uint64_t pitch = 0;     ///< bytes per row (weights) / channel (fmaps)
  int units = 0;               ///< row / channel count
  /// FC input vectors are stored densely (4 bytes per feature, no per-channel
  /// line padding); alignment rules exempt them.
  bool dense_fc = false;
  std::string name;            ///< e.g. "conv3_1.weights", "fc6.in"
};

/// An identity skip connection reconstructed from ResNet-style spec names
/// ("stageS_blockB_a"/"_b" with no "_proj"): the block-entry fmap is summed
/// into the block output before the next weight layer consumes it.
struct ResidualEdge {
  std::size_t entry_spec = 0;     ///< the "_a" conv (its input is the skip source)
  std::size_t exit_spec = 0;      ///< the "_b" conv (produces the block output)
  std::size_t consumer_spec = 0;  ///< first weight layer after the block
};

struct AnalysisInput {
  std::vector<models::LayerSpec> specs;
  core::PlanOptions plan_options;
  bool selective = true;
  /// Null iff !selective (baseline configs have nothing to check against).
  std::optional<core::EncryptionPlan> plan;
  core::SecureHeap heap;
  std::optional<core::ModelLayout> layout;
  /// Sorted by begin; derived from the layout, then possibly corrupted by an
  /// injection (the regions are the analyzer's model, so model-corruption
  /// injections prove the model-vs-map rules fire).
  std::vector<Region> regions;
  /// spec index -> plan layer index (-1 for POOLs).
  std::vector<int> plan_index;
  /// Weight-layer boundary mask, parallel to the plan's layers.
  std::vector<bool> boundary;
  std::vector<ResidualEdge> residuals;
  Injection inject = Injection::kNone;

  /// First weight layer at spec index >= i (the consumer of fmap i), or -1.
  [[nodiscard]] int consumer_plan_index(std::size_t spec_index) const;
  /// Region containing `addr`, or nullptr. O(log n).
  [[nodiscard]] const Region* region_at(sim::Addr addr) const;
};

struct BuildOptions {
  core::PlanOptions plan;
  bool selective = true;
  Injection inject = Injection::kNone;
};

/// Builds the analysis model for `specs`, applying `options.inject` at the
/// pipeline stage that injection targets. Throws std::invalid_argument when
/// the requested injection is not applicable to this workload/ratio (e.g.
/// plan-residual on a topology without identity blocks).
AnalysisInput build_input(const std::vector<models::LayerSpec>& specs,
                          const BuildOptions& options);

/// One weight row of the built layout.
struct WeightRow {
  sim::Addr begin = 0;
  std::uint64_t bytes = 0;
};

/// The first weight row the plan leaves plaintext, or nullopt when there is
/// none (no plan, or encryption ratio 1.0).
[[nodiscard]] std::optional<WeightRow> first_plain_weight_row(
    const AnalysisInput& input);

/// Reconstructs identity skip edges from spec names (empty for chains like
/// VGG that have none).
std::vector<ResidualEdge> residual_edges_from_names(
    const std::vector<models::LayerSpec>& specs);

/// Bounds-safe row query: false for rows outside the stored vector (a
/// malformed plan must never crash the checker that reports it).
[[nodiscard]] inline bool row_encrypted_safe(const core::LayerPlan& plan, int row) {
  return row >= 0 && static_cast<std::size_t>(row) < plan.encrypted_rows.size() &&
         plan.encrypted_rows[static_cast<std::size_t>(row)] != 0;
}

}  // namespace sealdl::verify
