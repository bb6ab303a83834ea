// Cycle-attribution profiler for the accelerator simulator.
//
// When attached to a GpuSimulator (set_profiler, same discipline as the
// IntervalSampler: a null pointer costs one branch per run-loop iteration),
// the profiler partitions every simulated cycle of every component into
// exactly one category. The run loop advances in spans — one cycle normally,
// multi-cycle jumps when every SM is stalled and the simulator fast-forwards
// to the next memory event — and account() classifies each span per
// component from component state that is constant across the span:
//
//   sm{i}        compute_issue | mem_issue | barrier_wait | window_stall |
//                idle | drain
//   l2_slice{c}  hit_service | miss_wait | idle | drain
//   mc{c}        counter_traffic | crypto_service | dram_service | idle |
//                drain
//
// Memory-side busy windows are prefixes of the span (a reservation pipe is
// busy from `now` until its next_free cycle, and nothing re-schedules during
// a fast-forward), so the partition is computed exactly with three clamped
// prefix lengths and a fixed attribution priority: counter-cache traffic
// over AES over DRAM data service. A cycle both pipes are busy therefore
// lands in the higher-priority bucket — standard top-frame-wins profiler
// semantics, documented in docs/OBSERVABILITY.md.
//
// The hard invariant — per-component buckets sum to the component's total
// profiled cycles, and every component of a layer agrees on that total —
// holds by construction and is enforced by the `profile.*` rule family
// (verify/profile_checkers.hpp) on every profiled run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/request.hpp"

namespace sealdl::sim {
class GpuSimulator;
}  // namespace sealdl::sim

namespace sealdl::util {
class JsonWriter;
}  // namespace sealdl::util

namespace sealdl::telemetry {

/// Attribution categories. One per cycle per component; the unused ones for
/// a component type stay zero (an SM never reports dram_service).
enum class CycleCat : std::uint8_t {
  kComputeIssue = 0,   ///< SM issued at least one op, none of them memory
  kMemIssue,           ///< SM issued at least one load/store
  kBarrierWait,        ///< SM blocked on a WaitLoads barrier (memory service)
  kWindowStall,        ///< SM blocked on the full per-SM load window
  kL2HitService,       ///< slice answering hits (latency window)
  kL2MissWait,         ///< slice holding pending MSHR fills
  kDramService,        ///< DRAM channel pipe busy with data lines
  kCryptoService,      ///< AES engine pipe busy (encrypt/decrypt/pad)
  kCounterTraffic,     ///< DRAM busy with counter-block fills/writebacks
  kIdle,               ///< nothing of the above
  kDrain,              ///< post-loop writeback drain tail
  kCount,
};

inline constexpr std::size_t kCycleCatCount =
    static_cast<std::size_t>(CycleCat::kCount);

/// Stable lowercase names used in the JSON profile and collapsed stacks.
const char* cycle_cat_name(CycleCat cat);

/// One component's exact cycle partition.
struct ComponentProfile {
  std::string name;  ///< "sm0", "l2_slice1", "mc0", ...
  std::array<std::uint64_t, kCycleCatCount> buckets{};
  /// Cycles this component was profiled for (== the layer's total).
  std::uint64_t total_cycles = 0;

  [[nodiscard]] std::uint64_t bucket(CycleCat cat) const {
    return buckets[static_cast<std::size_t>(cat)];
  }
  [[nodiscard]] std::uint64_t bucket_sum() const;
};

/// The cycle attribution of one simulated layer (or standalone run).
struct LayerCycleProfile {
  std::string layer;              ///< layer/workload name
  std::uint64_t total_cycles = 0; ///< == GpuSimulator finish cycle
  std::vector<ComponentProfile> components;

  /// Sums `cat` across components of one kind ("sm", "l2_slice", "mc").
  [[nodiscard]] std::uint64_t kind_bucket(const std::string& kind,
                                          CycleCat cat) const;
};

/// Whole-run profile: one entry per simulated layer, in run order.
struct CycleProfile {
  std::vector<LayerCycleProfile> layers;
  [[nodiscard]] bool empty() const { return layers.empty(); }
};

/// Span-by-span attribution engine. Create one per GpuSimulator run (it
/// caches per-SM counter snapshots), attach via set_profiler() before run(),
/// and harvest with take_profile() after.
class CycleProfiler {
 public:
  /// Classifies the span [now, next) from the simulator's post-tick state.
  /// Called once per run-loop iteration; O(SMs + channels).
  void account(const sim::GpuSimulator& simulator, sim::Cycle now,
               sim::Cycle next);

  /// Attributes the write-back drain tail [loop_end, finish) and fixes each
  /// component's total to `finish`. Must be called exactly once, after run().
  void finish(const sim::GpuSimulator& simulator, sim::Cycle loop_end,
              sim::Cycle finish);

  /// Moves the finished single-layer profile out (name filled by caller).
  [[nodiscard]] LayerCycleProfile take_profile();

 private:
  struct SmSnapshot {
    std::uint64_t instructions = 0;
    std::uint64_t mem_issued = 0;  ///< loads_issued + stores_issued
  };
  void ensure_components(const sim::GpuSimulator& simulator);
  void add(std::size_t component, CycleCat cat, std::uint64_t cycles) {
    profile_.components[component].buckets[static_cast<std::size_t>(cat)] +=
        cycles;
  }

  LayerCycleProfile profile_;
  std::vector<SmSnapshot> sm_prev_;
  bool initialized_ = false;
};

/// Writes the profile as one JSON array value (schema in
/// docs/OBSERVABILITY.md): [{"layer":..., "total_cycles":...,
/// "components":[{"name":...,"total_cycles":...,"buckets":{...}}]}].
/// Deterministic: category keys in enum order, zero buckets omitted.
void write_cycle_profile_json(util::JsonWriter& json,
                              const CycleProfile& profile);

/// write_cycle_profile_json as a standalone document.
std::string cycle_profile_json(const CycleProfile& profile);

/// Renders the profile in collapsed-stack ("folded") form, one line per
/// non-zero bucket: `workload;layer;component;category count`. The output
/// feeds standard flamegraph tooling (flamegraph.pl, speedscope, inferno)
/// unchanged.
std::string collapsed_stack(const std::string& workload,
                            const CycleProfile& profile);

}  // namespace sealdl::telemetry
