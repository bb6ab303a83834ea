// Telemetry collection context for one run.
//
// Strictly opt-in: nothing in the simulator or workload layer allocates or
// records anything unless a RunTelemetry is attached (RunOptions::telemetry,
// GpuSimulator::set_sampler). With it absent, simulation results are
// cycle-identical to a build without telemetry at all — the same discipline
// as SEALDL_LOG.
#pragma once

#include <optional>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/phase.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/sampler.hpp"

namespace sealdl::telemetry {

/// One request's lifecycle through the serving stack, as causally ordered
/// stages measured in cycles. The stages partition the end-to-end latency
/// exactly: backlog + queue + dispatch + execute == completion - arrival for
/// completed requests (the `fleet.stages` rule), because every stage
/// is a difference of the same timestamps the latency is computed from.
struct RequestSpanRecord {
  std::uint64_t id = 0;
  std::string network;            ///< served network name
  std::string outcome;            ///< "completed" | "dropped" | "shed"
  sim::Cycle arrival = 0;
  double backlog_cycles = 0.0;    ///< blocked outside the queue (block policy)
  double queue_cycles = 0.0;      ///< admission queue wait until dispatch
  double dispatch_cycles = 0.0;   ///< batch formation + launch overhead
  double execute_cycles = 0.0;    ///< simulated batch execution share
  std::uint64_t batch = 0;        ///< 1-based dispatch sequence (0 = none):
                                  ///< flow-event link to the batch span
  int device = -1;                ///< fleet device the request was served on
                                  ///< (stage-0 of its pipeline); -1 = n/a
};

struct TelemetryOptions {
  /// Cycles between time-series samples; 0 disables the sampler (per-layer
  /// records and component metrics are still collected).
  sim::Cycle sample_interval = 0;
  /// Upper bound on stored time-series samples (0 = unbounded). See
  /// IntervalSampler: exceeding the cap merges adjacent samples (2x
  /// decimation) so long runs keep bounded memory.
  std::size_t max_samples = 0;
  /// Enables the cycle-attribution profiler (telemetry/profiler.hpp): every
  /// simulated cycle of every component is bucketed into one category and
  /// reported per layer. Off by default; the disabled path costs one null
  /// check per run-loop iteration.
  bool profile = false;
};

class RunTelemetry {
 public:
  explicit RunTelemetry(TelemetryOptions options = {}) : options_(options) {
    if (options_.sample_interval) {
      sampler_.emplace(options_.sample_interval, options_.max_samples);
    }
  }

  [[nodiscard]] const TelemetryOptions& options() const { return options_; }

  MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }

  /// Null when sampling is disabled.
  IntervalSampler* sampler() { return sampler_ ? &*sampler_ : nullptr; }
  [[nodiscard]] const IntervalSampler* sampler() const {
    return sampler_ ? &*sampler_ : nullptr;
  }

  std::vector<LayerPhaseRecord>& layers() { return layers_; }
  [[nodiscard]] const std::vector<LayerPhaseRecord>& layers() const {
    return layers_;
  }

  /// Global position on the concatenated per-layer sim timeline; the network
  /// runner advances it by each layer's simulated cycles.
  [[nodiscard]] sim::Cycle timeline() const { return timeline_; }
  void advance_timeline(sim::Cycle cycles) { timeline_ += cycles; }

  /// Per-request lifecycle spans, filled by the serving loop when attached
  /// (serve::run_server). Exported as causally-linked Perfetto async spans.
  std::vector<RequestSpanRecord>& requests() { return requests_; }
  [[nodiscard]] const std::vector<RequestSpanRecord>& requests() const {
    return requests_;
  }

  /// True when the run should attach a CycleProfiler to each simulator.
  [[nodiscard]] bool profiling() const { return options_.profile; }
  /// Per-layer cycle attribution, filled in spec order by the runner when
  /// profiling() is on; empty otherwise.
  CycleProfile& profile() { return profile_; }
  [[nodiscard]] const CycleProfile& profile() const { return profile_; }

 private:
  TelemetryOptions options_;
  MetricsRegistry registry_;
  std::optional<IntervalSampler> sampler_;
  std::vector<LayerPhaseRecord> layers_;
  sim::Cycle timeline_ = 0;
  CycleProfile profile_;
  std::vector<RequestSpanRecord> requests_;
};

}  // namespace sealdl::telemetry
