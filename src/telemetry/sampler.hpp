// Interval sampling of simulator state into time series.
//
// The simulator polls due() once per simulated cycle (one branch when
// sampling is off because the pointer is null — the hot loop never reaches
// here) and, when a sample boundary is crossed, records the deltas since the
// previous sample. Whole-network runs simulate each layer in a fresh
// simulator starting at local cycle 0 with a private sampler; the runner
// splices those layer-local series onto one concatenated timeline with
// append_shifted().
//
// Header-only on purpose: src/sim includes this without linking the
// telemetry library (which itself links sealdl_sim for the export sinks).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/request.hpp"
#include "util/mutex.hpp"

namespace sealdl::telemetry {

/// One point of the run time series. Rates are over the interval since the
/// previous sample (utilizations may transiently exceed 1.0 because the
/// reservation pipes book occupancy into the future).
struct TimeSample {
  sim::Cycle cycle = 0;        ///< global (concatenated) timeline position
  double ipc = 0.0;            ///< thread instructions per cycle
  double dram_util = 0.0;      ///< fraction of aggregate DRAM bandwidth
  double aes_util = 0.0;       ///< fraction of aggregate AES capacity
  std::uint64_t dram_bytes = 0;  ///< DRAM bytes moved in the interval
  /// Queue-occupancy/stall census at the sample instant (not interval
  /// averages): warps parked across all SMs. Doubles because decimation
  /// merges them with equal-weight averaging like the rate fields.
  double window_waiters = 0.0;   ///< warps stalled on a full load window
  double barrier_waiters = 0.0;  ///< warps parked on a WaitLoads barrier
};

class IntervalSampler {
 public:
  /// `max_samples` bounds the stored series (0 = unbounded). When the series
  /// would exceed the cap, adjacent samples are merged pairwise (2x
  /// decimation) and subsequent samples accumulate at the doubled stride, so
  /// memory stays O(max_samples) for arbitrarily long runs. Merged points
  /// keep the later cycle, sum dram_bytes, and average the rate fields with
  /// equal weight — exact for the nominal uniform cadence, an approximation
  /// for the short partial interval a run-end sample can close with.
  /// Decimation is a pure function of the pushed sample sequence, so capped
  /// output is deterministic and the same whether a sample arrives through
  /// record() or append_shifted(). Caps below 2 are raised to 2.
  explicit IntervalSampler(sim::Cycle interval, std::size_t max_samples = 0)
      : interval_(interval ? interval : 1),
        next_local_(interval_),
        max_samples_(max_samples == 1 ? 2 : max_samples) {}

  [[nodiscard]] sim::Cycle interval() const { return interval_; }
  [[nodiscard]] std::size_t max_samples() const { return max_samples_; }
  /// Raw samples currently folded into each stored point (doubles on every
  /// decimation; 1 until the cap is first hit).
  [[nodiscard]] std::size_t stride() const { return stride_; }

  /// True when `local_now` has crossed the next sample boundary.
  [[nodiscard]] bool due(sim::Cycle local_now) const {
    return local_now >= next_local_;
  }

  /// Appends a sample taken at local cycle `sample.cycle`.
  ///
  /// The sampler is thread-confined, not locked: a private sampler belongs
  /// to one simulating task and the shared series is spliced from the
  /// merging thread only. The AccessGuard turns a concurrent mutation into
  /// a std::logic_error instead of a silently reordered series.
  void record(TimeSample sample) {
    util::AccessGuard guard(sentinel_);
    next_local_ = sample.cycle + interval_;
    push(sample);
  }

  /// Appends already-recorded samples, shifting each onto the global
  /// timeline at `global_offset`. Layer runs sample into a private per-task
  /// sampler (cycles stay layer-local) and the runner splices the segments
  /// back in spec order, so the merged series is the same for any --jobs.
  void append_shifted(const std::vector<TimeSample>& samples,
                      sim::Cycle global_offset) {
    util::AccessGuard guard(sentinel_);
    for (TimeSample sample : samples) {
      sample.cycle += global_offset;
      push(sample);
    }
  }

  [[nodiscard]] const std::vector<TimeSample>& samples() const {
    return samples_;
  }

 private:
  /// Appends one raw sample to the stored series, honoring the cap. Raw
  /// samples accumulate into `acc_` until `stride_` of them merge into one
  /// stored point; hitting the cap merges the stored series pairwise and
  /// doubles the stride. Decimation fires right after a flush, so `acc_` is
  /// empty then — an odd leftover stored point is demoted back into `acc_`
  /// as half of a pending new-stride point, keeping the series uniform.
  void push(const TimeSample& sample) {
    if (max_samples_ == 0) {
      samples_.push_back(sample);
      return;
    }
    acc_.cycle = sample.cycle;
    acc_.ipc += sample.ipc;
    acc_.dram_util += sample.dram_util;
    acc_.aes_util += sample.aes_util;
    acc_.dram_bytes += sample.dram_bytes;
    acc_.window_waiters += sample.window_waiters;
    acc_.barrier_waiters += sample.barrier_waiters;
    if (++acc_count_ < stride_) return;
    const double n = static_cast<double>(acc_count_);
    acc_.ipc /= n;
    acc_.dram_util /= n;
    acc_.aes_util /= n;
    acc_.window_waiters /= n;
    acc_.barrier_waiters /= n;
    samples_.push_back(acc_);
    acc_ = TimeSample{};
    acc_count_ = 0;
    if (samples_.size() >= max_samples_) decimate();
  }

  void decimate() {
    std::size_t out = 0;
    std::size_t i = 0;
    for (; i + 1 < samples_.size(); i += 2) {
      const TimeSample& a = samples_[i];
      const TimeSample& b = samples_[i + 1];
      TimeSample merged;
      merged.cycle = b.cycle;
      merged.ipc = (a.ipc + b.ipc) / 2.0;
      merged.dram_util = (a.dram_util + b.dram_util) / 2.0;
      merged.aes_util = (a.aes_util + b.aes_util) / 2.0;
      merged.dram_bytes = a.dram_bytes + b.dram_bytes;
      merged.window_waiters = (a.window_waiters + b.window_waiters) / 2.0;
      merged.barrier_waiters = (a.barrier_waiters + b.barrier_waiters) / 2.0;
      samples_[out++] = merged;
    }
    if (i < samples_.size()) {
      // Odd tail: pre-scale its rates so the flush division by the doubled
      // stride reconstructs the correct equal-weight mean.
      const TimeSample& tail = samples_[i];
      acc_.cycle = tail.cycle;
      acc_.ipc = tail.ipc * static_cast<double>(stride_);
      acc_.dram_util = tail.dram_util * static_cast<double>(stride_);
      acc_.aes_util = tail.aes_util * static_cast<double>(stride_);
      acc_.dram_bytes = tail.dram_bytes;
      acc_.window_waiters = tail.window_waiters * static_cast<double>(stride_);
      acc_.barrier_waiters =
          tail.barrier_waiters * static_cast<double>(stride_);
      acc_count_ = stride_;
    }
    samples_.resize(out);
    stride_ *= 2;
  }

  sim::Cycle interval_;
  sim::Cycle next_local_;
  std::size_t max_samples_ = 0;
  std::size_t stride_ = 1;
  std::size_t acc_count_ = 0;
  TimeSample acc_;
  std::vector<TimeSample> samples_;
  util::AccessSentinel sentinel_{"telemetry.IntervalSampler"};
};

}  // namespace sealdl::telemetry
