// Bounded admission queue with a configurable overload policy.
//
// The queue holds requests waiting for the device. When an arrival finds it
// full, the OverloadPolicy decides: drop the newcomer, park it in an
// unbounded backlog (block — the open-loop analogue of a blocking client:
// the request keeps its arrival timestamp, so its eventual latency includes
// the time spent blocked), or shed the oldest queued request. Every outcome
// is counted so the serving report can state exactly where offered load
// went.
//
// Single-owner and unlocked: the serving event loop (run_fleet) is serial
// and owns one queue per pipeline, so there is nothing to synchronize.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "serve/options.hpp"
#include "serve/request_gen.hpp"

namespace sealdl::serve {

/// What offer() did with one arrival.
struct OfferResult {
  enum class Outcome {
    kAdmitted,      ///< queued directly
    kBacklogged,    ///< parked in the block-policy backlog
    kDropped,       ///< refused (drop policy, or shed-oldest with no victim)
    kAdmittedShed,  ///< queued after shedding the oldest queued request
  };
  Outcome outcome = Outcome::kAdmitted;
  /// The request shed to make room; set iff outcome == kAdmittedShed.
  std::optional<Request> victim;
};

class AdmissionQueue {
 public:
  AdmissionQueue(std::size_t depth, OverloadPolicy policy)
      : depth_(depth), policy_(policy) {}

  /// Applies the overload policy to one arrival.
  OfferResult offer(const Request& request);

  /// Pops the front request plus up to `max_batch - 1` further queued
  /// requests for the same network (FIFO across the queue; non-matching
  /// requests keep their positions). Backlogged requests then refill the
  /// freed slots in arrival order, each stamped with `now` as its admit
  /// cycle (the lifecycle trace's backlog/queue stage boundary). Empty
  /// result iff the queue is empty.
  std::vector<Request> pop_batch(int max_batch, sim::Cycle now = 0);

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  /// The oldest queued request (the next dispatch anchor); queue must be
  /// non-empty.
  [[nodiscard]] const Request& front() const { return queue_.front(); }
  [[nodiscard]] std::size_t backlog_size() const { return backlog_.size(); }

  // Accounting (all since construction).
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t shed() const { return shed_; }
  [[nodiscard]] std::uint64_t blocked() const { return blocked_; }
  [[nodiscard]] std::size_t peak_backlog() const { return peak_backlog_; }

 private:
  void refill_from_backlog(sim::Cycle now);

  std::size_t depth_;
  OverloadPolicy policy_;
  std::deque<Request> queue_;
  std::deque<Request> backlog_;  ///< block policy

  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t blocked_ = 0;
  std::size_t peak_backlog_ = 0;
};

}  // namespace sealdl::serve
