#include "verify/fleet_checkers.hpp"

#include <cmath>
#include <cstdio>
#include <string>

namespace sealdl::verify {

std::vector<std::string> fleet_rules() {
  return {"fleet.options.devices", "fleet.options.router",
          "fleet.options.shard",   "fleet.options.link",
          "fleet.devices",         "fleet.requests",
          "fleet.batches",         "fleet.stages"};
}

void check_fleet_options(const serve::FleetOptions& options, Report& report) {
  if (options.devices < 1) {
    report.error("fleet.options.devices",
                 "device count must be >= 1 (got " +
                     std::to_string(options.devices) + ")");
  }
  if (!serve::router_known(options.router)) {
    report.error("fleet.options.router",
                 "router policy value " +
                     std::to_string(static_cast<int>(options.router)) +
                     " is not a declared enumerator "
                     "(round-robin|least-loaded|affinity)");
  }
  if (options.shard_stages < 1) {
    report.error("fleet.options.shard",
                 "shard stages must be >= 1 (got " +
                     std::to_string(options.shard_stages) + ")");
  } else if (options.devices >= 1 &&
             (options.shard_stages > options.devices ||
              options.devices % options.shard_stages != 0)) {
    report.error("fleet.options.shard",
                 std::to_string(options.devices) + " device(s) cannot host " +
                     std::to_string(options.shard_stages) +
                     "-stage pipelines: devices must be a multiple of the "
                     "stage count");
  }
  if (options.microbatch < 1) {
    report.error("fleet.options.shard",
                 "microbatch count must be >= 1 (got " +
                     std::to_string(options.microbatch) + ")");
  }
  if (!(options.link_latency_cycles >= 0.0) ||
      !std::isfinite(options.link_latency_cycles)) {
    report.error("fleet.options.link",
                 fmt("link latency must be finite and >= 0 cycles (got %g)",
                     options.link_latency_cycles));
  }
  if (!(options.link_bytes_per_cycle > 0.0) ||
      !std::isfinite(options.link_bytes_per_cycle)) {
    report.error("fleet.options.link",
                 fmt("link bandwidth must be a positive finite bytes/cycle "
                     "(got %g)",
                     options.link_bytes_per_cycle));
  }
}

void check_fleet_report(const serve::FleetOptions& options,
                        const serve::FleetReport& fleet, Report& report) {
  const serve::ServeReport& totals = fleet.totals;

  // fleet.devices: structural consistency of the per-device decomposition.
  if (fleet.device_reports.size() !=
      static_cast<std::size_t>(options.devices)) {
    report.error("fleet.devices",
                 "report carries " +
                     std::to_string(fleet.device_reports.size()) +
                     " device entries for a " +
                     std::to_string(options.devices) + "-device fleet");
  }
  if (fleet.devices != options.devices || fleet.stages != options.shard_stages ||
      fleet.pipelines * fleet.stages != fleet.devices) {
    report.error("fleet.devices",
                 "fleet shape (" + std::to_string(fleet.devices) +
                     " devices, " + std::to_string(fleet.pipelines) +
                     " pipelines x " +
                     std::to_string(fleet.stages) +
                     " stages) does not match the configuration");
  }
  const double end = static_cast<double>(totals.end_cycle);
  for (std::size_t i = 0; i < fleet.device_reports.size(); ++i) {
    const serve::DeviceReport& dev = fleet.device_reports[i];
    if (dev.device != static_cast<int>(i) ||
        dev.pipeline != dev.device / std::max(1, fleet.stages) ||
        dev.stage != dev.device % std::max(1, fleet.stages)) {
      report.error("fleet.devices",
                   "device entry " + std::to_string(i) +
                       " has inconsistent device/pipeline/stage indices");
    }
    // +1 cycle: totals.end_cycle is an integer-truncated cast of the same
    // double timeline last_free/busy_cycles live on.
    const double bound = end * (1.0 + 1e-9) + 1.0;
    if (dev.busy_cycles > bound || dev.last_free > bound) {
      report.error("fleet.devices",
                   "device " + std::to_string(dev.device) +
                       " reports more busy time than the run lasted (" +
                       fmt("%.0f cycles busy, ", dev.busy_cycles) +
                       fmt("run ended at %.0f)", end));
    }
  }

  // fleet.requests: per-device admission outcomes reconcile with totals.
  std::uint64_t routed = 0, completed = 0, dropped = 0, shed = 0, blocked = 0;
  for (const serve::DeviceReport& dev : fleet.device_reports) {
    routed += dev.routed;
    completed += dev.completed;
    dropped += dev.dropped;
    shed += dev.shed;
    blocked += dev.blocked;
  }
  const auto require_sum = [&report](const char* rule, const char* what,
                                     std::uint64_t device_sum,
                                     std::uint64_t total) {
    if (device_sum != total) {
      report.error(rule,
                   std::string("per-device ") + what + " sum to " +
                       std::to_string(device_sum) + " but the fleet total is " +
                       std::to_string(total));
    }
  };
  require_sum("fleet.requests", "routed arrivals", routed, totals.generated);
  require_sum("fleet.requests", "completions", completed, totals.completed);
  require_sum("fleet.requests", "drops", dropped, totals.dropped);
  require_sum("fleet.requests", "sheds", shed, totals.shed);
  require_sum("fleet.requests", "blocked arrivals", blocked, totals.blocked);
  if (totals.completed + totals.dropped + totals.shed != totals.generated) {
    report.error("fleet.requests",
                 "request conservation broken: " +
                     std::to_string(totals.completed) + " completed + " +
                     std::to_string(totals.dropped) + " dropped + " +
                     std::to_string(totals.shed) + " shed != " +
                     std::to_string(totals.generated) + " generated");
  }

  // fleet.batches: dispatch and microbatch-stage execution decomposition.
  std::uint64_t batches = 0, stage_runs = 0;
  for (const serve::DeviceReport& dev : fleet.device_reports) {
    batches += dev.batches;
    stage_runs += dev.stage_runs;
  }
  require_sum("fleet.batches", "batch dispatches", batches, totals.batches);
  require_sum("fleet.batches", "stage runs", stage_runs, fleet.stage_runs);
  if (fleet.stage_runs !=
      fleet.microbatches * static_cast<std::uint64_t>(fleet.stages)) {
    report.error("fleet.batches",
                 std::to_string(fleet.stage_runs) + " stage runs != " +
                     std::to_string(fleet.microbatches) + " microbatches x " +
                     std::to_string(fleet.stages) + " stages");
  }

  // fleet.stages: the lifecycle decomposition of every completed request
  // still sums exactly to its end-to-end latency under sharding.
  const double scale = std::max(1.0, std::fabs(totals.latency_cycles_sum));
  if (!(std::fabs(totals.stage_cycles_sum - totals.latency_cycles_sum) <=
        1e-9 * scale)) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "lifecycle stages sum to %.6f cycles but measured "
                  "end-to-end latency sums to %.6f",
                  totals.stage_cycles_sum, totals.latency_cycles_sum);
    report.error("fleet.stages", buffer);
  }
}

Report run_fleet_options_check(const serve::FleetOptions& options) {
  Report report;
  check_fleet_options(options, report);
  return report;
}

Report run_fleet_report_check(const serve::FleetOptions& options,
                              const serve::FleetReport& fleet) {
  Report report;
  check_fleet_report(options, fleet, report);
  return report;
}

}  // namespace sealdl::verify
