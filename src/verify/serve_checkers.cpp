#include "verify/serve_checkers.hpp"

#include <cmath>

namespace sealdl::verify {

std::vector<std::string> serve_option_rules() {
  return {"serve.options.rate",   "serve.options.duration",
          "serve.options.queue",  "serve.options.policy",
          "serve.options.jobs",   "serve.options.overhead",
          "serve.options.live",   "serve.options.profile"};
}

void check_serve_options(const serve::ServeOptions& options, int jobs,
                         Report& report) {
  if (!(options.rate_rps > 0.0) || !std::isfinite(options.rate_rps)) {
    report.error("serve.options.rate",
                 fmt("offered rate must be a positive finite req/s (got %g)",
                     options.rate_rps));
  }
  if (!(options.duration_s > 0.0) || !std::isfinite(options.duration_s)) {
    report.error("serve.options.duration",
                 fmt("arrival window must be a positive finite second count "
                     "(got %g)",
                     options.duration_s));
  }
  if (options.max_batch < 1) {
    report.error("serve.options.queue",
                 "max batch must be >= 1 (got " +
                     std::to_string(options.max_batch) + ")");
  }
  if (options.queue_depth == 0) {
    // Explicitly rejected: a zero-capacity queue makes every overload policy
    // degenerate (shed-oldest has no victim and silently becomes drop).
    report.error("serve.options.queue",
                 "queue depth 0 is rejected: no request could ever be "
                 "admitted");
  } else if (options.max_batch >= 1 &&
             options.queue_depth < static_cast<std::size_t>(options.max_batch)) {
    report.error("serve.options.queue",
                 "queue depth " + std::to_string(options.queue_depth) +
                     " < max batch " + std::to_string(options.max_batch) +
                     ": a dispatch could never assemble a full batch");
  }
  if (!serve::policy_known(options.policy)) {
    report.error("serve.options.policy",
                 "overload policy value " +
                     std::to_string(static_cast<int>(options.policy)) +
                     " is not a declared enumerator (drop|block|shed-oldest)");
  }
  if (jobs < 0) {
    report.error("serve.options.jobs",
                 "profiling jobs must be >= 1, or 0 for one worker per "
                 "hardware thread (got " +
                     std::to_string(jobs) + ")");
  }
  if (!(options.dispatch_overhead_cycles >= 0.0) ||
      !std::isfinite(options.dispatch_overhead_cycles)) {
    report.error("serve.options.overhead",
                 fmt("dispatch overhead must be finite and >= 0 cycles "
                     "(got %g)",
                     options.dispatch_overhead_cycles));
  }
  if (options.live_stats &&
      (!(options.live_stats_interval_s > 0.0) ||
       !std::isfinite(options.live_stats_interval_s))) {
    report.error("serve.options.live",
                 fmt("live-stats interval must be positive seconds (got %g)",
                     options.live_stats_interval_s));
  }
  if (options.profile) {
    if (options.profile_path.empty()) {
      report.error("serve.options.profile",
                   "profile output path must be non-empty");
    } else if (options.profile_path.back() == '/') {
      report.error("serve.options.profile",
                   "profile output path '" + options.profile_path +
                       "' names a directory, not a writable file");
    }
  }
}

Report run_serve_options_check(const serve::ServeOptions& options, int jobs) {
  Report report;
  check_serve_options(options, jobs, report);
  return report;
}

}  // namespace sealdl::verify
