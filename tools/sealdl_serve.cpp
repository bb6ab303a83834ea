// sealdl-serve: batched inference serving simulation front end.
//
// Profiles the served network(s) once per scheme configuration, then replays
// a seeded open-loop arrival schedule against a bounded admission queue and
// a batching scheduler (see src/serve). Everything runs in simulated time,
// so a given flag set reproduces byte-identically — including across --jobs
// values, which only parallelize the profiling stage:
//
//   sealdl-serve --networks vgg16 --scheme seal-d --rate 20 --duration 2
//   sealdl-serve --networks vgg16,resnet18 --rate 50 --policy shed-oldest
//   sealdl-serve --rate 100 --queue-depth 16 --batch 8 --policy block --jobs 4
//
// Fleet serving (src/serve/fleet.hpp): --devices N simulates N accelerators
// behind a --router (round-robin | least-loaded | affinity);
// --shard-stages S > 1 splits the model into S-stage pipelines of S devices
// each (N must be a multiple of S) with --microbatch interleaving and a
// --link-latency/--link-bpc inter-device link cost. Per-device counters land
// in the registry (fleet/d<i>/*), batch spans render one Perfetto track per
// device, and the fleet.* reconciliation rules prove the per-device
// decomposition sums back to the fleet totals after every run.
//
// Telemetry sinks (see docs/OBSERVABILITY.md):
//   --json report.json        run report: profile layers + batch spans +
//                             serve/* counters and latency histograms
//   --trace serve.trace.json  Perfetto trace with one span per batch plus a
//                             causally-linked span chain per request
//   --live-stats 0.25         stream one NDJSON progress line to stdout per
//                             0.25 s of simulated time
//   --profile-out spans.ndjson
//                             per-request lifecycle stage decomposition,
//                             one NDJSON record per request
//
// --scheme-audit attaches one byte-provenance taint probe per served network
// during the profiling stage and proves each profiling run against the
// obligations of the scheme's registry row (the scheme.* rule family) before
// the server starts — every registered scheme, paper and rival alike
// (docs/ANALYSIS.md, "Security analysis").
//
// Exit codes: 0 success, 1 runtime error or unknown flag, 2 invalid serving
// configuration —
// the config is statically validated up front (verify/serve_checkers.hpp,
// rule family serve.options.*) and violations print with their rule ids
// rather than asserting deep inside the scheduler.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "sim/scheme_registry.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "verify/fleet_checkers.hpp"
#include "verify/scheme_checkers.hpp"
#include "verify/serve_checkers.hpp"

using namespace sealdl;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t end = csv.find(',', begin);
    const std::string item =
        csv.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    if (!item.empty()) out.push_back(item);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return out;
}

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const std::string networks_csv = flags.get("networks", "vgg16");
  const std::string scheme_name = flags.get("scheme", "baseline");
  const sim::SchemeInfo& entry = sim::parse_scheme(scheme_name);
  const double ratio = flags.get_double("ratio", 0.5);
  const auto tiles = static_cast<std::uint64_t>(flags.get_int("tiles", 480));
  const int jobs = static_cast<int>(flags.get_int("jobs", 1));

  serve::ServeOptions serve_options;
  serve_options.rate_rps = flags.get_double("rate", 20.0);
  serve_options.duration_s = flags.get_double("duration", 1.0);
  serve_options.queue_depth =
      static_cast<std::size_t>(flags.get_int("queue-depth", 32));
  serve_options.max_batch = static_cast<int>(flags.get_int("batch", 4));
  serve_options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  serve_options.dispatch_overhead_cycles =
      flags.get_double("dispatch-overhead", 20000.0);
  serve_options.live_stats = flags.has("live-stats");
  serve_options.live_stats_interval_s = flags.get_double("live-stats", 0.25);
  serve_options.profile = flags.has("profile-out");
  serve_options.profile_path = flags.get("profile-out", "");

  serve::FleetOptions fleet_options;
  fleet_options.devices = static_cast<int>(flags.get_int("devices", 1));
  fleet_options.shard_stages =
      static_cast<int>(flags.get_int("shard-stages", 1));
  fleet_options.microbatch = static_cast<int>(flags.get_int("microbatch", 2));
  fleet_options.link_latency_cycles =
      flags.get_double("link-latency", 2000.0);
  fleet_options.link_bytes_per_cycle = flags.get_double("link-bpc", 16.0);

  const std::string inject_fleet = flags.get("inject-fleet", "");
  std::vector<verify::Injection> fleet_injections;
  if (!inject_fleet.empty()) {
    fleet_injections = verify::select_injections(
        verify::InjectFlag::kInjectFleet, inject_fleet);
  }

  // Static config validation: collect every violation (including an
  // unparsable --policy or --router) into one report so the operator sees
  // the full list, then refuse with exit code 2 and the stable rule ids.
  verify::Report options_report;
  try {
    serve_options.policy = serve::parse_policy(flags.get("policy", "drop"));
  } catch (const std::invalid_argument& e) {
    options_report.error("serve.options.policy", e.what());
  }
  try {
    fleet_options.router =
        serve::parse_router(flags.get("router", "round-robin"));
  } catch (const std::invalid_argument& e) {
    options_report.error("fleet.options.router", e.what());
  }
  verify::check_serve_options(serve_options, jobs, options_report);
  verify::check_fleet_options(fleet_options, options_report);
  if (options_report.error_count() > 0) {
    std::fputs(options_report.to_text().c_str(), stderr);
    std::fprintf(stderr, "sealdl-serve: invalid serving configuration\n");
    return 2;
  }

  sim::GpuConfig config = sim::GpuConfig::gtx480();
  sim::apply_scheme(entry, config);

  const std::string json_path = flags.get("json", "");
  const std::string trace_path = flags.get("trace", "");
  const bool scheme_audit = flags.get_bool("scheme-audit", false);
  const auto sample_interval =
      static_cast<sim::Cycle>(flags.get_int("sample-interval", 0));
  std::unique_ptr<telemetry::RunTelemetry> collect;
  if (!json_path.empty() || !trace_path.empty() || serve_options.profile) {
    telemetry::TelemetryOptions topts;
    topts.sample_interval = sample_interval;
    collect = std::make_unique<telemetry::RunTelemetry>(topts);
  }
  // Unknown flags are an error: refuse them before profiling anything.
  if (const auto unused = flags.unused(); !unused.empty()) {
    throw std::invalid_argument("unknown flag --" + unused.front());
  }

  std::vector<serve::NamedNetwork> networks;
  for (const std::string& name : split_csv(networks_csv)) {
    networks.push_back(serve::named_network(name));
  }

  workload::RunOptions run_options;
  run_options.max_tiles_per_layer = tiles;
  run_options.selective = entry.selective();
  run_options.scope = entry.scope;
  run_options.plan.encryption_ratio = ratio;

  // One audit input + taint auditor per served network: each hook records its
  // own network's profiling run, so per-network ledgers stay jobs-invariant.
  std::vector<std::unique_ptr<verify::AnalysisInput>> audit_inputs;
  std::vector<std::unique_ptr<verify::TaintAuditor>> auditors;
  std::vector<workload::BusProbeHook*> probe_hooks;
  if (scheme_audit) {
    for (const serve::NamedNetwork& network : networks) {
      verify::BuildOptions build;
      build.plan = run_options.plan;
      build.selective = entry.scope == sim::ProtectionScope::kPlanRows;
      audit_inputs.push_back(std::make_unique<verify::AnalysisInput>(
          verify::build_input(network.specs, build)));
      auditors.push_back(
          std::make_unique<verify::TaintAuditor>(audit_inputs.back().get()));
      probe_hooks.push_back(auditors.back().get());
    }
  }

  const serve::ServiceModel model(networks, config, run_options,
                                  serve_options.max_batch, jobs, collect.get(),
                                  probe_hooks);

  if (scheme_audit) {
    bool audit_failed = false;
    for (int i = 0; i < model.count(); ++i) {
      const verify::TaintLedger& ledger =
          auditors[static_cast<std::size_t>(i)]->ledger();
      verify::SchemeRunEvidence evidence;
      evidence.input = audit_inputs[static_cast<std::size_t>(i)].get();
      evidence.ledger = &ledger;
      for (const workload::LayerResult& layer : model.profile(i).layers) {
        evidence.stats.merge_from(layer.stats);
      }
      evidence.config = config;
      const verify::Report audit_report =
          verify::run_scheme_conformance(entry, evidence);
      std::printf("scheme audit [%s]: %llu bus bytes over %zu lines, "
                  "digest %016llx, %llu error(s)\n",
                  model.name(i).c_str(),
                  static_cast<unsigned long long>(ledger.total_bytes()),
                  ledger.lines().size(),
                  static_cast<unsigned long long>(ledger.digest()),
                  static_cast<unsigned long long>(audit_report.error_count()));
      if (audit_report.error_count() > 0) {
        std::fputs(audit_report.to_text().c_str(), stderr);
        audit_failed = true;
      }
    }
    if (audit_failed) {
      std::fprintf(stderr, "sealdl-serve: profiling bus traffic violates %s's "
                           "scheme contract\n",
                   entry.display);
      return 1;
    }
  }
  // NDJSON progress lines go to stdout so they can be piped while the table
  // still prints at the end.
  serve::LiveStatsSink live_sink;
  if (serve_options.live_stats) {
    live_sink = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
    };
  }
  const serve::FleetReport fleet_report = serve::run_fleet(
      model, serve_options, fleet_options, config, collect.get(), live_sink);
  const serve::ServeReport& report = fleet_report.totals;

  if (!fleet_injections.empty()) {
    // Self-test: corrupt one field of a copy of a healthy fleet report, then
    // demand the matching fleet.* rule fires.
    verify::SelfTest self_test({.tool = "sealdl-serve",
                                .mode = "inject-fleet",
                                .workload = networks_csv});
    const bool all_caught = self_test.run(
        fleet_injections, [&](verify::Injection injection) {
          serve::FleetReport corrupted = fleet_report;
          serve::DeviceReport& device = corrupted.device_reports.front();
          switch (injection) {
            case verify::Injection::kFleetRequests:
              device.completed += 1;
              break;
            case verify::Injection::kFleetBatches:
              device.batches += 1;
              break;
            case verify::Injection::kFleetStages:
              corrupted.totals.stage_cycles_sum =
                  corrupted.totals.stage_cycles_sum * 1.01 + 1.0;
              break;
            default:  // kFleetDevices
              device.device += 1;
              break;
          }
          return verify::run_fleet_report_check(fleet_options, corrupted);
        });
    return all_caught ? 0 : 1;
  }

  // Post-run reconciliation: fleet.* proves the per-device decomposition
  // sums back to the fleet totals and the per-request lifecycle stages sum
  // to the measured latency. A failure is a scheduler accounting bug, not a
  // configuration error.
  const verify::Report stage_report =
      verify::run_fleet_report_check(fleet_options, fleet_report);
  if (stage_report.error_count() > 0) {
    std::fputs(stage_report.to_text().c_str(), stderr);
    std::fprintf(stderr, "sealdl-serve: fleet accounting does not reconcile\n");
    return 1;
  }

  std::printf("sealdl-serve: %s, scheme %s, %.1f req/s for %.2f s, queue %zu, "
              "batch <= %d, policy %s\n",
              networks_csv.c_str(), scheme_name.c_str(), serve_options.rate_rps,
              serve_options.duration_s, serve_options.queue_depth,
              serve_options.max_batch, serve::policy_name(serve_options.policy));
  if (fleet_options.devices > 1 || fleet_options.shard_stages > 1) {
    std::printf("fleet: %d device(s) as %d pipeline(s) x %d stage(s), "
                "router %s, microbatch %d\n",
                fleet_report.devices, fleet_report.pipelines,
                fleet_report.stages, serve::router_name(fleet_options.router),
                fleet_options.microbatch);
  }
  util::Table table({"metric", "value"});
  table.add_row({"generated", std::to_string(report.generated)});
  table.add_row({"completed", std::to_string(report.completed)});
  table.add_row({"dropped", std::to_string(report.dropped)});
  table.add_row({"shed", std::to_string(report.shed)});
  table.add_row({"blocked (backlogged)", std::to_string(report.blocked)});
  table.add_row({"batches", std::to_string(report.batches)});
  table.add_row({"mean batch", util::Table::fmt(report.mean_batch, 2)});
  table.add_row({"p50 latency", util::Table::fmt(report.p50_ms, 2) + " ms"});
  table.add_row({"p95 latency", util::Table::fmt(report.p95_ms, 2) + " ms"});
  table.add_row({"p99 latency", util::Table::fmt(report.p99_ms, 2) + " ms"});
  table.add_row({"mean queue wait", util::Table::fmt(report.mean_queue_ms, 2) + " ms"});
  table.add_row({"throughput", util::Table::fmt(report.throughput_rps, 2) + " req/s"});
  table.add_row({"drop rate", util::Table::pct(report.drop_rate)});
  table.print();

  // Per-stage latency decomposition of completed requests (lifecycle spans:
  // backlog -> queue -> dispatch -> execute).
  util::Table stages({"stage", "p50", "p95", "p99"});
  const auto stage_row = [&stages](const char* name,
                                   const serve::StageLatency& stage) {
    stages.add_row({name, util::Table::fmt(stage.p50_ms, 2) + " ms",
                    util::Table::fmt(stage.p95_ms, 2) + " ms",
                    util::Table::fmt(stage.p99_ms, 2) + " ms"});
  };
  stage_row("backlog", report.stage_backlog);
  stage_row("queue", report.stage_queue);
  stage_row("dispatch", report.stage_dispatch);
  stage_row("execute", report.stage_execute);
  std::printf("\nstage latency (completed requests)\n");
  stages.print();

  // Per-device decomposition: admission outcomes live on each pipeline's
  // stage-0 device; stage runs and busy time on every device.
  if (fleet_options.devices > 1 || fleet_options.shard_stages > 1) {
    util::Table devices({"device", "pipe/stage", "routed", "completed",
                         "dropped", "shed", "batches", "stage runs",
                         "busy", "util"});
    const double end = static_cast<double>(report.end_cycle);
    for (const serve::DeviceReport& dev : fleet_report.device_reports) {
      devices.add_row(
          {"d" + std::to_string(dev.device),
           "p" + std::to_string(dev.pipeline) + "/s" +
               std::to_string(dev.stage),
           std::to_string(dev.routed), std::to_string(dev.completed),
           std::to_string(dev.dropped), std::to_string(dev.shed),
           std::to_string(dev.batches), std::to_string(dev.stage_runs),
           util::Table::fmt(dev.busy_cycles / 1e6, 2) + " Mcyc",
           util::Table::pct(end > 0.0 ? dev.busy_cycles / end : 0.0)});
    }
    std::printf("\nper-device fleet decomposition\n");
    devices.print();
  }

  if (collect) {
    telemetry::RunInfo info;
    info.tool = "sealdl-serve";
    info.workload = networks_csv;
    info.scheme = scheme_name;
    info.seed = serve_options.seed;
    info.provenance =
        telemetry::make_provenance(config, jobs, {scheme_name});
    if (!json_path.empty()) {
      telemetry::write_text_file(
          json_path, telemetry::run_report_json(info, config, *collect));
    }
    if (!trace_path.empty()) {
      telemetry::write_text_file(
          trace_path, telemetry::chrome_trace_json(info, config, *collect));
    }
    if (serve_options.profile) {
      // One NDJSON record per request, in lifecycle-completion order.
      std::string ndjson;
      for (const telemetry::RequestSpanRecord& span : collect->requests()) {
        util::JsonWriter json;
        json.begin_object();
        json.field("id", span.id);
        json.field("network", span.network);
        json.field("outcome", span.outcome);
        json.field("arrival", span.arrival);
        json.field("backlog_cycles", span.backlog_cycles);
        json.field("queue_cycles", span.queue_cycles);
        json.field("dispatch_cycles", span.dispatch_cycles);
        json.field("execute_cycles", span.execute_cycles);
        json.field("batch", span.batch);
        if (span.device >= 0) json.field("device", span.device);
        json.end_object();
        ndjson += json.str();
        ndjson += '\n';
      }
      telemetry::write_text_file(serve_options.profile_path, ndjson);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sealdl-serve: %s\n", e.what());
    return 1;
  }
}
