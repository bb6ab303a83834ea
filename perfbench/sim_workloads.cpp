// The two simulator workloads.
//
// fig7_sweep: workload::run_network over vgg16, resnet18 and resnet34 x the
//   paper's five schemes, plain timing runs at `jobs` workers. The seed
//   permutes the order of the fifteen runs; the simulated outputs do not
//   depend on it and are checked against expected.txt.
// audited_net: resnet18 under SEAL-D and Counter with a profiling
//   RunTelemetry and a verify::TaintAuditor bus probe, followed by the
//   secure.*, scheme.* and profile.* checks and the JSON run-report export.
//   The seed picks which scheme runs first.
#include <cstdio>

#include "sim/bus_probe.hpp"
#include "sim_common.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"
#include "verify/analysis.hpp"
#include "verify/profile_checkers.hpp"
#include "verify/scheme_checkers.hpp"
#include "verify/taint.hpp"

namespace perfbench {
namespace {

using namespace sealdl;

/// Simulated tiles per layer. The repository's figures run 480; the
/// benchmark runs fewer so that one run holds several passes.
constexpr std::uint64_t kSweepTiles = 48;
constexpr std::uint64_t kAuditTiles = 120;

class Fig7Sweep final : public Workload {
 public:
  explicit Fig7Sweep(Context& ctx) : ctx_(ctx) {}

  void setup(Tracer* tracer) override {
    nets_ = {paper_network("vgg16", tracer), paper_network("resnet18", tracer),
             paper_network("resnet34", tracer)};
    schemes_ = paper_schemes();
    order_ = seeded_order(nets_.size() * schemes_.size(), ctx_.seed);
    layouts_ = build_layouts(nets_, tracer);
  }

  void iterate(Tracer* tracer) override {
    results_.assign(nets_.size(),
                    std::vector<workload::NetworkResult>(schemes_.size()));
    ops_.assign(nets_.size(), std::vector<int>(schemes_.size(), -1));
    for (const std::size_t k : order_) {
      const std::size_t n = k / schemes_.size(), s = k % schemes_.size();
      const sim::SchemeInfo& info = *schemes_[s];
      const std::string name = nets_[n].name + "." + info.cli_name;
      ops_[n][s] = ctx_.ops.begin("run_network " + name);
      try {
        Scope span(tracer, "workload.run_network", ops_[n][s]);
        results_[n][s] = workload::run_network(
            nets_[n].specs, config_for(info), options_for(info, kSweepTiles, ctx_.jobs));
      } catch (const std::exception& e) {
        ctx_.ops.fail(ops_[n][s], e.what());
        continue;
      }
      if (!check_run(*ctx_.expected, "fig7_sweep." + name, results_[n][s])) {
        ctx_.ops.fail(ops_[n][s], "simulated outputs differ from expected.txt");
      }
    }
    check_orderings();
    if (!ctx_.expected->check("fig7_sweep.cycle_checksum", checksum())) {
      for (const auto& row : ops_) {
        for (const int op : row) ctx_.ops.fail(op, "cycle checksum differs from expected.txt");
      }
    }
  }

  void add_rates(double pass_ms, Metrics& out) const override {
    std::uint64_t instructions = 0;
    for (const auto& row : results_) {
      for (const auto& result : row) {
        instructions += summed_stats(result).thread_instructions;
      }
    }
    out["sim.minst_per_s"] = static_cast<double>(instructions) / (pass_ms * 1e3);
  }

  void probe(Tracer& tracer, Metrics& out) override {
    out["core.layout_ms"] = tracer.total_ms("core.layout");
    std::vector<const workload::NetworkResult*> runs;
    std::vector<std::vector<std::uint64_t>> cycles(nets_.size());
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      for (const auto& result : results_[n]) {
        runs.push_back(&result);
        cycles[n].push_back(summed_stats(result).cycles);
      }
    }
    add_sim_counts(runs, out);
    probe_serial_networks(tracer, out);
    probe_layers(tracer, out);
    probe_simulator(ctx_, layouts_, nets_, schemes_, kSweepTiles, cycles, tracer, out);
  }

  void summary() const override {
    // Paper reference: Fig. 7 (IPC) and Fig. 8 (latency), each the mean over
    // the three networks of the per-network ratio to Baseline.
    std::vector<double> ipc(schemes_.size(), 0.0), latency(schemes_.size(), 0.0);
    const double count = static_cast<double>(nets_.size());
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      for (std::size_t n = 0; n < nets_.size(); ++n) {
        const auto& run = results_[n][s];
        ipc[s] += run.overall_ipc() / results_[n][0].overall_ipc() / count;
        latency[s] += run.total_cycles() / results_[n][0].total_cycles() / count;
      }
    }
    std::printf("fig7_sweep at %llu tiles/layer: cycle checksum %.1f "
                "(242003385.8 at the figures' 480 tiles)\n",
                static_cast<unsigned long long>(kSweepTiles), checksum());
    std::printf("reproduced vs paper:\n");
    std::printf("  SEAL-D / Direct IPC            %.2fx (paper 1.40x)\n", ipc[3] / ipc[1]);
    std::printf("  SEAL-C / Counter IPC           %.2fx (paper 1.34x)\n", ipc[4] / ipc[2]);
    std::printf("  SEAL-D latency cut vs Direct   %.0f %% (paper 28 %%)\n",
                (1.0 - latency[3] / latency[1]) * 100.0);
    std::printf("  SEAL-C latency cut vs Counter  %.0f %% (paper 26 %%)\n",
                (1.0 - latency[4] / latency[2]) * 100.0);
    std::printf("These ratios are the only reference results in the repository; the "
                "model is otherwise unvalidated. Caches start empty on every sampled "
                "layer slice, and each layer's latency is extrapolated from its slice: "
                "at the figures' 480 tiles this under-reports SEAL-D on vgg16 by ~8 %% "
                "(ROADMAP); this sweep's %llu-tile slices give other absolute latencies.\n",
                static_cast<unsigned long long>(kSweepTiles));
  }

  [[nodiscard]] std::string extra_json() const override {
    util::JsonWriter json;
    json.begin_object();
    json.field("tiles", kSweepTiles);
    json.key("layer_host_ms").begin_array();
    for (const LayerRow& row : layer_table_) {
      json.begin_object();
      json.field("network", row.network);
      json.field("layer", row.layer);
      json.field("type", row.type);
      json.field("scheme", row.scheme);
      json.field("host_ms", row.ms);
      json.field("full_cycles", row.cycles);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return json.str();
  }

 private:
  struct LayerRow {
    std::string network, layer, type, scheme;
    double ms = 0.0;
    double cycles = 0.0;
  };

  /// Latencies summed scheme-major, as bench_parallel_scaling sums them.
  [[nodiscard]] double checksum() const {
    double sum = 0.0;
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      for (std::size_t n = 0; n < nets_.size(); ++n) sum += results_[n][s].total_cycles();
    }
    return sum;
  }

  /// SEAL-D strictly between Baseline and Direct, SEAL-C strictly between
  /// Baseline and Counter, on every network (simulated latency). Indices
  /// follow paper_schemes(): baseline, direct, counter, seal-d, seal-c.
  void check_orderings() {
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      const auto cycles = [&](std::size_t s) { return results_[n][s].total_cycles(); };
      if (!(cycles(0) < cycles(3) && cycles(3) < cycles(1))) {
        ctx_.ops.fail(ops_[n][3], "SEAL-D latency not between Baseline and Direct");
      }
      if (!(cycles(0) < cycles(4) && cycles(4) < cycles(2))) {
        ctx_.ops.fail(ops_[n][4], "SEAL-C latency not between Baseline and Counter");
      }
    }
  }

  /// Whole-network runs at jobs=1: host time per network, and the base of
  /// the pass's parallel efficiency.
  void probe_serial_networks(Tracer& tracer, Metrics& out) {
    double serial_ms = 0.0;
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      double net_ms = 0.0;
      for (std::size_t s = 0; s < schemes_.size(); ++s) {
        const sim::SchemeInfo& info = *schemes_[s];
        ctx_.ops.run("serial run_network " + nets_[n].name + "." + info.cli_name,
                     [&](int op) {
                       workload::NetworkResult serial;
                       int id = -1;
                       {
                         Scope span(&tracer, "workload.run_network.serial", op);
                         id = span.id();
                         serial = workload::run_network(nets_[n].specs, config_for(info),
                                                        options_for(info, kSweepTiles, 1));
                       }
                       net_ms += tracer.ms(id);
                       if (serial.total_cycles() != results_[n][s].total_cycles()) {
                         ctx_.ops.fail(op, "jobs=1 latency differs from the parallel pass");
                       }
                     });
      }
      out["workload.net_host_ms." + nets_[n].name] = net_ms;
      serial_ms += net_ms;
    }
    const double pass_ms = out.at("bench.pass_ms");
    out["workload.parallel_efficiency"] = serial_ms / (ctx_.jobs * pass_ms);
  }

  /// One run per (network, layer, scheme) through layer_filter, at jobs=1.
  /// The layer latencies must add up to the whole-network latency exactly.
  void probe_layers(Tracer& tracer, Metrics& out) {
    std::map<std::string, double> by_type;
    std::vector<double> layer_ms;
    layer_table_.clear();
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      for (std::size_t s = 0; s < schemes_.size(); ++s) {
        const sim::SchemeInfo& info = *schemes_[s];
        ctx_.ops.run("per-layer runs " + nets_[n].name + "." + info.cli_name,
                     [&](int op) {
                       double cycles = 0.0;
                       for (std::size_t i = 0; i < nets_[n].specs.size(); ++i) {
                         LayerRow row = run_layer(n, info, i, tracer, op);
                         by_type[row.type] += row.ms;
                         layer_ms.push_back(row.ms);
                         cycles += row.cycles;
                         layer_table_.push_back(std::move(row));
                       }
                       if (cycles != results_[n][s].total_cycles()) {
                         ctx_.ops.fail(op, "layer cycles do not sum to the network total");
                       }
                     });
      }
    }
    for (const char* type : {"conv", "pool", "fc"}) {
      out[std::string("workload.layer_host_ms.") + type] = by_type[type];
    }
    out["workload.layer_host_ms_p50"] = percentile(layer_ms, 50);
    out["workload.layer_host_ms_p90"] = percentile(layer_ms, 90);
    out["workload.layer_host_ms_max"] = percentile(layer_ms, 100);
    std::printf("host ms per (network, layer, scheme), jobs=1:\n");
    std::printf("  %-9s %-12s %-5s %-8s %9s %14s\n", "network", "layer", "type",
                "scheme", "host_ms", "full_cycles");
    for (const LayerRow& row : layer_table_) {
      std::printf("  %-9s %-12s %-5s %-8s %9.3f %14.1f\n", row.network.c_str(),
                  row.layer.c_str(), row.type.c_str(), row.scheme.c_str(), row.ms,
                  row.cycles);
    }
  }

  LayerRow run_layer(std::size_t n, const sim::SchemeInfo& info, std::size_t index,
                     Tracer& tracer, int op) {
    workload::RunOptions options = options_for(info, kSweepTiles, 1);
    options.layer_filter = {index};
    workload::NetworkResult one;
    int id = -1;
    {
      Scope span(&tracer, "workload.run_network.layer", op);
      id = span.id();
      one = workload::run_network(nets_[n].specs, config_for(info), options);
    }
    const models::LayerSpec& spec = nets_[n].specs[index];
    const char* type = spec.type == models::LayerSpec::Type::kConv   ? "conv"
                       : spec.type == models::LayerSpec::Type::kPool ? "pool"
                                                                     : "fc";
    return {nets_[n].name, spec.name, type, info.cli_name, tracer.ms(id),
            one.layers.front().full_cycles()};
  }

  Context& ctx_;
  std::vector<Network> nets_;
  std::vector<const sim::SchemeInfo*> schemes_;
  std::vector<std::size_t> order_;  ///< pass order over net * schemes + scheme
  Layouts layouts_;
  std::vector<std::vector<workload::NetworkResult>> results_;  ///< [net][scheme]
  std::vector<std::vector<int>> ops_;                          ///< [net][scheme]
  std::vector<LayerRow> layer_table_;
};

// --------------------------------------------------------------------------

/// Forwards bus transfers to a wrapped probe and counts them (no clock).
class CountingProbe final : public sim::BusProbe {
 public:
  explicit CountingProbe(std::unique_ptr<sim::BusProbe> inner) : inner_(std::move(inner)) {}
  void on_transfer(sim::Addr line_addr, std::uint32_t bytes, bool is_write,
                   bool encrypted) override {
    ++transfers_;
    inner_->on_transfer(line_addr, bytes, is_write, encrypted);
  }
  void on_data(sim::Addr line_addr, std::span<const std::uint8_t> wire_bytes,
               bool is_write, bool encrypted) override {
    inner_->on_data(line_addr, wire_bytes, is_write, encrypted);
  }

  std::unique_ptr<sim::BusProbe> inner_;
  std::uint64_t transfers_ = 0;
};

/// BusProbeHook wrapper that counts the transfers its inner hook's probes see.
class CountingHook final : public workload::BusProbeHook {
 public:
  explicit CountingHook(workload::BusProbeHook& inner) : inner_(inner) {}
  std::unique_ptr<sim::BusProbe> make_probe(std::size_t spec_index) override {
    return std::make_unique<CountingProbe>(inner_.make_probe(spec_index));
  }
  void merge_probe(std::unique_ptr<sim::BusProbe> probe,
                   std::size_t spec_index) override {
    auto* counting = static_cast<CountingProbe*>(probe.get());
    transfers_ += counting->transfers_;
    inner_.merge_probe(std::move(counting->inner_), spec_index);
  }
  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }

 private:
  workload::BusProbeHook& inner_;
  std::uint64_t transfers_ = 0;
};

class AuditedNet final : public Workload {
 public:
  explicit AuditedNet(Context& ctx) : ctx_(ctx) {}

  void setup(Tracer* tracer) override {
    nets_ = {paper_network("resnet18", tracer)};
    schemes_ = {&scheme("seal-d"), &scheme("counter")};
    if (ctx_.seed % 2) std::swap(schemes_[0], schemes_[1]);
    inputs_.clear();
    for (const sim::SchemeInfo* info : schemes_) {
      Scope span(tracer, "verify.build_input");
      verify::BuildOptions build;
      build.plan.encryption_ratio = 0.5;
      build.selective = plan_rows(*info);
      inputs_.push_back(std::make_unique<verify::AnalysisInput>(
          verify::build_input(nets_[0].specs, build)));
    }
    layouts_ = build_layouts(nets_, tracer);
  }

  void iterate(Tracer* tracer) override {
    results_.assign(schemes_.size(), {});
    digests_.assign(schemes_.size(), 0);
    for (std::size_t s = 0; s < schemes_.size(); ++s) audit(s, tracer);
  }

  void add_rates(double pass_ms, Metrics& out) const override {
    std::uint64_t instructions = 0;
    for (const auto& result : results_) {
      instructions += summed_stats(result).thread_instructions;
    }
    out["sim.minst_per_s"] = static_cast<double>(instructions) / (pass_ms * 1e3);
  }

  void probe(Tracer& tracer, Metrics& out) override {
    out["core.layout_ms"] = tracer.total_ms("core.layout");
    out["verify.build_input_ms"] = tracer.total_ms("verify.build_input");
    out["verify.secure_check_ms"] = tracer.total_ms("verify.TaintAuditor::check");
    out["verify.scheme_check_ms"] = tracer.total_ms("verify.run_scheme_conformance");
    out["verify.profile_check_ms"] = tracer.total_ms("verify.run_profile_check");
    std::vector<const workload::NetworkResult*> runs;
    std::vector<std::vector<std::uint64_t>> cycles(1);
    for (const auto& result : results_) {
      runs.push_back(&result);
      cycles[0].push_back(summed_stats(result).cycles);
    }
    add_sim_counts(runs, out);
    probe_sinks(tracer, out);
    probe_simulator(ctx_, layouts_, nets_, schemes_, kAuditTiles, cycles, tracer, out);
  }

  void summary() const override {
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      std::printf("audited_net resnet18 %s: latency %.1f cycles, ledger digest %016llx\n",
                  schemes_[s]->cli_name, results_[s].total_cycles(),
                  static_cast<unsigned long long>(digests_[s]));
    }
  }

 private:
  telemetry::RunInfo report_info(const sim::SchemeInfo& info,
                                 const sim::GpuConfig& config) const {
    telemetry::RunInfo run_info;
    run_info.tool = "perfbench";
    run_info.workload = nets_[0].name;
    run_info.scheme = info.cli_name;
    run_info.provenance = telemetry::make_provenance(config, ctx_.jobs, {info.cli_name});
    return run_info;
  }

  /// One audited run of scheme `s`, then its three checks and the export.
  void audit(std::size_t s, Tracer* tracer) {
    const sim::SchemeInfo& info = *schemes_[s];
    const sim::GpuConfig config = config_for(info);
    const std::string prefix = "audited_net." + nets_[0].name + "." + info.cli_name;
    telemetry::TelemetryOptions topts;
    topts.profile = true;
    telemetry::RunTelemetry collect(topts);
    verify::TaintAuditor auditor(inputs_[s].get());

    bool ran = false;  // the checks below need a finished run, not a matching one
    ctx_.ops.run("audited run_network " + prefix, [&](int op) {
      workload::RunOptions options = options_for(info, kAuditTiles, ctx_.jobs);
      options.telemetry = &collect;
      options.probe_hook = &auditor;
      {
        Scope span(tracer, "workload.run_network", op);
        results_[s] = workload::run_network(nets_[0].specs, config, options);
      }
      ran = true;
      digests_[s] = auditor.ledger().digest();
      bool ok = check_run(*ctx_.expected, prefix, results_[s]);
      ok = ctx_.expected->check(prefix + ".ledger_digest", digests_[s]) && ok;
      ok = ctx_.expected->check(prefix + ".ledger_bytes", auditor.ledger().total_bytes()) &&
           ok;
      if (!ok) ctx_.ops.fail(op, "simulated outputs differ from expected.txt");
    });
    if (!ran) return;

    const sim::SimStats total = summed_stats(results_[s]);
    const auto require_clean = [&](int op, const verify::Report& report) {
      if (report.error_count() > 0) ctx_.ops.fail(op, report.to_text());
    };
    ctx_.ops.run("secure.* check " + prefix, [&](int op) {
      Scope span(tracer, "verify.TaintAuditor::check", op);
      require_clean(op, auditor.check(config.scheme, config.selective,
                                      total.counter_traffic_bytes));
    });
    ctx_.ops.run("scheme.* check " + prefix, [&](int op) {
      Scope span(tracer, "verify.run_scheme_conformance", op);
      verify::SchemeRunEvidence evidence;
      evidence.input = inputs_[s].get();
      evidence.ledger = &auditor.ledger();
      evidence.stats = total;
      evidence.config = config;
      require_clean(op, verify::run_scheme_conformance(info, evidence));
    });
    ctx_.ops.run("profile.* check " + prefix, [&](int op) {
      Scope span(tracer, "verify.run_profile_check", op);
      require_clean(op, verify::run_profile_check(collect.profile()));
    });
    ctx_.ops.run("run report export " + prefix, [&](int op) {
      Scope span(tracer, "telemetry.run_report_json", op);
      if (telemetry::run_report_json(report_info(info, config), config, collect).empty()) {
        ctx_.ops.fail(op, "empty run report");
      }
    });
  }

  /// Each scheme three more times: plain, with the profiling sink only, and
  /// with the taint auditor only. The differences are the sinks' host cost.
  void probe_sinks(Tracer& tracer, Metrics& out) {
    double plain_ms = 0.0, profiled_ms = 0.0, audited_ms = 0.0;
    std::uint64_t transfers = 0, lines = 0;
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      const sim::SchemeInfo& info = *schemes_[s];
      const sim::GpuConfig config = config_for(info);
      const auto timed_run = [&](const char* name, int op,
                                 const workload::RunOptions& options) {
        Scope span(&tracer, name, op);
        workload::run_network(nets_[0].specs, config, options);
        return span.id();
      };
      ctx_.ops.run(std::string("sink overhead runs ") + info.cli_name, [&](int op) {
        const workload::RunOptions plain = options_for(info, kAuditTiles, ctx_.jobs);
        plain_ms += tracer.ms(timed_run("workload.run_network.plain", op, plain));

        telemetry::TelemetryOptions topts;
        topts.profile = true;
        telemetry::RunTelemetry collect(topts);
        workload::RunOptions profiled = plain;
        profiled.telemetry = &collect;
        profiled_ms += tracer.ms(timed_run("workload.run_network.profiled", op, profiled));

        verify::TaintAuditor auditor(inputs_[s].get());
        CountingHook counting(auditor);
        workload::RunOptions audited = plain;
        audited.probe_hook = &counting;
        audited_ms += tracer.ms(timed_run("workload.run_network.audited", op, audited));
        transfers += counting.transfers();
        lines += auditor.ledger().lines().size();

        Scope span(&tracer, "telemetry.chrome_trace_json", op);
        if (telemetry::chrome_trace_json(report_info(info, config), config, collect)
                .empty()) {
          ctx_.ops.fail(op, "empty Perfetto trace");
        }
      });
    }
    out["telemetry.profile_overhead_ms"] = profiled_ms - plain_ms;
    out["telemetry.export_ms"] = tracer.total_ms("telemetry.run_report_json") +
                                 tracer.total_ms("telemetry.chrome_trace_json");
    out["verify.taint_overhead_ms"] = audited_ms - plain_ms;
    out["verify.bus_transfers"] = static_cast<double>(transfers);
    out["verify.ns_per_transfer"] =
        transfers ? (audited_ms - plain_ms) * 1e6 / static_cast<double>(transfers) : 0.0;
    out["verify.ledger_lines"] = static_cast<double>(lines);
  }

  Context& ctx_;
  std::vector<Network> nets_;  ///< resnet18 only
  std::vector<const sim::SchemeInfo*> schemes_;
  std::vector<std::unique_ptr<verify::AnalysisInput>> inputs_;  ///< per scheme
  Layouts layouts_;
  std::vector<workload::NetworkResult> results_;  ///< per scheme
  std::vector<std::uint64_t> digests_;            ///< ledger digest per scheme
};

}  // namespace

std::unique_ptr<Workload> make_fig7_sweep(Context& ctx) {
  return std::make_unique<Fig7Sweep>(ctx);
}

std::unique_ptr<Workload> make_audited_net(Context& ctx) {
  return std::make_unique<AuditedNet>(ctx);
}

}  // namespace perfbench
