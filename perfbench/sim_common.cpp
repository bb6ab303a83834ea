#include "sim_common.hpp"

#include <stdexcept>

#include "sim/gpu_simulator.hpp"
#include "util/rng.hpp"
#include "workload/layer_trace.hpp"

namespace perfbench {

using namespace sealdl;

Network paper_network(const std::string& name, Tracer* tracer) {
  Scope span(tracer, "models.layer_specs");
  if (name == "vgg16") return {name, models::vgg16_specs(kInput)};
  if (name == "resnet18") return {name, models::resnet18_specs(kInput)};
  if (name == "resnet34") return {name, models::resnet34_specs(kInput)};
  throw std::invalid_argument("no network " + name);
}

const sim::SchemeInfo& scheme(const char* cli_name) {
  const sim::SchemeInfo* info = sim::find_scheme(cli_name);
  if (info == nullptr) throw std::invalid_argument(std::string("no scheme ") + cli_name);
  return *info;
}

std::vector<const sim::SchemeInfo*> paper_schemes() {
  return {&scheme("baseline"), &scheme("direct"), &scheme("counter"), &scheme("seal-d"),
          &scheme("seal-c")};
}

sim::GpuConfig config_for(const sim::SchemeInfo& info) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  sim::apply_scheme(info, config);
  // run_network derives selectivity from the protection scope.
  config.selective = plan_rows(info);
  return config;
}

workload::RunOptions options_for(const sim::SchemeInfo& info, std::uint64_t tiles,
                                 int jobs) {
  workload::RunOptions options;
  options.max_tiles_per_layer = tiles;
  options.selective = info.selective();
  options.scope = info.scope;
  options.plan.encryption_ratio = 0.5;
  options.jobs = jobs;
  return options;
}

bool plan_rows(const sim::SchemeInfo& info) {
  return info.scope == sim::ProtectionScope::kPlanRows;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

sim::SimStats summed_stats(const workload::NetworkResult& result) {
  sim::SimStats total;
  for (const auto& layer : result.layers) total.merge_from(layer.stats);
  return total;
}

bool check_run(Expected& expected, const std::string& prefix,
               const workload::NetworkResult& result) {
  const sim::SimStats s = summed_stats(result);
  bool ok = expected.check(prefix + ".total_cycles", result.total_cycles());
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"cycles", s.cycles},
      {"warp_instructions", s.warp_instructions},
      {"thread_instructions", s.thread_instructions},
      {"l2_hits", s.l2_hits},
      {"l2_misses", s.l2_misses},
      {"dram_read_bytes", s.dram_read_bytes},
      {"dram_write_bytes", s.dram_write_bytes},
      {"encrypted_bytes", s.encrypted_bytes},
      {"bypassed_bytes", s.bypassed_bytes},
      {"counter_hits", s.counter_hits},
      {"counter_misses", s.counter_misses},
      {"counter_traffic_bytes", s.counter_traffic_bytes},
  };
  for (const auto& [name, value] : counts) {
    ok = expected.check(prefix + "." + name, value) && ok;
  }
  ok = expected.check(prefix + ".aes_busy_cycles", s.aes_busy_cycles) && ok;
  ok = expected.check(prefix + ".dram_busy_cycles", s.dram_busy_cycles) && ok;
  return ok;
}

void add_sim_counts(const std::vector<const workload::NetworkResult*>& runs,
                    Metrics& out) {
  sim::SimStats s;
  for (const workload::NetworkResult* run : runs) s.merge_from(summed_stats(*run));
  out["sim.cycles"] = static_cast<double>(s.cycles);
  out["sim.thread_instructions"] = static_cast<double>(s.thread_instructions);
  out["sim.l2_hits"] = static_cast<double>(s.l2_hits);
  out["sim.l2_misses"] = static_cast<double>(s.l2_misses);
  out["sim.dram_bytes"] = static_cast<double>(s.dram_bytes());
  out["sim.encrypted_bytes"] = static_cast<double>(s.encrypted_bytes);
  out["sim.aes_busy_cycles"] = s.aes_busy_cycles;
  out["sim.dram_busy_cycles"] = s.dram_busy_cycles;
  out["sim.counter_hits"] = static_cast<double>(s.counter_hits);
  out["sim.counter_misses"] = static_cast<double>(s.counter_misses);
  out["sim.counter_traffic_bytes"] = static_cast<double>(s.counter_traffic_bytes);
}

std::unique_ptr<Layout> build_layout(const std::vector<models::LayerSpec>& specs,
                                     bool plan_rows, Tracer* tracer) {
  Scope span(tracer, "core.layout");
  auto out = std::make_unique<Layout>();
  const core::EncryptionPlan* plan = nullptr;
  if (plan_rows) {
    core::PlanOptions options;
    options.encryption_ratio = 0.5;
    out->plan = core::EncryptionPlan::for_specs(specs, options);
    plan = &out->plan;
  }
  out->layout.emplace(specs, plan, out->heap);
  return out;
}

Layouts build_layouts(const std::vector<Network>& nets, Tracer* tracer) {
  Layouts layouts;
  for (const Network& net : nets) {
    for (const bool rows : {false, true}) {
      layouts[{net.name, rows}] = build_layout(net.specs, rows, tracer);
    }
  }
  return layouts;
}

SimCost measure_sim(const Layout& layout, const sim::SchemeInfo& info,
                    std::uint64_t tiles, Tracer& tracer, int op) {
  const sim::GpuConfig config = config_for(info);
  const int num_warps = config.num_sms * config.warps_per_sm;
  SimCost cost;
  for (const core::LayerAddressing& layer : layout.layout->layers()) {
    int drain_span = -1;
    {
      Scope span(&tracer, "workload.trace_drain", op);
      drain_span = span.id();
      workload::LayerWork work = workload::make_layer_programs(layer, num_warps, tiles);
      for (sim::WarpProgramPtr& program : work.programs) {
        while (program->next()) ++cost.trace_ops;
      }
    }
    cost.drain_ms += tracer.ms(drain_span);

    workload::LayerWork work = workload::make_layer_programs(layer, num_warps, tiles);
    sim::GpuSimulator simulator(config, &layout.heap.secure_map());
    simulator.load_work(std::move(work.programs));
    int run_span = -1;
    {
      Scope span(&tracer, "sim.GpuSimulator::run", op);
      run_span = span.id();
      simulator.run();
    }
    cost.run_ms += tracer.ms(run_span);
    cost.cycles += simulator.stats().cycles;
  }
  return cost;
}

void probe_simulator(Context& ctx, const Layouts& layouts,
                     const std::vector<Network>& nets,
                     const std::vector<const sim::SchemeInfo*>& schemes,
                     std::uint64_t tiles,
                     const std::vector<std::vector<std::uint64_t>>& expected_cycles,
                     Tracer& tracer, Metrics& out) {
  SimCost total;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const sim::SchemeInfo& info = *schemes[s];
      ctx.ops.run("simulator probe " + nets[n].name + "." + info.cli_name, [&](int op) {
        const SimCost cost = measure_sim(*layouts.at({nets[n].name, plan_rows(info)}),
                                         info, tiles, tracer, op);
        if (cost.cycles != expected_cycles.at(n).at(s)) {
          ctx.ops.fail(op, "direct GpuSimulator cycles differ from run_network");
        }
        total.drain_ms += cost.drain_ms;
        total.run_ms += cost.run_ms;
        total.trace_ops += cost.trace_ops;
        total.cycles += cost.cycles;
        out[std::string("sim.host_ms.") + info.cli_name] += cost.run_ms;
      });
    }
  }
  const double self_ms = total.run_ms - total.drain_ms;
  out["workload.trace_gen_ms"] = total.drain_ms;
  out["workload.trace_ops"] = static_cast<double>(total.trace_ops);
  out["sim.self_ms"] = self_ms;
  out["sim.host_ns_per_cycle"] =
      total.cycles ? self_ms * 1e6 / static_cast<double>(total.cycles) : 0.0;
}

}  // namespace perfbench
