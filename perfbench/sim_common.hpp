// Simulator-side helpers shared by the workloads that run the simulator
// (fig7_sweep, audited_net, and serve_capacity's set-up profiling).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/model_layout.hpp"
#include "models/layer_spec.hpp"
#include "sim/scheme_registry.hpp"
#include "workload/network_runner.hpp"

namespace perfbench {

/// Input resolution of every simulated network (the paper's 224 x 224).
inline constexpr int kInput = 224;

struct Network {
  std::string name;
  std::vector<sealdl::models::LayerSpec> specs;
};

/// "vgg16", "resnet18" or "resnet34" at kInput, built in a span.
Network paper_network(const std::string& name, Tracer* tracer);

/// Registry entry by CLI name; throws for an unknown name.
const sealdl::sim::SchemeInfo& scheme(const char* cli_name);

/// Baseline, Direct, Counter, SEAL-D, SEAL-C, in this order.
std::vector<const sealdl::sim::SchemeInfo*> paper_schemes();

/// The GTX480 config as run_network runs `info`.
sealdl::sim::GpuConfig config_for(const sealdl::sim::SchemeInfo& info);

/// The figures' run options: 50 % SEAL plan with the boundary policy.
sealdl::workload::RunOptions options_for(const sealdl::sim::SchemeInfo& info,
                                         std::uint64_t tiles, int jobs);

/// True for the SEAL schemes, whose secure map follows the plan's rows.
bool plan_rows(const sealdl::sim::SchemeInfo& info);

/// Deterministic seeded permutation of 0..n-1.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

sealdl::sim::SimStats summed_stats(const sealdl::workload::NetworkResult& result);

/// Checks a run's summed SimStats and latency against expected.txt.
bool check_run(Expected& expected, const std::string& prefix,
               const sealdl::workload::NetworkResult& result);

/// The sim.* exact counts, summed over a pass's runs.
void add_sim_counts(const std::vector<const sealdl::workload::NetworkResult*>& runs,
                    Metrics& out);

/// A network laid out as run_network lays it out: the secure heap, the SEAL
/// plan (plan-row schemes only) and the address layout.
struct Layout {
  sealdl::core::SecureHeap heap;
  sealdl::core::EncryptionPlan plan;
  std::optional<sealdl::core::ModelLayout> layout;
};

/// Builds one layout inside a "core.layout" span.
std::unique_ptr<Layout> build_layout(const std::vector<sealdl::models::LayerSpec>& specs,
                                     bool plan_rows, Tracer* tracer);

/// Laid-out networks keyed by (network name, plan rows?).
using Layouts = std::map<std::pair<std::string, bool>, std::unique_ptr<Layout>>;

/// Both layouts (plain and plan rows) of every network.
Layouts build_layouts(const std::vector<Network>& nets, Tracer* tracer);

/// Host cost of the simulator proper for one network under one scheme:
/// trace generation drained alone (no simulator), then GpuSimulator::run on
/// the same programs, layer by layer on one thread.
struct SimCost {
  double drain_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t trace_ops = 0;
  std::uint64_t cycles = 0;  ///< unscaled slice cycles
};

SimCost measure_sim(const Layout& layout, const sealdl::sim::SchemeInfo& info,
                    std::uint64_t tiles, Tracer& tracer, int op);

/// Measures every (network, scheme) pair as one operation each, checking
/// the direct simulator's cycles against `expected_cycles(net, scheme)`, and
/// adds the trace-generation and simulator metrics.
void probe_simulator(Context& ctx, const Layouts& layouts,
                     const std::vector<Network>& nets,
                     const std::vector<const sealdl::sim::SchemeInfo*>& schemes,
                     std::uint64_t tiles,
                     const std::vector<std::vector<std::uint64_t>>& expected_cycles,
                     Tracer& tracer, Metrics& out);

}  // namespace perfbench
