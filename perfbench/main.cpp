// sealdl host-time benchmark: command line, run modes and result (README.md).
//
//   sealdl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//       [--expected perfbench/expected.txt] [--record]
//       [--spans FILE] [--commit SHA]
//
// Untraced (--trace 0): set-up runs several times (setup_s is the median),
// then passes of the workload repeat until S seconds are spent (wall_s is the
// median pass). Traced (--trace 1): a warm-up pass, a pass with a span around
// every call into a library layer, an untraced pass to compare it with, then
// the workload's decomposition probes; the per-layer metrics come from those
// spans, and the spans go to --spans when the run ends. The last stdout line
// is the result object.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, reported by every traced run. A layer the workload
/// never calls reads 0.
constexpr MetricDef kPerLayer[] = {
    {"bench.pass_ms", "ms"},
    {"bench.trace_overhead_ms", "ms"},
    {"bench.uncovered_share", "ratio"},
    {"sim.minst_per_s", "Minst/s"},
    {"serve.kreq_per_s", "kreq/s"},
    {"nn.train_samples_per_s", "samples/s"},
    {"core.layout_ms", "ms"},
    {"core.importance_ms", "ms"},
    {"workload.trace_gen_ms", "ms"},
    {"workload.trace_ops", "count"},
    {"workload.net_host_ms.vgg16", "ms"},
    {"workload.net_host_ms.resnet18", "ms"},
    {"workload.net_host_ms.resnet34", "ms"},
    {"workload.layer_host_ms.conv", "ms"},
    {"workload.layer_host_ms.pool", "ms"},
    {"workload.layer_host_ms.fc", "ms"},
    {"workload.layer_host_ms_p50", "ms"},
    {"workload.layer_host_ms_p90", "ms"},
    {"workload.layer_host_ms_max", "ms"},
    {"workload.parallel_efficiency", "ratio"},
    {"sim.self_ms", "ms"},
    {"sim.host_ns_per_cycle", "ns"},
    {"sim.host_ms.baseline", "ms"},
    {"sim.host_ms.direct", "ms"},
    {"sim.host_ms.counter", "ms"},
    {"sim.host_ms.seal-d", "ms"},
    {"sim.host_ms.seal-c", "ms"},
    {"sim.cycles", "count"},
    {"sim.thread_instructions", "count"},
    {"sim.l2_hits", "count"},
    {"sim.l2_misses", "count"},
    {"sim.dram_bytes", "count"},
    {"sim.encrypted_bytes", "count"},
    {"sim.aes_busy_cycles", "count"},
    {"sim.dram_busy_cycles", "count"},
    {"sim.counter_hits", "count"},
    {"sim.counter_misses", "count"},
    {"sim.counter_traffic_bytes", "count"},
    {"telemetry.profile_overhead_ms", "ms"},
    {"telemetry.export_ms", "ms"},
    {"verify.build_input_ms", "ms"},
    {"verify.taint_overhead_ms", "ms"},
    {"verify.bus_transfers", "count"},
    {"verify.ns_per_transfer", "ns"},
    {"verify.ledger_lines", "count"},
    {"verify.secure_check_ms", "ms"},
    {"verify.scheme_check_ms", "ms"},
    {"verify.profile_check_ms", "ms"},
    {"serve.service_model_ms", "ms"},
    {"serve.run_fleet_ms_p50", "ms"},
    {"serve.run_fleet_ms_p90", "ms"},
    {"serve.probes", "count"},
    {"serve.requests", "count"},
    {"serve.us_per_request", "us"},
    {"serve.fleet_check_ms", "ms"},
    {"attack.prepare_s", "s"},
    {"attack.substitute_s", "s"},
    {"attack.eval_ms", "ms"},
    {"nn.train_samples", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 0;
  std::string expected = "perfbench/expected.txt";
  bool record = false;
  std::string spans;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--expected") {
      args.expected = value();
    } else if (flag == "--record") {
      args.record = true;
    } else if (flag == "--spans") {
      args.spans = value();
    } else if (flag == "--commit") {
      args.commit = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  // The simulator workloads use every core up to the four the ROADMAP's
  // jobs=4 target assumes.
  args.jobs = static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Context& ctx) {
  if (name == "fig7_sweep") return make_fig7_sweep(ctx);
  if (name == "audited_net") return make_audited_net(ctx);
  if (name == "serve_capacity") return make_serve_capacity(ctx);
  if (name == "substitute_train") return make_substitute_train(ctx);
  throw std::invalid_argument("unknown workload " + name +
                              " (fig7_sweep|audited_net|serve_capacity|substitute_train)");
}

/// Build and host facts stamped on every result. Debug and sanitizer builds
/// time something else, so they are flagged as not comparable.
std::string provenance_json(const Args& args) {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
#else
  const bool sanitized = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  sealdl::util::JsonWriter json;
  json.begin_object();
  json.field("workload", args.workload);
  json.field("seed", static_cast<std::uint64_t>(args.seed));
  json.field("seconds", args.seconds);
  json.field("trace", args.trace);
  json.field("jobs", args.jobs);
  json.field("host_cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("build_type", build_type);
  json.field("compiler", __VERSION__);
  json.field("optimized", optimized);
  json.field("sanitized", sanitized);
  json.field("comparable", optimized && !sanitized && build_type != "Debug");
  json.field("commit", args.commit);
  json.end_object();
  return json.str();
}

/// Peak resident memory of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter survives exec and so would report the launching
/// process's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_result(const Ops& ops, const MetricDef* defs, std::size_t count,
                  const Metrics& values) {
  sealdl::util::JsonWriter json;
  json.begin_object();
  json.field("correct", ops.failed() == 0);
  json.field("attempted", ops.attempted());
  json.field("failed", ops.failed());
  json.key("metrics").begin_object();
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    json.key(defs[i].name).begin_object();
    json.field("value", std::isfinite(value) ? value : 0.0);
    json.field("unit", defs[i].unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
}

/// Untraced run: repeated set-up, then passes until the run length is spent.
Metrics timed_run(Workload& workload, const Args& args) {
  std::vector<double> setup_ms;
  for (int rep = 0; rep < workload.setup_reps(); ++rep) {
    const auto begin = Clock::now();
    workload.setup(nullptr);
    setup_ms.push_back(ms_since(begin));
  }
  std::vector<double> pass_ms;
  Metrics rates;
  // Peak memory of set-up plus one pass: what running the workload once
  // needs. Later passes may grow it through allocator arenas, which would tie
  // the metric to the pass count and so to the workload's speed.
  double rss_mb = 0.0;
  const auto start = Clock::now();
  do {
    workload.reset();
    const auto begin = Clock::now();
    workload.iterate(nullptr);
    pass_ms.push_back(ms_since(begin));
    if (pass_ms.size() == 1) rss_mb = peak_rss_mb();
    workload.add_rates(pass_ms.back(), rates);
  } while (ms_since(start) < args.seconds * 1e3);
  workload.summary();
  std::printf("%zu passes: median %.1f ms, min %.1f ms, max %.1f ms; set-up median "
              "%.1f ms over %zu\n",
              pass_ms.size(), median(pass_ms), percentile(pass_ms, 0),
              percentile(pass_ms, 100), median(setup_ms), setup_ms.size());
  for (const auto& [name, value] : rates) {
    std::printf("last pass %s = %.4g\n", name.c_str(), value);
  }
  return {{"wall_s", median(pass_ms) / 1e3},
          {"setup_s", median(setup_ms) / 1e3},
          {"peak_rss_mb", rss_mb}};
}

/// Traced run: warm-up, traced and untraced passes, then the decomposition
/// probes.
Metrics traced_run(Workload& workload, const Args& args) {
  Tracer tracer;
  {
    Scope setup(&tracer, "bench.setup");
    workload.setup(&tracer);
  }
  // A first, untimed pass absorbs warm-up (first-touch allocation, thread
  // start-up), which would otherwise land on whichever pass came first.
  workload.reset();
  workload.iterate(nullptr);
  workload.reset();
  int root = -1;
  {
    Scope pass(&tracer, "bench.pass");
    root = pass.id();
    workload.iterate(&tracer);
  }
  workload.reset();
  const auto begin = Clock::now();
  workload.iterate(nullptr);
  const double untraced_ms = ms_since(begin);
  Metrics out;
  out["bench.pass_ms"] = untraced_ms;
  out["bench.trace_overhead_ms"] = tracer.ms(root) - untraced_ms;
  out["bench.uncovered_share"] = tracer.uncovered_share(root);
  workload.add_rates(untraced_ms, out);
  {
    Scope probe(&tracer, "bench.probe");
    workload.probe(tracer, out);
  }
  workload.summary();
  std::printf("traced pass %.1f ms vs untraced %.1f ms; %.2f %% of the traced pass "
              "is outside every layer span\n",
              tracer.ms(root), untraced_ms, out["bench.uncovered_share"] * 100.0);
  for (const auto& [name, value] : out) {
    const bool known = std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                                   [&](const MetricDef& d) { return name == d.name; });
    if (!known) throw std::logic_error("metric " + name + " missing from the catalog");
  }
  if (!args.spans.empty()) {
    std::ofstream file(args.spans);
    file << tracer.to_json(provenance_json(args), workload.extra_json()) << '\n';
    if (!file) throw std::runtime_error("cannot write " + args.spans);
    std::printf("wrote spans to %s\n", args.spans.c_str());
  }
  return out;
}

int main_impl(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Expected expected = Expected::load(args.expected, args.record);
  Context ctx;
  ctx.seed = args.seed;
  ctx.jobs = args.jobs;
  ctx.expected = &expected;
  const std::unique_ptr<Workload> workload = make_workload(args.workload, ctx);
  std::printf("provenance %s\n", provenance_json(args).c_str());

  const Metrics metrics = args.trace ? traced_run(*workload, args) : timed_run(*workload, args);
  if (args.record) {
    expected.save();
    std::printf("recorded simulated outputs to %s\n", args.expected.c_str());
  }
  if (args.trace) {
    print_result(ctx.ops, kPerLayer, std::size(kPerLayer), metrics);
  } else {
    print_result(ctx.ops, kEndToEnd, std::size(kEndToEnd), metrics);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sealdl_perfbench: %s\n", e.what());
    return 2;
  }
}
