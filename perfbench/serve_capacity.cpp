// serve_capacity: the p99-SLO capacity search over serve::run_fleet.
//
// Set-up profiles vgg16 into a serve::ServiceModel under Baseline, SEAL-D
// and Direct (one thread per scheme). A pass then finds, for each scheme and
// each fleet shape (least-loaded fleets of 1, 2 and 4 devices, plus one
// 2-device fleet sharded into 2 pipeline stages), the largest integer
// offered rate the fleet sustains with p99 latency within the SLO and no
// lost request. Arrivals are open-loop Poisson in simulated time, drawn from
// the benchmark seed; each run_fleet call is one operation, checked by the
// fleet.* reconciliation rules. The event loop is single-threaded.
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "serve/fleet.hpp"
#include "sim_common.hpp"
#include "util/json.hpp"
#include "verify/fleet_checkers.hpp"

namespace perfbench {
namespace {

using namespace sealdl;

constexpr std::uint64_t kServeTiles = 48;
constexpr double kHorizonS = 120.0;  ///< simulated arrival window per probe
constexpr double kSloMs = 250.0;    ///< p99 latency limit
constexpr int kMaxBatch = 4;
constexpr std::size_t kQueueDepth = 16;

struct FleetShape {
  const char* name;
  int devices;
  int stages;
};
constexpr FleetShape kFleets[] = {
    {"1dev", 1, 1}, {"2dev", 2, 1}, {"4dev", 4, 1}, {"2dev-2stage", 2, 2}};
constexpr std::size_t kFleetCount = std::size(kFleets);

class ServeCapacity final : public Workload {
 public:
  explicit ServeCapacity(Context& ctx) : ctx_(ctx) {}

  [[nodiscard]] int setup_reps() const override { return 3; }

  void setup(Tracer* tracer) override {
    nets_ = {paper_network("vgg16", tracer)};
    schemes_ = {&scheme("baseline"), &scheme("seal-d"), &scheme("direct")};
    for (const FleetShape& shape : kFleets) {
      const verify::Report report = verify::run_fleet_options_check(fleet_options(shape));
      if (report.error_count() > 0) throw std::invalid_argument(report.to_text());
    }
    // One profiling thread per scheme (3 <= the 4 threads the benchmark
    // allows); each ServiceModel profiles its single network serially.
    models_.clear();
    models_.resize(schemes_.size());
    std::vector<std::exception_ptr> errors(schemes_.size());
    const int parent = tracer ? tracer->current() : -1;
    {
      std::vector<std::jthread> threads;
      for (std::size_t s = 0; s < schemes_.size(); ++s) {
        threads.emplace_back([&, s] {
          try {
            Scope span(tracer, "serve.ServiceModel", -1, parent);
            const sim::SchemeInfo& info = *schemes_[s];
            models_[s] = std::make_unique<serve::ServiceModel>(
                std::vector<serve::NamedNetwork>{{nets_[0].name, nets_[0].specs}},
                config_for(info), options_for(info, kServeTiles, 1), kMaxBatch,
                /*jobs=*/1, nullptr);
          } catch (...) {
            errors[s] = std::current_exception();
          }
        });
      }
    }
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    layouts_ = build_layouts(nets_, tracer);
  }

  void iterate(Tracer* tracer) override {
    requests_ = 0;
    capacity_.assign(schemes_.size(), std::vector<Capacity>(kFleetCount));
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      for (std::size_t f = 0; f < kFleetCount; ++f) {
        capacity_[s][f] = find_capacity(s, kFleets[f], tracer);
      }
    }
    // Slower service must buy strictly less capacity: Direct < SEAL-D <
    // Baseline on every fleet shape.
    for (std::size_t f = 0; f < kFleetCount; ++f) {
      const double base = capacity_[0][f].rate, seal = capacity_[1][f].rate,
                   direct = capacity_[2][f].rate;
      if (!(direct < seal && seal < base)) {
        ctx_.ops.fail(capacity_[1][f].last_op,
                      std::string("capacity not ordered Direct < SEAL-D < Baseline on ") +
                          kFleets[f].name);
      }
    }
  }

  void add_rates(double pass_ms, Metrics& out) const override {
    out["serve.kreq_per_s"] = static_cast<double>(requests_) / pass_ms;
  }

  void probe(Tracer& tracer, Metrics& out) override {
    out["core.layout_ms"] = tracer.total_ms("core.layout");
    out["serve.service_model_ms"] = tracer.total_ms("serve.ServiceModel");
    const std::vector<double> fleet_ms = tracer.durations("serve.run_fleet");
    double fleet_total = 0.0;
    for (const double ms : fleet_ms) fleet_total += ms;
    out["serve.run_fleet_ms_p50"] = percentile(fleet_ms, 50);
    out["serve.run_fleet_ms_p90"] = percentile(fleet_ms, 90);
    out["serve.probes"] = static_cast<double>(fleet_ms.size());
    out["serve.requests"] = static_cast<double>(requests_);
    out["serve.us_per_request"] =
        requests_ ? fleet_total * 1e3 / static_cast<double>(requests_) : 0.0;
    out["serve.fleet_check_ms"] = tracer.total_ms("verify.check_fleet_report");

    // The simulator work of set-up: the batch-1 profiles.
    std::vector<const workload::NetworkResult*> runs;
    std::vector<std::vector<std::uint64_t>> cycles(1);
    for (const auto& model : models_) {
      runs.push_back(&model->profile(0));
      cycles[0].push_back(summed_stats(model->profile(0)).cycles);
    }
    add_sim_counts(runs, out);
    probe_simulator(ctx_, layouts_, nets_, schemes_, kServeTiles, cycles, tracer, out);
  }

  void summary() const override {
    std::printf("serve_capacity vgg16: max req/s with p99 <= %.0f ms and no loss over "
                "%.0f s simulated, seed %llu\n",
                kSloMs, kHorizonS, static_cast<unsigned long long>(ctx_.seed));
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      std::printf("  %-8s", schemes_[s]->cli_name);
      for (std::size_t f = 0; f < kFleetCount; ++f) {
        std::printf("  %s %5.0f (p99 %5.1f ms)", kFleets[f].name, capacity_[s][f].rate,
                    capacity_[s][f].p99_ms);
      }
      std::printf("\n");
    }
  }

  [[nodiscard]] std::string extra_json() const override {
    util::JsonWriter json;
    json.begin_object();
    json.key("capacity_rps").begin_object();
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      json.key(schemes_[s]->cli_name).begin_object();
      for (std::size_t f = 0; f < kFleetCount; ++f) {
        json.field(kFleets[f].name, capacity_[s][f].rate);
      }
      json.end_object();
    }
    json.end_object();
    json.end_object();
    return json.str();
  }

 private:
  struct Capacity {
    double rate = 0.0;  ///< largest sustained integer req/s (0: none)
    double p99_ms = 0.0;
    int last_op = -1;
  };

  static serve::FleetOptions fleet_options(const FleetShape& shape) {
    serve::FleetOptions fleet;
    fleet.devices = shape.devices;
    fleet.shard_stages = shape.stages;
    fleet.router = serve::RouterPolicy::kLeastLoaded;
    return fleet;
  }

  /// One capacity probe: does the fleet sustain `rate`? Fails the operation
  /// when run_fleet throws or its report breaks a fleet.* rule.
  bool sustains(std::size_t s, const FleetShape& shape, double rate, Capacity& best,
                Tracer* tracer) {
    serve::ServeOptions options;
    options.rate_rps = rate;
    options.duration_s = kHorizonS;
    options.queue_depth = kQueueDepth;
    options.max_batch = kMaxBatch;
    options.seed = ctx_.seed;
    const serve::FleetOptions fleet = fleet_options(shape);
    char what[96];
    std::snprintf(what, sizeof what, "run_fleet %s %s @%.0f req/s", schemes_[s]->cli_name,
                  shape.name, rate);
    const int op = ctx_.ops.begin(what);
    best.last_op = op;
    try {
      serve::FleetReport report;
      {
        Scope span(tracer, "serve.run_fleet", op);
        report = serve::run_fleet(*models_[s], options, fleet, config_for(*schemes_[s]),
                                  nullptr);
      }
      {
        Scope span(tracer, "verify.check_fleet_report", op);
        const verify::Report check = verify::run_fleet_report_check(fleet, report);
        if (check.error_count() > 0) ctx_.ops.fail(op, check.to_text());
      }
      const serve::ServeReport& totals = report.totals;
      requests_ += totals.generated;
      const bool ok = totals.generated > 0 && totals.completed == totals.generated &&
                      totals.p99_ms <= kSloMs;
      if (ok) best = {rate, totals.p99_ms, op};
      return ok;
    } catch (const std::exception& e) {
      ctx_.ops.fail(op, e.what());
      return false;
    }
  }

  /// Largest integer req/s the fleet sustains: an exponential bracket from
  /// the analytic single-inference bound, then bisection.
  Capacity find_capacity(std::size_t s, const FleetShape& shape, Tracer* tracer) {
    Capacity best;
    if (!sustains(s, shape, 1.0, best, tracer)) return best;
    const sim::GpuConfig config = config_for(*schemes_[s]);
    const double service_ms = models_[s]->service_cycles(0, 1) / (config.core_mhz * 1e3);
    const int pipelines = shape.devices / shape.stages;
    double lo = 1.0;
    double hi = std::max(2.0, std::ceil(pipelines * 1000.0 / service_ms));
    while (sustains(s, shape, hi, best, tracer)) {
      lo = hi;
      hi *= 2.0;
      if (hi > 1e6) return best;
    }
    while (hi - lo > 1.0) {
      const double mid = std::floor((lo + hi) / 2.0);
      (sustains(s, shape, mid, best, tracer) ? lo : hi) = mid;
    }
    return best;
  }

  Context& ctx_;
  std::vector<Network> nets_;  ///< vgg16 only
  std::vector<const sim::SchemeInfo*> schemes_;
  std::vector<std::unique_ptr<serve::ServiceModel>> models_;  ///< per scheme
  Layouts layouts_;
  std::vector<std::vector<Capacity>> capacity_;  ///< [scheme][fleet]
  std::uint64_t requests_ = 0;                   ///< generated over the pass
};

}  // namespace

std::unique_ptr<Workload> make_serve_capacity(Context& ctx) {
  return std::make_unique<ServeCapacity>(ctx);
}

}  // namespace perfbench
