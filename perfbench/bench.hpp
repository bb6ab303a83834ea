// Shared scaffolding of the sealdl host-time benchmark (README.md).
//
// The benchmark runs one named workload through the libraries' public
// functions. Untraced, it times repeated passes of the workload and reports
// the end-to-end metrics. Traced, it runs a warm-up, a traced and an untraced
// pass, then the workload's decomposition probes, and reports the per-layer
// metrics derived from the recorded spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point begin,
                                       Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point begin) {
  return ms_between(begin, Clock::now());
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 100]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// One host-time interval around a call into a library layer. The layer is
/// the name's prefix before the first '.' ("workload.run_network").
struct Span {
  std::string name;
  double start_ms = 0.0;  ///< since the tracer was created
  double end_ms = 0.0;
  int parent = -1;        ///< index of the enclosing span, -1 for none
  int op = -1;            ///< operation id (Ops), -1 outside any operation
  [[nodiscard]] double ms() const { return end_ms - start_ms; }
};

/// In-memory span recorder, written out once when the run ends. Spans may
/// be opened from several threads (explicit parent); the implicit-parent
/// stack belongs to the thread that drives the workload.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span. parent < -1 means "innermost span opened with push".
  int open(std::string_view name, int op, int parent, bool push);
  void close(int id, bool pop);
  /// Innermost span opened with push, -1 for none (main thread only).
  [[nodiscard]] int current() const;

  [[nodiscard]] std::vector<Span> spans() const;
  /// Durations of every closed span called `name`, in opening order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Sum of durations(name).
  [[nodiscard]] double total_ms(std::string_view name) const;
  /// Duration of span `id` (closed).
  [[nodiscard]] double ms(int id) const;
  /// Share of span `root` that none of its direct children covers.
  [[nodiscard]] double uncovered_share(int root) const;

  /// The spans as one JSON document, plus caller-supplied extra sections.
  [[nodiscard]] std::string to_json(const std::string& provenance_json,
                                    const std::string& extra_json) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::vector<int> stack_;   // guarded by mu_; pushed by the main thread only
};

/// RAII span; a null tracer records nothing and costs one branch.
class Scope {
 public:
  /// Nested under the innermost open Scope of the main thread.
  Scope(Tracer* tracer, std::string_view name, int op = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, op, -2, /*push=*/true) : -1),
        pushed_(true) {}
  /// Explicit parent (for spans opened on worker threads); never pushed.
  Scope(Tracer* tracer, std::string_view name, int op, int parent)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, op, parent, /*push=*/false) : -1),
        pushed_(false) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_, pushed_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  bool pushed_;
};

/// Attempted/failed operation ledger. An operation is one network run,
/// audit, capacity probe or training phase; it fails when it throws or when
/// its correctness check fails.
class Ops {
 public:
  /// Registers an attempted operation and returns its id.
  int begin(std::string what);
  /// Marks `op` failed (once) and says why on stderr.
  void fail(int op, const std::string& why);
  /// Runs `body(op)` as one operation; an exception fails it. Returns
  /// whether the operation is still unfailed.
  template <typename Body>
  bool run(std::string what, Body&& body);

  [[nodiscard]] std::uint64_t attempted() const { return names_.size(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_count_; }
  [[nodiscard]] bool ok(int op) const { return !failed_.at(static_cast<std::size_t>(op)); }

 private:
  std::vector<std::string> names_;
  std::vector<bool> failed_;
  std::uint64_t failed_count_ = 0;
};

/// Recorded simulated outputs (expected.txt): exact values a performance or
/// simplicity change must leave untouched. In record mode every check passes
/// and stores the observed value instead.
class Expected {
 public:
  static Expected load(const std::string& path, bool record);
  /// Exact comparison of `value` against the recorded entry `key`.
  bool check(const std::string& key, double value);
  bool check(const std::string& key, std::uint64_t value);
  /// Rewrites the file with every recorded entry (record mode only).
  void save() const;

 private:
  bool check_text(const std::string& key, const std::string& text);

  std::string path_;
  bool record_ = false;
  std::map<std::string, std::string> values_;
};

/// Per-layer metrics of a traced run, by name (see metrics catalog).
using Metrics = std::map<std::string, double>;

struct Context {
  std::uint64_t seed = 1;
  int jobs = 1;  ///< worker threads for the simulator runs (<= nproc)
  Ops ops;
  Expected* expected = nullptr;
};

/// One benchmark workload. main() calls setup() several times (the median is
/// setup_s), then reset() untimed and iterate() timed until the run length
/// is spent; traced runs add probe().
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual int setup_reps() const { return 5; }
  virtual void setup(Tracer* tracer) = 0;
  virtual void reset() {}
  /// One pass of the workload; every library call is one operation.
  virtual void iterate(Tracer* tracer) = 0;
  /// Layer work rates of the last pass (thread instructions, requests or
  /// training samples), for the rate metrics.
  virtual void add_rates(double pass_ms, Metrics& out) const = 0;
  /// Traced-only decomposition: extra calls that split the pass's host time
  /// by layer, plus the metrics derived from the traced pass's spans. `out`
  /// arrives holding the bench.* metrics (bench.pass_ms: the untraced pass).
  virtual void probe(Tracer& tracer, Metrics& out) = 0;
  /// Human-readable results (checks, reference comparison) on stdout.
  virtual void summary() const {}
  /// Extra JSON sections for the spans file (e.g. per-layer host table).
  [[nodiscard]] virtual std::string extra_json() const { return "{}"; }
};

std::unique_ptr<Workload> make_fig7_sweep(Context& ctx);
std::unique_ptr<Workload> make_audited_net(Context& ctx);
std::unique_ptr<Workload> make_serve_capacity(Context& ctx);
std::unique_ptr<Workload> make_substitute_train(Context& ctx);

template <typename Body>
bool Ops::run(std::string what, Body&& body) {
  const int op = begin(std::move(what));
  try {
    body(op);
  } catch (const std::exception& e) {
    fail(op, std::string("threw: ") + e.what());
  }
  return ok(op);
}

}  // namespace perfbench
