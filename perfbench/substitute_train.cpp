// substitute_train: the IP-stealing pipeline of Fig. 3 on one thread.
//
// attack::SecurityPipeline with fig3_ip_stealing's width-scaled vgg16
// settings, except 4 substitute epochs instead of 8 so that a pass takes
// ~20 s: prepare() trains the victim and builds the adversary corpus by
// Jacobian augmentation, then one SEAL 50 % substitute is trained and both
// models are scored on the held-out test set. The seed drives the synthetic
// dataset, the model initialisation and the shuffles. Set-up is the dataset
// synthesis (the pipeline's constructor). The victim keeps fig3's 5 epochs:
// at 3 it fell below the accuracy floor on some seeds.
#include <cstdio>

#include "attack/pipeline.hpp"
#include "bench.hpp"
#include "core/encryption_plan.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

using namespace sealdl;

/// Victim accuracy must clear this (chance is 10 % over 10 classes).
constexpr double kVictimFloor = 0.5;
constexpr double kRatio = 0.5;

attack::PipelineOptions pipeline_options(std::uint64_t seed) {
  attack::PipelineOptions o;
  o.model = "vgg16";
  o.build.input_hw = 16;
  o.build.width_div = 16;
  o.build.seed = seed;
  o.dataset.height = o.dataset.width = 16;
  o.dataset.samples = 2400;
  o.dataset.noise_stddev = 0.35f;
  o.dataset.seed = seed;
  o.test_holdout = 300;
  o.victim_train.epochs = 5;
  o.victim_train.sgd.lr = 0.02f;
  o.victim_train.lr_decay = 0.7f;
  o.victim_train.shuffle_seed = seed;
  o.substitute_train.epochs = 4;
  o.substitute_train.sgd.lr = 0.015f;
  o.substitute_train.lr_decay = 0.8f;
  o.substitute_train.shuffle_seed = seed + 1;
  o.augment.rounds = 2;
  return o;
}

class SubstituteTrain final : public Workload {
 public:
  explicit SubstituteTrain(Context& ctx) : ctx_(ctx), options_(pipeline_options(ctx.seed)) {}

  void setup(Tracer* tracer) override {
    Scope span(tracer, "attack.SecurityPipeline::SecurityPipeline");
    pipeline_ = std::make_unique<attack::SecurityPipeline>(options_);
  }

  /// prepare() runs once per pipeline, so every pass gets a fresh one.
  void reset() override {
    if (!pipeline_) pipeline_ = std::make_unique<attack::SecurityPipeline>(options_);
  }

  void iterate(Tracer* tracer) override {
    const std::unique_ptr<attack::SecurityPipeline> pipe = std::move(pipeline_);
    victim_accuracy_ = substitute_accuracy_ = 0.0;
    samples_ = 0;
    const bool prepared = ctx_.ops.run("prepare (victim training, augmentation)",
                                       [&](int op) {
                                         Scope span(tracer, "attack.SecurityPipeline::prepare", op);
                                         pipe->prepare();
                                       });
    if (!prepared) return;
    std::unique_ptr<nn::Sequential> substitute;
    const bool trained = ctx_.ops.run("SEAL 50% substitute training", [&](int op) {
      core::EncryptionPlan plan;
      {
        Scope span(tracer, "core.EncryptionPlan::from_model", op);
        core::PlanOptions plan_options;
        plan_options.encryption_ratio = kRatio;
        plan = core::EncryptionPlan::from_model(pipe->victim(), plan_options);
      }
      // SecurityPipeline::seal_substitute, with the importance ranking above
      // timed on its own.
      Scope span(tracer, "attack.make_seal_substitute", op);
      substitute = attack::make_seal_substitute(
          [&] { return models::build_model(options_.model, options_.build); },
          pipe->victim(), plan, pipe->corpus(), options_.substitute_train,
          options_.freeze_known);
    });
    if (!trained) return;
    ctx_.ops.run("test accuracy", [&](int op) {
      Scope span(tracer, "attack.test_accuracy", op);
      victim_accuracy_ = pipe->victim_test_accuracy();
      substitute_accuracy_ = pipe->test_accuracy(*substitute);
      if (!(victim_accuracy_ >= kVictimFloor)) {
        char why[96];
        std::snprintf(why, sizeof why, "victim accuracy %.3f below %.2f", victim_accuracy_,
                      kVictimFloor);
        ctx_.ops.fail(op, why);
      }
    });
    samples_ = training_samples(*pipe);
  }

  void add_rates(double pass_ms, Metrics& out) const override {
    out["nn.train_samples_per_s"] = static_cast<double>(samples_) / (pass_ms / 1e3);
  }

  void probe(Tracer& tracer, Metrics& out) override {
    out["attack.prepare_s"] = tracer.total_ms("attack.SecurityPipeline::prepare") / 1e3;
    out["attack.substitute_s"] = tracer.total_ms("attack.make_seal_substitute") / 1e3;
    out["attack.eval_ms"] = tracer.total_ms("attack.test_accuracy");
    out["core.importance_ms"] = tracer.total_ms("core.EncryptionPlan::from_model");
    out["nn.train_samples"] = static_cast<double>(samples_);
  }

  void summary() const override {
    std::printf("substitute_train vgg16/16 seed %llu: victim accuracy %.4f, SEAL %.0f %% "
                "substitute accuracy %.4f (paper Fig. 3: ~75 %% at >= 40 %%), %llu "
                "training samples\n",
                static_cast<unsigned long long>(ctx_.seed), victim_accuracy_, kRatio * 100,
                substitute_accuracy_, static_cast<unsigned long long>(samples_));
  }

  [[nodiscard]] std::string extra_json() const override {
    util::JsonWriter json;
    json.begin_object();
    json.field("victim_accuracy", victim_accuracy_);
    json.field("substitute_accuracy", substitute_accuracy_);
    json.field("train_samples", samples_);
    json.end_object();
    return json.str();
  }

 private:
  /// Samples through forward + backward in one pass, from the options and
  /// the corpus size: victim epochs over its training pool, the augmentation
  /// bootstrap over the adversary seeds, substitute epochs over the corpus.
  std::uint64_t training_samples(const attack::SecurityPipeline& pipe) const {
    const auto& data = pipe.dataset();
    const std::uint64_t victim = data.victim_train_indices(options_.test_holdout).size();
    const std::uint64_t seeds = data.adversary_indices().size();
    const std::uint64_t corpus = pipe.corpus().labels.size();
    const auto epochs = [](int n) { return static_cast<std::uint64_t>(n); };
    return epochs(options_.victim_train.epochs) * victim +
           epochs(std::max(1, options_.substitute_train.epochs / 2)) * seeds +
           epochs(options_.substitute_train.epochs) * corpus;
  }

  Context& ctx_;
  attack::PipelineOptions options_;
  std::unique_ptr<attack::SecurityPipeline> pipeline_;
  double victim_accuracy_ = 0.0;
  double substitute_accuracy_ = 0.0;
  std::uint64_t samples_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_substitute_train(Context& ctx) {
  return std::make_unique<SubstituteTrain>(ctx);
}

}  // namespace perfbench
