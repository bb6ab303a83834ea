// The static analyzer (sealdl-check): clean pipelines must pass, every rule
// must fire under its seeded violation, and a hand-corrupted plan (dropped
// channel propagation) must be caught at both the plan and the trace level.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/layer_spec.hpp"
#include "verify/analysis.hpp"
#include "verify/checker.hpp"
#include "verify/diagnostics.hpp"
#include "verify/fleet_checkers.hpp"
#include "verify/inject.hpp"
#include "verify/profile_checkers.hpp"
#include "verify/scheme_checkers.hpp"
#include "verify/serve_checkers.hpp"

namespace sealdl::verify {
namespace {

// Small inputs keep the trace walk fast; the full-scale 224 sweep runs via
// the sealdl-check ctest entries in tools/CMakeLists.txt.
constexpr int kInputHw = 64;
TraceCheckOptions fast_trace() { return {.num_warps = 4, .max_tiles = 8}; }

Report check(const std::vector<models::LayerSpec>& specs, BuildOptions options) {
  const AnalysisInput input = build_input(specs, options);
  return run_checkers(input, default_checkers(fast_trace()));
}

// ---------------------------------------------------------------- clean ---

TEST(VerifyClean, NetworksPassAcrossRatios) {
  const struct {
    const char* name;
    std::vector<models::LayerSpec> specs;
  } nets[] = {{"vgg16", models::vgg16_specs(kInputHw)},
              {"resnet18", models::resnet18_specs(kInputHw)},
              {"resnet34", models::resnet34_specs(kInputHw)}};
  for (const auto& net : nets) {
    for (const double ratio : {0.0, 0.4, 0.5, 1.0}) {
      BuildOptions options;
      options.plan.encryption_ratio = ratio;
      const Report report = check(net.specs, options);
      EXPECT_EQ(report.error_count(), 0u)
          << net.name << " ratio " << ratio << "\n"
          << report.to_text();
    }
  }
}

TEST(VerifyClean, BaselinePassesWithEmptyMap) {
  BuildOptions options;
  options.selective = false;
  const AnalysisInput input = build_input(models::vgg16_specs(kInputHw), options);
  EXPECT_EQ(input.heap.secure_map().secure_bytes(), 0u);
  const Report report = run_checkers(input, default_checkers(fast_trace()));
  EXPECT_EQ(report.error_count(), 0u) << report.to_text();
}

TEST(VerifyClean, SeedConvToFcSeamIsWarningNotError) {
  // The generators store conv/pool outputs with channel-pitch striding even
  // when the next consumer is a dense FC vector: the stores stay inside the
  // heap (trace.bounds clean) but land outside the FC input region
  // (trace.region warns). This pins the seed behavior so a future layout fix
  // shows up as this expectation flipping, not as a silent change.
  BuildOptions options;
  const Report report = check(models::vgg16_specs(kInputHw), options);
  EXPECT_EQ(report.count("trace.bounds"), 0u);
  EXPECT_GT(report.count("trace.region"), 0u);
}

// ----------------------------------------------------------- injections ---

TEST(VerifyInject, EveryRuleFires) {
  // ResNet-18 has the residual topology, so every injection is applicable.
  const auto specs = models::resnet18_specs(kInputHw);
  for (const Injection injection :
       select_injections(InjectFlag::kInject, "all")) {
    const InjectionInfo& info = injection_info(injection);
    BuildOptions options;
    options.inject = injection;
    const AnalysisInput input = build_input(specs, options);
    Report report = run_checkers(input, default_checkers(fast_trace()));
    // The scheme.* rules consume a bus ledger, not the AnalysisInput alone:
    // route audit-* injections through the functional taint audit, over the
    // one scheme each injection targets (same path sealdl-check takes).
    if (info.audit_scheme != nullptr) {
      run_functional_audit(input, report, &sim::parse_scheme(info.audit_scheme));
    }
    for (const std::string& rule : info.fires) {
      EXPECT_TRUE(report.fired(rule))
          << info.name << " did not fire " << rule << "\n"
          << report.to_text();
    }
  }
}

TEST(VerifyInject, ResidualRequiresTopology) {
  BuildOptions options;
  options.inject = Injection::kPlanResidual;
  EXPECT_EQ(injection_info(Injection::kPlanResidual).needs,
            Needs::kResidualTopology);
  // VGG has no identity blocks: the injection cannot be staged.
  EXPECT_THROW(build_input(models::vgg16_specs(kInputHw), options),
               std::invalid_argument);
}

TEST(VerifyInject, FullEncryptionLeavesNoPlainRowToCorrupt) {
  BuildOptions options;
  options.plan.encryption_ratio = 1.0;
  options.inject = Injection::kLayoutAlign;
  EXPECT_THROW(build_input(models::vgg16_specs(kInputHw), options),
               std::invalid_argument);
}

TEST(VerifyInject, CorruptedPlanCaughtAtPlanAndTraceLevel) {
  // The integration scenario from the paper's invariant: a refactor loses
  // one layer's channel propagation (fmap channel stays plaintext while its
  // kernel row is encrypted). Both the closure rule and the trace-level
  // mixed-operand rule must catch it.
  BuildOptions options;
  AnalysisInput input = build_input(models::vgg16_specs(kInputHw), options);
  ASSERT_TRUE(input.plan.has_value());
  // Find an encrypted channel of a conv fmap and drop its marking by hand.
  bool corrupted = false;
  const auto& layers = input.layout->layers();
  for (std::size_t i = 0; i < input.specs.size() && !corrupted; ++i) {
    if (input.specs[i].type != models::LayerSpec::Type::kConv) continue;
    const int cp = input.consumer_plan_index(i);
    if (cp < 0) continue;
    const auto& lp = input.plan->layer(static_cast<std::size_t>(cp));
    for (int c = 0; c < std::min(layers[i].ifmap_channels, lp.rows); ++c) {
      if (!row_encrypted_safe(lp, c)) continue;
      input.heap.unmark_secure(
          layers[i].ifmap_base +
              static_cast<std::uint64_t>(c) * layers[i].ifmap_channel_pitch,
          layers[i].ifmap_channel_pitch);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  const Report report = run_checkers(input, default_checkers(fast_trace()));
  EXPECT_TRUE(report.fired("plan.closure")) << report.to_text();
  EXPECT_TRUE(report.fired("trace.mixed")) << report.to_text();
}

// ------------------------------------------------------------- topology ---

TEST(VerifyTopology, ResidualEdgesReconstructedFromNames) {
  const auto r18 = residual_edges_from_names(models::resnet18_specs(kInputHw));
  EXPECT_FALSE(r18.empty());
  const auto specs = models::resnet18_specs(kInputHw);
  for (const ResidualEdge& edge : r18) {
    EXPECT_LT(edge.entry_spec, edge.exit_spec);
    EXPECT_LT(edge.exit_spec, edge.consumer_spec);
    EXPECT_NE(specs[edge.consumer_spec].type, models::LayerSpec::Type::kPool);
  }
  EXPECT_TRUE(residual_edges_from_names(models::vgg16_specs(kInputHw)).empty());
}

TEST(VerifyTopology, Resnet34HasMoreIdentityBlocksThanResnet18) {
  const auto r18 = residual_edges_from_names(models::resnet18_specs(kInputHw));
  const auto r34 = residual_edges_from_names(models::resnet34_specs(kInputHw));
  EXPECT_GT(r34.size(), r18.size());
}

// ---------------------------------------------------------------- report ---

TEST(VerifyReport, CountsStayExactPastStorageCap) {
  Report report(/*max_per_rule=*/2);
  for (int i = 0; i < 5; ++i) {
    report.add({"plan.closure", Severity::kError, "conv1", 0, 0, "x"});
  }
  report.add({"trace.wait", Severity::kWarning, "", 0, 0, "y"});
  EXPECT_EQ(report.count("plan.closure"), 5u);
  EXPECT_EQ(report.error_count(), 5u);
  EXPECT_EQ(report.warning_count(), 1u);
  EXPECT_EQ(report.diagnostics().size(), 3u);  // 2 stored + the warning
  EXPECT_TRUE(report.fired("trace.wait"));
  EXPECT_FALSE(report.fired("layout.bounds"));
}

TEST(VerifyReport, TextAndJsonRenderings) {
  Report report;
  report.add({"layout.bounds", Severity::kError, "conv2_1", 0x100, 0x200, "oops"});
  const std::string text = report.to_text();
  EXPECT_NE(text.find("layout.bounds"), std::string::npos);
  EXPECT_NE(text.find("conv2_1"), std::string::npos);

  util::JsonWriter json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"layout.bounds\""), std::string::npos);
  EXPECT_NE(json.str().find("\"errors\""), std::string::npos);
}

// ------------------------------------------------------ injection table ---

// Every rule id any entry point can emit: the union --list-rules prints.
std::set<std::string> catalog_rules() {
  std::set<std::string> rules;
  for (const auto& checker : default_checkers()) {
    for (const std::string& rule : checker->rules()) rules.insert(rule);
  }
  for (const auto& family : {serve_option_rules(), fleet_rules(),
                             profile_rules(), scheme_rules()}) {
    rules.insert(family.begin(), family.end());
  }
  return rules;
}

TEST(InjectionTable, NamesRoundTripPerFlagAndFireCatalogRules) {
  const std::set<std::string> rules = catalog_rules();
  std::map<InjectFlag, int> per_flag;
  for (const InjectionInfo& row : injection_table()) {
    ++per_flag[row.flag];
    const auto parsed = select_injections(row.flag, row.name);
    ASSERT_EQ(parsed.size(), 1u) << row.name;
    EXPECT_EQ(parsed.front(), row.id) << row.name;
    EXPECT_EQ(&injection_info(row.id), &row);
    EXPECT_FALSE(row.fires.empty()) << row.name;
    for (const std::string& rule : row.fires) {
      EXPECT_TRUE(rules.count(rule)) << row.name << " fires unknown " << rule;
    }
  }
  EXPECT_EQ(per_flag[InjectFlag::kInject], 19);
  EXPECT_EQ(per_flag[InjectFlag::kInjectScheme], 6);
  EXPECT_EQ(per_flag[InjectFlag::kInjectProfile], 2);
  EXPECT_EQ(per_flag[InjectFlag::kInjectFleet], 4);
  for (const auto& [flag, count] : per_flag) {
    EXPECT_THROW((void)select_injections(flag, "no-such-injection"),
                 std::invalid_argument);
    // A name is only accepted by the flag whose row it is.
    EXPECT_THROW((void)select_injections(
                     flag, flag == InjectFlag::kInject ? "scheme-wire"
                                                       : "plan-shape"),
                 std::invalid_argument);
    const bool suite =
        flag == InjectFlag::kInject || flag == InjectFlag::kInjectScheme;
    if (suite) {
      EXPECT_EQ(select_injections(flag, "all").size(),
                static_cast<std::size_t>(count));
    } else {
      EXPECT_THROW((void)select_injections(flag, "all"), std::invalid_argument);
    }
  }
}

// The ledger stages what applies, skips what does not (never staging it),
// and accounts for every selected injection exactly once.
TEST(SelfTestLedger, CountsCaughtMissedAndSkipped) {
  SelfTest ledger({.tool = "sealdl-check",
                   .mode = "inject-all",
                   .workload = "vgg16",
                   .residual_topology = false});
  std::vector<Injection> staged;
  const bool all_caught = ledger.run(
      {Injection::kPlanShape, Injection::kPlanResidual, Injection::kPlanRatio},
      [&](Injection injection) {
        staged.push_back(injection);
        Report report;
        // plan-shape fires its rule; plan-ratio fires an unrelated one.
        report.error(injection == Injection::kPlanShape ? "plan.shape"
                                                        : "plan.boundary",
                     "seeded");
        return report;
      });
  EXPECT_FALSE(all_caught);
  EXPECT_EQ(staged,
            (std::vector<Injection>{Injection::kPlanShape, Injection::kPlanRatio}));
  EXPECT_EQ(ledger.total(), 3u);
  EXPECT_EQ(ledger.exercised(), 2u);
  EXPECT_EQ(ledger.skipped(), 1u);
  EXPECT_EQ(ledger.missed(), 1u);

  const std::string json = ledger.to_json();
  for (const char* field :
       {"\"tool\":\"sealdl-check\"", "\"schema_version\":1",
        "\"mode\":\"inject-all\"", "\"workload\":\"vgg16\"", "\"total\":3",
        "\"exercised\":2", "\"skipped\":1", "\"missed\":1",
        "{\"name\":\"plan-shape\",\"status\":\"caught\",\"errors\":1,"
        "\"warnings\":0}",
        "{\"name\":\"plan-residual\",\"status\":\"skipped\",\"reason\":"
        "\"no residual topology in vgg16\"}",
        "{\"name\":\"plan-ratio\",\"status\":\"missed\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << "\n" << json;
  }
  EXPECT_EQ(json.find("\"scheme\""), std::string::npos);
}

TEST(SelfTestLedger, MustCipherRowsSkipUnderScopeNone) {
  SelfTest ledger({.tool = "sealdl-sim",
                   .mode = "inject-scheme",
                   .workload = "resnet18",
                   .scheme = "baseline",
                   .scope = sim::ProtectionScope::kNone});
  int staged = 0;
  const bool all_caught = ledger.run(
      select_injections(InjectFlag::kInjectScheme, "all"),
      [&](Injection injection) {
        ++staged;
        Report report;
        for (const std::string& rule : injection_info(injection).fires) {
          report.error(rule, "seeded");
        }
        return report;
      });
  EXPECT_TRUE(all_caught);
  EXPECT_EQ(staged, 4);
  EXPECT_EQ(ledger.skipped(), 2u);
  EXPECT_EQ(ledger.exercised() + ledger.skipped(), ledger.total());
  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"scheme\":\"baseline\""), std::string::npos) << json;
  EXPECT_NE(json.find("{\"name\":\"scheme-wire\",\"status\":\"skipped\","
                      "\"reason\":\"no must-cipher lines under scope none\"}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace sealdl::verify
