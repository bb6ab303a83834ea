// sealdl-check: static invariant analyzer for SEAL encryption plans, memory
// layouts and generated warp traces. No cycle simulation is involved: the
// tool rebuilds the exact plan/layout pipeline the runner uses and proves the
// invariants over it (see docs/ANALYSIS.md for the rule catalog):
//
//   sealdl-check --workload vgg16 --ratio 0.5
//   sealdl-check --workload resnet18 --ratio 0.4 --json report.json
//   sealdl-check --workload vgg16 --scheme-audit   # + functional taint audit
//   sealdl-check --workload resnet34 --inject all   # every rule must fire
//   sealdl-check --list-rules
//
// --scheme-audit additionally runs the byte-provenance taint audit: a
// functional-memory transcript of every paper scheme's bus traffic, checked
// by the scheme.* rules (docs/ANALYSIS.md, "Security analysis"). audit-*
// injections route through the audit automatically.
//
// Exit codes: 0 = clean (or every injected violation was caught),
// 1 = findings (or an injection went undetected), 2 = usage error.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/layer_spec.hpp"
#include "telemetry/report.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "verify/checker.hpp"
#include "verify/fleet_checkers.hpp"
#include "verify/profile_checkers.hpp"
#include "verify/scheme_checkers.hpp"
#include "verify/serve_checkers.hpp"

using namespace sealdl;

namespace {

std::vector<models::LayerSpec> parse_workload(const std::string& name,
                                              int input_hw) {
  if (name == "vgg16") return models::vgg16_specs(input_hw);
  if (name == "resnet18") return models::resnet18_specs(input_hw);
  if (name == "resnet34") return models::resnet34_specs(input_hw);
  throw std::invalid_argument("unknown --workload " + name +
                              " (vgg16|resnet18|resnet34)");
}

core::RowPolicy parse_policy(const std::string& name) {
  if (name == "smallest") return core::RowPolicy::kSmallestL1Plain;
  if (name == "random") return core::RowPolicy::kRandomPlain;
  if (name == "largest") return core::RowPolicy::kLargestL1Plain;
  throw std::invalid_argument("unknown --policy " + name +
                              " (smallest|random|largest)");
}

/// One catalog row: a rule id and the entry point that validates it.
struct CatalogRule {
  std::string id;
  std::string validator;
};

/// The complete rule catalog, the single index docs/ANALYSIS.md and the
/// drift gate (tools/check_rule_catalog.cmake) are held against.
std::vector<CatalogRule> rule_catalog() {
  std::vector<CatalogRule> catalog;
  for (const auto& checker : verify::default_checkers()) {
    for (const std::string& rule : checker->rules()) {
      catalog.push_back({rule, "checker: " + std::string(checker->name())});
    }
  }
  // Rule families owned by other entry points, listed here so the catalog
  // printed by --list-rules stays the single complete index.
  for (const std::string& rule : verify::serve_option_rules()) {
    catalog.push_back({rule, "validated by sealdl-serve"});
  }
  for (const std::string& rule : verify::fleet_rules()) {
    catalog.push_back({rule, "validated by sealdl-serve"});
  }
  for (const std::string& rule : verify::profile_rules()) {
    catalog.push_back({rule, "validated by sealdl-sim/sealdl-serve"});
  }
  for (const std::string& rule : verify::scheme_rules()) {
    catalog.push_back({rule,
                       "scheme audit: --scheme-audit here / in sealdl-sim "
                       "and sealdl-serve"});
  }
  return catalog;
}

void list_rules() {
  for (const CatalogRule& rule : rule_catalog()) {
    std::printf("%-16s (%s)\n", rule.id.c_str(), rule.validator.c_str());
  }
  std::printf("\ninjections (flag <name>; --inject and --inject-scheme also "
              "take all):\n");
  for (const verify::InjectionInfo& injection : verify::injection_table()) {
    std::string rules;
    for (const std::string& rule : injection.fires) {
      if (!rules.empty()) rules += ", ";
      rules += rule;
    }
    std::printf("%-28s %-18s fires: %s\n",
                verify::inject_flag_usage(injection.flag), injection.name,
                rules.c_str());
  }
}

/// Machine-readable catalog (--list-rules --json <path>): what the cmake
/// drift gate consumes instead of scraping the text listing.
void write_json_catalog(const std::string& path) {
  util::JsonWriter json;
  json.begin_object();
  json.field("tool", "sealdl-check");
  json.field("schema_version", 1);
  json.field("mode", "rule-catalog");
  json.key("rules");
  json.begin_array();
  for (const CatalogRule& rule : rule_catalog()) {
    json.begin_object();
    json.field("id", rule.id);
    json.field("validator", rule.validator);
    json.end_object();
  }
  json.end_array();
  json.key("injections");
  json.begin_array();
  for (const verify::InjectionInfo& injection : verify::injection_table()) {
    json.begin_object();
    json.field("name", injection.name);
    json.field("flag", verify::inject_flag_usage(injection.flag));
    json.key("fires");
    json.begin_array();
    for (const std::string& rule : injection.fires) json.value(rule);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  telemetry::write_text_file(path, json.str());
}

void write_json_report(const std::string& path, const std::string& workload,
                       const verify::BuildOptions& options,
                       const verify::Report& report, bool scheme_audit) {
  util::JsonWriter json;
  json.begin_object();
  json.field("tool", "sealdl-check");
  json.field("schema_version", 1);
  json.field("workload", workload);
  json.field("selective", options.selective);
  json.field("encryption_ratio", options.plan.encryption_ratio);
  json.field("scheme_audit", scheme_audit);
  json.key("report");
  report.write_json(json);
  json.end_object();
  telemetry::write_text_file(path, json.str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::CliFlags flags(argc, argv);

    if (flags.get_bool("list-rules", false)) {
      const std::string catalog_json = flags.get("json", "");
      list_rules();
      if (!catalog_json.empty()) write_json_catalog(catalog_json);
      return 0;
    }

    const std::string workload = flags.get("workload", "vgg16");
    const int input_hw = static_cast<int>(flags.get_int("input", 224));
    verify::BuildOptions options;
    options.plan.encryption_ratio = flags.get_double("ratio", 0.5);
    options.plan.policy = parse_policy(flags.get("policy", "smallest"));
    options.plan.random_seed =
        static_cast<std::uint64_t>(flags.get_int("seed", 11));
    options.selective = !flags.get_bool("baseline", false);

    verify::TraceCheckOptions trace_options;
    trace_options.num_warps = static_cast<int>(flags.get_int("warps", 12));
    trace_options.max_tiles =
        static_cast<std::uint64_t>(flags.get_int("tiles", 24));

    const std::string inject_name = flags.get("inject", "");
    const std::string json_path = flags.get("json", "");
    const bool strict = flags.get_bool("strict", false);
    const bool scheme_audit = flags.get_bool("scheme-audit", false);

    const auto unused = flags.unused();
    if (!unused.empty()) {
      std::fprintf(stderr, "unknown flag --%s\n", unused.front().c_str());
      return 2;
    }

    const std::vector<models::LayerSpec> specs =
        parse_workload(workload, input_hw);

    if (!inject_name.empty()) {
      // Self-test: stage each selected injection and demand its rules fire.
      // audit-* rows also transcribe the scheme they corrupt, since the
      // scheme.* rules consume a bus ledger, not the AnalysisInput alone.
      const auto selected =
          verify::select_injections(verify::InjectFlag::kInject, inject_name);
      verify::SelfTest self_test(
          {.tool = "sealdl-check",
           .mode = "inject-all",
           .workload = workload,
           .residual_topology =
               !verify::residual_edges_from_names(specs).empty()});
      const bool all_caught =
          self_test.run(selected, [&](verify::Injection injection) {
            verify::BuildOptions staged = options;
            staged.inject = injection;
            const verify::AnalysisInput input =
                verify::build_input(specs, staged);
            verify::Report report = verify::run_checkers(
                input, verify::default_checkers(trace_options));
            if (const char* scheme =
                    verify::injection_info(injection).audit_scheme) {
              verify::run_functional_audit(input, report,
                                           &sim::parse_scheme(scheme));
            }
            return report;
          });
      if (!json_path.empty()) {
        telemetry::write_text_file(json_path, self_test.to_json());
      }
      return all_caught ? 0 : 1;
    }

    const verify::AnalysisInput input = verify::build_input(specs, options);
    verify::Report report =
        verify::run_checkers(input, verify::default_checkers(trace_options));
    if (scheme_audit) {
      std::printf("scheme audit: %d paper scheme(s) transcribed\n",
                  verify::run_functional_audit(input, report));
    }
    std::printf("%s", report.to_text().c_str());
    if (!json_path.empty()) {
      write_json_report(json_path, workload, options, report, scheme_audit);
    }
    const bool fail =
        report.error_count() > 0 || (strict && report.warning_count() > 0);
    return fail ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sealdl-check: %s\n", e.what());
    return 2;
  }
}
