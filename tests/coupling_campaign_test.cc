// The two CI gates of the flow-graph campaign integration:
//
//  * superset   — the coupling add-on phase can only ever ADD findings over
//    the enumerative baseline, and must leave runs_to_first_detection (the
//    prioritization metric) untouched;
//  * impacted-only — restricting a campaign to the parameters of a
//    `zebralint --diff` is identical to restricting it to the unit tests
//    whose pre-run reads intersect those parameters.
//
// Everything is deterministic (virtual-time simulator, fixed corpus).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/static_prior.h"
#include "src/core/campaign.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

const analysis::StaticPriorReport& Prior() {
  static const auto* kPrior = [] {
    analysis::StaticAnalyzer analyzer;
    EXPECT_GT(analyzer.AddTree(ZEBRALINT_SOURCE_ROOT), 0);
    return new analysis::StaticPriorReport(analyzer.Analyze(&FullSchema()));
  }();
  return *kPrior;
}

std::set<std::string> FindingParams(const CampaignReport& report) {
  std::set<std::string> params;
  for (const auto& [param, finding] : report.findings) {
    params.insert(param);
  }
  return params;
}

TEST(CouplingCampaign, PriorHasCouplingSets) {
  ASSERT_FALSE(Prior().coupling_sets.empty());
  for (const auto& group : Prior().coupling_sets) {
    EXPECT_GE(group.size(), 2u);
    EXPECT_LE(group.size(), static_cast<size_t>(analysis::kMaxCouplingSetSize));
    EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
  }
}

TEST(CouplingCampaign, GenerateCoupledIsCappedAndDeterministic) {
  TestGenerator generator(
      FullSchema(), FullCorpus(),
      GeneratorOptions{true, true, &Prior(), true, 4});
  bool saw_coupled = false;
  for (const char* app : {"minidfs", "minikv"}) {
    for (const PreRunRecord& record : generator.PreRunApp(app, nullptr)) {
      int64_t before = 0;
      auto instances = generator.Generate(record, &before);
      auto coupled = generator.GenerateCoupled(record, instances);
      EXPECT_LE(coupled.size(), 4u);
      for (const CoupledInstance& pair : coupled) {
        ASSERT_EQ(pair.plan.params().size(), 2u);
        ASSERT_EQ(pair.params.size(), 2u);
        EXPECT_EQ(pair.plan.params()[0].param, pair.params[0]);
        EXPECT_EQ(pair.plan.params()[1].param, pair.params[1]);
        EXPECT_NE(pair.params[0], pair.params[1]);
        saw_coupled = true;
      }
      // Deterministic: a second derivation produces the same pairs.
      auto again = generator.GenerateCoupled(record, instances);
      ASSERT_EQ(again.size(), coupled.size());
      for (size_t i = 0; i < coupled.size(); ++i) {
        EXPECT_EQ(again[i].params, coupled[i].params);
        EXPECT_EQ(again[i].plan.Fingerprint(), coupled[i].plan.Fingerprint());
      }
    }
  }
  EXPECT_TRUE(saw_coupled);
}

TEST(CouplingCampaign, CoupledPlansOnlyAddFindings) {
  CampaignOptions with_coupling;
  with_coupling.apps = {"minikv"};
  with_coupling.static_prior = &Prior();
  CampaignOptions without_coupling = with_coupling;
  without_coupling.enable_coupling_plans = false;

  CampaignReport with = Campaign(FullSchema(), FullCorpus(), with_coupling).Run();
  CampaignReport without =
      Campaign(FullSchema(), FullCorpus(), without_coupling).Run();

  // Superset gate: every baseline finding survives, witnesses included.
  for (const auto& [param, finding] : without.findings) {
    auto it = with.findings.find(param);
    ASSERT_NE(it, with.findings.end()) << "coupling lost finding " << param;
    EXPECT_EQ(it->second.witness_tests, finding.witness_tests);
  }
  EXPECT_GE(with.findings.size(), without.findings.size());

  // The add-on ran, and its runs are accounted for.
  EXPECT_GT(with.coupling_runs, 0);
  EXPECT_EQ(without.coupling_runs, 0);
  EXPECT_EQ(with.TotalExecuted(), without.TotalExecuted() + with.coupling_runs);

  // The prioritization metric is untouched by the add-on.
  EXPECT_EQ(with.runs_to_first_detection, without.runs_to_first_detection);
  EXPECT_EQ(with.first_detection_param, without.first_detection_param);
}

TEST(CouplingCampaign, ImpactedOnlyMatchesRestrictionToImpactedTests) {
  // The "code change" impacted exactly one parameter.
  const std::set<std::string> impacted = {"hbase.regionserver.thrift.framed"};

  // Reference restriction: the unit tests whose pre-run reads intersect it.
  TestGenerator generator(FullSchema(), FullCorpus(), GeneratorOptions{});
  std::set<std::string> impacted_tests;
  size_t tests_total = 0;
  for (const PreRunRecord& record : generator.PreRunApp("minikv", nullptr)) {
    ++tests_total;
    for (const std::string& param : record.result.report.AllParamsRead()) {
      if (impacted.count(param) > 0) {
        impacted_tests.insert(record.test->id);
        break;
      }
    }
  }
  ASSERT_FALSE(impacted_tests.empty());
  ASSERT_LT(impacted_tests.size(), tests_total)
      << "the restriction must actually skip something";

  CampaignOptions impacted_options;
  impacted_options.apps = {"minikv"};
  impacted_options.impacted_params = impacted;
  CampaignOptions reference_options;
  reference_options.apps = {"minikv"};
  reference_options.only_tests = impacted_tests;

  CampaignReport impacted_report =
      Campaign(FullSchema(), FullCorpus(), impacted_options).Run();
  CampaignReport reference =
      Campaign(FullSchema(), FullCorpus(), reference_options).Run();

  // Identity gate: same findings (params, witnesses, p-values, failures),
  // same stage counts, same detection accounting, same skip count.
  ASSERT_EQ(FindingParams(impacted_report), FindingParams(reference));
  for (const auto& [param, finding] : reference.findings) {
    const ParamFinding& other = impacted_report.findings.at(param);
    EXPECT_EQ(other.witness_tests, finding.witness_tests);
    EXPECT_EQ(other.best_p_value, finding.best_p_value);
    EXPECT_EQ(other.example_failure, finding.example_failure);
  }
  EXPECT_EQ(impacted_report.TotalAfterPrerun(), reference.TotalAfterPrerun());
  EXPECT_EQ(impacted_report.TotalAfterUncertainty(),
            reference.TotalAfterUncertainty());
  EXPECT_EQ(impacted_report.TotalExecuted(), reference.TotalExecuted());
  EXPECT_EQ(impacted_report.runs_to_first_detection,
            reference.runs_to_first_detection);
  EXPECT_EQ(impacted_report.first_detection_param,
            reference.first_detection_param);
  EXPECT_EQ(impacted_report.units_skipped, reference.units_skipped);
  EXPECT_GT(impacted_report.units_skipped, 0);

  // And the restriction is sound: it loses nothing a full campaign finds
  // about the impacted parameter.
  CampaignOptions full_options;
  full_options.apps = {"minikv"};
  CampaignReport full = Campaign(FullSchema(), FullCorpus(), full_options).Run();
  for (const std::string& param : impacted) {
    EXPECT_EQ(full.findings.count(param),
              impacted_report.findings.count(param));
  }
}

}  // namespace
}  // namespace zebra
