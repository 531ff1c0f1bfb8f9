// White-box pipeline tests on a *synthetic* application: a tiny schema and
// corpus crafted so that exactly which parameters are unsafe — and how tests
// fail — is fully controlled. This pins down pooled bisection, the
// frequent-failure rule, and candidate attribution independent of the
// mini-application substrate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/static_prior.h"
#include "src/core/campaign.h"
#include "src/runtime/node_init.h"

namespace zebra {
namespace {

constexpr char kApp[] = "synthapp";

// A pair of nodes that fail loudly when their views of selected parameters
// diverge (the synthetic "communication").
class SynthNode {
 public:
  SynthNode(const Configuration& conf)
      : init_scope_(kApp, this, "SynthNode", __FILE__, __LINE__),
        conf_(AnnotatedRefToClone(kApp, conf, __FILE__, __LINE__)) {
    init_scope_.Finish();
  }

  std::string Read(const std::string& param) const { return conf_.Get(param, "d"); }

 private:
  NodeInitScope init_scope_;
  Configuration conf_;
};

void RequireAgreement(TestContext& ctx, const SynthNode& a, const SynthNode& b,
                      const std::string& param) {
  ctx.CheckEq(a.Read(param), b.Read(param), "nodes agree on " + param);
}

ConfSchema BuildSynthSchema() {
  ConfSchema schema;
  for (const char* name : {"synth.unsafe.everywhere", "synth.unsafe.one-test",
                           "synth.safe.alpha", "synth.safe.beta", "synth.safe.gamma"}) {
    schema.AddParam({name, kApp, ParamType::kBool, "false", {"true", "false"},
                     "synthetic parameter"});
  }
  return schema;
}

UnitTestRegistry BuildSynthCorpus() {
  UnitTestRegistry registry;
  // Four tests all sensitive to synth.unsafe.everywhere (so the
  // frequent-failure rule fires at threshold 3); only TestTwo is also
  // sensitive to synth.unsafe.one-test. Safe params are read but harmless.
  auto body = [](bool check_one_test) {
    return [check_one_test](TestContext& ctx) {
      Configuration conf;
      SynthNode a(conf);
      SynthNode b(conf);
      a.Read("synth.safe.alpha");
      b.Read("synth.safe.beta");
      conf.Get("synth.safe.gamma", "d");
      RequireAgreement(ctx, a, b, "synth.unsafe.everywhere");
      if (check_one_test) {
        RequireAgreement(ctx, a, b, "synth.unsafe.one-test");
      } else {
        a.Read("synth.unsafe.one-test");
        b.Read("synth.unsafe.one-test");
      }
    };
  };
  registry.Add(kApp, "TestOne", body(false));
  registry.Add(kApp, "TestTwo", body(true));
  registry.Add(kApp, "TestThree", body(false));
  registry.Add(kApp, "TestFour", body(false));
  return registry;
}

class SyntheticCampaignTest : public ::testing::Test {
 protected:
  SyntheticCampaignTest() : schema_(BuildSynthSchema()), corpus_(BuildSynthCorpus()) {}

  CampaignReport Run(CampaignOptions options = {}) {
    options.apps = {kApp};
    Campaign campaign(schema_, corpus_, options);
    return campaign.Run();
  }

  ConfSchema schema_;
  UnitTestRegistry corpus_;
};

TEST_F(SyntheticCampaignTest, IsolatesExactlyTheUnsafeParams) {
  CampaignReport report = Run();
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_TRUE(report.findings.count("synth.unsafe.everywhere") > 0);
  EXPECT_TRUE(report.findings.count("synth.unsafe.one-test") > 0);
}

TEST_F(SyntheticCampaignTest, WitnessAttributionIsPrecise) {
  CampaignReport report = Run();
  const ParamFinding& narrow = report.findings.at("synth.unsafe.one-test");
  ASSERT_EQ(narrow.witness_tests.size(), 1u);
  EXPECT_EQ(*narrow.witness_tests.begin(), "synthapp.TestTwo")
      << "only the test that actually checks the parameter may witness it";
}

TEST_F(SyntheticCampaignTest, FrequentFailureRuleCapsWitnesses) {
  CampaignOptions options;
  options.frequent_failure_threshold = 3;
  CampaignReport report = Run(options);
  const ParamFinding& broad = report.findings.at("synth.unsafe.everywhere");
  EXPECT_EQ(broad.witness_tests.size(), 3u)
      << "after three confirmed tests the parameter is marked unsafe globally "
         "and skipped in further pools";
}

TEST_F(SyntheticCampaignTest, SafeParamsAreNeverReported) {
  CampaignReport report = Run();
  EXPECT_EQ(report.findings.count("synth.safe.alpha"), 0u);
  EXPECT_EQ(report.findings.count("synth.safe.beta"), 0u);
  EXPECT_EQ(report.findings.count("synth.safe.gamma"), 0u);
}

TEST_F(SyntheticCampaignTest, PoolingAndIndividualAgree) {
  CampaignOptions pooled;
  CampaignOptions individual;
  individual.enable_pooling = false;
  CampaignReport a = Run(pooled);
  CampaignReport b = Run(individual);
  EXPECT_EQ(a.findings.size(), b.findings.size());
  for (const auto& [param, finding] : a.findings) {
    EXPECT_TRUE(b.findings.count(param) > 0) << param;
  }
}

TEST_F(SyntheticCampaignTest, DeterministicAcrossRuns) {
  CampaignReport a = Run();
  CampaignReport b = Run();
  EXPECT_EQ(a.TotalExecuted(), b.TotalExecuted());
  EXPECT_EQ(a.findings.size(), b.findings.size());
  EXPECT_EQ(a.first_trial_candidates, b.first_trial_candidates);
}

TEST_F(SyntheticCampaignTest, StaticPriorityDecidesVerificationOrder) {
  // TestTwo fails on both unsafe parameters. Without a prior they are
  // pooled, bisected, and verified in name order; a prior ranking
  // synth.unsafe.one-test above the rest must put it first, pooled or not.
  analysis::StaticPriorReport prior;
  prior.params["synth.unsafe.one-test"].priority = 2.0;
  const UnitTestDef* test = corpus_.Find("synthapp.TestTwo");
  ASSERT_NE(test, nullptr);

  auto confirmation_order = [&](const analysis::StaticPriorReport* static_prior,
                                bool pooling) {
    CampaignOptions options;
    options.apps = {kApp};
    options.enable_pooling = pooling;
    options.static_prior = static_prior;
    Campaign campaign(schema_, corpus_, options);
    std::vector<std::string> order;
    for (const UnitConfirmation& confirmation :
         campaign.RunUnit(*test, {}).confirmations) {
      order.push_back(confirmation.param);
    }
    return order;
  };

  const std::vector<std::string> by_name = {"synth.unsafe.everywhere",
                                            "synth.unsafe.one-test"};
  const std::vector<std::string> by_priority = {"synth.unsafe.one-test",
                                                "synth.unsafe.everywhere"};
  for (bool pooling : {true, false}) {
    SCOPED_TRACE(pooling ? "pooled" : "individual");
    EXPECT_EQ(confirmation_order(nullptr, pooling), by_name);
    EXPECT_EQ(confirmation_order(&prior, pooling), by_priority);
  }
}

}  // namespace
}  // namespace zebra
