// Tests for the value-assignment strategies of §4.

#include "src/conf/test_plan.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/test_generator.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

// The looked-up value, or nullopt when the plan does not cover the param.
std::optional<std::string> LookupValue(const TestPlan& plan, std::string_view param,
                                       std::string_view node_type, int node_index) {
  const std::string* value = plan.Lookup(param, node_type, node_index);
  return value != nullptr ? std::optional<std::string>(*value) : std::nullopt;
}

TEST(ValueAssignerTest, HomogeneousGivesEveryoneTheSameValue) {
  ValueAssigner assigner = ValueAssigner::Homogeneous("v");
  EXPECT_EQ(assigner.ValueFor("DataNode", 0), "v");
  EXPECT_EQ(assigner.ValueFor("NameNode", 3), "v");
  EXPECT_EQ(assigner.ValueFor(kClientEntity, 0), "v");
  EXPECT_EQ(assigner.DistinctValues(), (std::vector<std::string>{"v"}));
}

TEST(ValueAssignerTest, UniformGroupSplitsByType) {
  ValueAssigner assigner = ValueAssigner::UniformGroup("DataNode", "a", "b");
  EXPECT_EQ(assigner.ValueFor("DataNode", 0), "a");
  EXPECT_EQ(assigner.ValueFor("DataNode", 5), "a");
  EXPECT_EQ(assigner.ValueFor("NameNode", 0), "b");
  EXPECT_EQ(assigner.ValueFor(kClientEntity, 0), "b");
  EXPECT_EQ(assigner.DistinctValues(), (std::vector<std::string>{"a", "b"}));
}

TEST(ValueAssignerTest, RoundRobinAlternatesWithinGroup) {
  ValueAssigner assigner = ValueAssigner::RoundRobinGroup("DataNode", "a", "b");
  EXPECT_EQ(assigner.ValueFor("DataNode", 0), "a");
  EXPECT_EQ(assigner.ValueFor("DataNode", 1), "b");
  EXPECT_EQ(assigner.ValueFor("DataNode", 2), "a");
  EXPECT_EQ(assigner.ValueFor("NameNode", 0), "b");
}

TEST(ValueAssignerTest, EqualValuesCollapseDistinctValues) {
  ValueAssigner assigner = ValueAssigner::UniformGroup("T", "x", "x");
  EXPECT_EQ(assigner.DistinctValues(), (std::vector<std::string>{"x"}));
}

TEST(TestPlanTest, LookupFindsParamAndOverrides) {
  TestPlan plan;
  ParamPlan p;
  p.param = "main";
  p.assigner = ValueAssigner::UniformGroup("NameNode", "1", "2");
  p.extra_overrides.emplace_back("dep", "d");
  plan.Add(p);

  EXPECT_EQ(LookupValue(plan, "main", "NameNode", 0), "1");
  EXPECT_EQ(LookupValue(plan, "main", "DataNode", 0), "2");
  EXPECT_EQ(LookupValue(plan, "dep", "DataNode", 0), "d");
  EXPECT_EQ(LookupValue(plan, "absent", "DataNode", 0), std::nullopt);
  // Lookup hands back the plan's own strings, not copies.
  EXPECT_EQ(plan.Lookup("main", "NameNode", 0),
            &plan.params()[0].assigner.group_value);
  EXPECT_EQ(plan.Lookup("dep", "DataNode", 0),
            &plan.params()[0].extra_overrides[0].second);
}

TEST(TestPlanTest, PooledPlanCoversAllParams) {
  TestPlan plan;
  for (int i = 0; i < 3; ++i) {
    ParamPlan p;
    p.param = "p" + std::to_string(i);
    p.assigner = ValueAssigner::Homogeneous(std::to_string(i));
    plan.Add(p);
  }
  EXPECT_EQ(LookupValue(plan, "p0", "X", 0), "0");
  EXPECT_EQ(LookupValue(plan, "p2", "X", 0), "2");
  EXPECT_FALSE(plan.empty());
}

TEST(TestPlanTest, DescribeIsStableAndDistinct) {
  TestPlan a;
  ParamPlan p;
  p.param = "x";
  p.assigner = ValueAssigner::UniformGroup("T", "1", "2");
  a.Add(p);

  TestPlan b = a;
  EXPECT_EQ(a.Describe(), b.Describe());

  b.mutable_params()[0].assigner = ValueAssigner::UniformGroup("T", "2", "1");
  EXPECT_NE(a.Describe(), b.Describe());

  TestPlan homo;
  p.assigner = ValueAssigner::Homogeneous("1");
  homo.mutable_params() = {p};
  EXPECT_NE(a.Describe(), homo.Describe());
}

// DescribeSeed() is folded piece by piece; the contract is that it equals
// the hash of the rendered Describe() string, bit for bit.
void ExpectSeedContract(const TestPlan& plan) {
  EXPECT_EQ(plan.DescribeSeed(), Fnv1a64(plan.Describe())) << plan.Describe();
}

ParamPlan MakeParamPlan(std::string param, ValueAssigner assigner,
                        std::vector<std::pair<std::string, std::string>> overrides = {}) {
  ParamPlan plan;
  plan.param = std::move(param);
  plan.assigner = std::move(assigner);
  plan.extra_overrides = std::move(overrides);
  return plan;
}

TEST(TestPlanTest, DescribeSeedEqualsHashOfDescribe) {
  ExpectSeedContract(TestPlan{});
  ExpectSeedContract(TestPlan({MakeParamPlan("x", ValueAssigner::Homogeneous("1"))}));
  ExpectSeedContract(
      TestPlan({MakeParamPlan("x", ValueAssigner::UniformGroup("NameNode", "1", "2"))}));
  ExpectSeedContract(TestPlan(
      {MakeParamPlan("x", ValueAssigner::RoundRobinGroup("DataNode", "a", "b"))}));
  // Empty values and empty group types still render their separators.
  ExpectSeedContract(
      TestPlan({MakeParamPlan("", ValueAssigner::UniformGroup("", "", ""))}));
  ExpectSeedContract(TestPlan({MakeParamPlan(
      "dfs.http.policy",
      ValueAssigner::UniformGroup("NameNode", "HTTP_ONLY", "HTTPS_ONLY"),
      {{"dfs.namenode.http-address", "a"}, {"dfs.namenode.https-address", "b"}})}));

  // Pooled: several entries joined by ", ".
  TestPlan pooled;
  pooled.Add(MakeParamPlan("p0", ValueAssigner::Homogeneous("0")));
  pooled.Add(MakeParamPlan("p1", ValueAssigner::UniformGroup("T", "1", "2"),
                           {{"dep", "v"}}));
  pooled.Add(MakeParamPlan("p2", ValueAssigner::RoundRobinGroup("T", "2", "1")));
  ExpectSeedContract(pooled);
}

TEST(TestPlanTest, MutationRederivesDescribeSeed) {
  TestPlan plan({MakeParamPlan("x", ValueAssigner::UniformGroup("T", "1", "2"))});
  const uint64_t single = plan.DescribeSeed();

  plan.Add(MakeParamPlan("y", ValueAssigner::Homogeneous("3")));
  EXPECT_NE(plan.DescribeSeed(), single);
  ExpectSeedContract(plan);

  plan.mutable_params()[0].assigner = ValueAssigner::UniformGroup("T", "2", "1");
  ExpectSeedContract(plan);

  plan.mutable_params().pop_back();
  plan.mutable_params()[0].assigner = ValueAssigner::UniformGroup("T", "1", "2");
  EXPECT_EQ(plan.DescribeSeed(), single);
}

TEST(TestPlanTest, DescribeSeedContractHoldsForEveryGeneratedInstance) {
  TestGenerator generator(FullSchema(), FullCorpus());
  int64_t checked = 0;
  for (const UnitTestDef& test : FullCorpus().tests()) {
    PreRunRecord record = generator.PreRunTest(test, nullptr);
    std::vector<GeneratedInstance> instances = generator.Generate(record, nullptr);
    TestPlan pooled;
    for (const GeneratedInstance& instance : instances) {
      ExpectSeedContract(TestPlan({instance.plan}));
      pooled.Add(instance.plan);
      ++checked;
    }
    ExpectSeedContract(pooled);
  }
  EXPECT_GT(checked, 0);
}

TEST(AssignStrategyTest, Names) {
  EXPECT_STREQ(AssignStrategyName(AssignStrategy::kHomogeneous), "homogeneous");
  EXPECT_STREQ(AssignStrategyName(AssignStrategy::kUniformGroup), "uniform-group");
  EXPECT_STREQ(AssignStrategyName(AssignStrategy::kRoundRobinGroup),
               "round-robin-group");
}

}  // namespace
}  // namespace zebra
