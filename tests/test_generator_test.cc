// Tests for TestGenerator: value pairs, assignment strategies, pre-run
// filtering, uncertainty exclusion, and the stage counts of Table 5.

#include "src/core/test_generator.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/static_prior.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

class TestGeneratorTest : public ::testing::Test {
 protected:
  TestGeneratorTest() : generator_(FullSchema(), FullCorpus()) {}

  PreRunRecord PreRunOne(const std::string& id) {
    const UnitTestDef* test = FullCorpus().Find(id);
    EXPECT_NE(test, nullptr);
    PreRunRecord record;
    record.test = test;
    record.result = RunUnitTest(*test, TestPlan{}, 0);
    return record;
  }

  TestGenerator generator_;
};

TEST_F(TestGeneratorTest, ValuePairsAreAllUnorderedPairs) {
  ParamSpec spec;
  spec.test_values = {"a", "b", "c"};
  auto pairs = TestGenerator::ValuePairs(spec);
  EXPECT_EQ(pairs.size(), 3u);  // C(3,2)

  spec.test_values = {"true", "false"};
  EXPECT_EQ(TestGenerator::ValuePairs(spec).size(), 1u);

  spec.test_values = {"1", "2", "3", "4"};
  EXPECT_EQ(TestGenerator::ValuePairs(spec).size(), 6u);
}

TEST_F(TestGeneratorTest, OriginalCountsAreLargeAndPositive) {
  for (const char* app :
       {"minidfs", "minimr", "miniyarn", "ministream", "minikv", "apptools"}) {
    EXPECT_GT(generator_.OriginalInstanceCount(app), 1000) << app;
  }
}

TEST_F(TestGeneratorTest, NoNodeTestGeneratesNothing) {
  PreRunRecord record = PreRunOne("minidfs.TestBlockIdUtilsNoNodes");
  int64_t before = -1;
  auto instances = generator_.Generate(record, &before);
  EXPECT_TRUE(instances.empty());
  EXPECT_EQ(before, 0);
}

TEST_F(TestGeneratorTest, InstancesOnlyTargetReadingEntities) {
  PreRunRecord record = PreRunOne("minidfs.TestWriteReadSmallFile");
  int64_t before = -1;
  auto instances = generator_.Generate(record, &before);
  ASSERT_FALSE(instances.empty());
  EXPECT_EQ(before, static_cast<int64_t>(instances.size()))
      << "no uncertainty in this test";

  for (const GeneratedInstance& instance : instances) {
    const std::string& group = instance.plan.assigner.group_type;
    const std::set<std::string> reads =
        record.result.report.ParamsReadBy(group);
    EXPECT_TRUE(reads.count(instance.plan.param) > 0)
        << group << " never read " << instance.plan.param;
  }

  // dfs.datanode.balance.bandwidthPerSec is never read in this test: no
  // instance may target it (the NameNode example from §4).
  for (const GeneratedInstance& instance : instances) {
    EXPECT_NE(instance.plan.param, "dfs.datanode.balance.bandwidthPerSec");
  }
}

TEST_F(TestGeneratorTest, RoundRobinOnlyForGroupsWithMultipleNodes) {
  PreRunRecord record = PreRunOne("minidfs.TestWriteReadSmallFile");
  auto instances = generator_.Generate(record, nullptr);
  for (const GeneratedInstance& instance : instances) {
    if (instance.plan.assigner.strategy == AssignStrategy::kRoundRobinGroup) {
      EXPECT_EQ(instance.plan.assigner.group_type, "DataNode")
          << "only the DataNode group has two nodes in this test";
    }
  }
  // And round-robin instances do exist for the DataNode group.
  bool found_rr = false;
  for (const GeneratedInstance& instance : instances) {
    found_rr |= instance.plan.assigner.strategy == AssignStrategy::kRoundRobinGroup;
  }
  EXPECT_TRUE(found_rr);
}

TEST_F(TestGeneratorTest, BothPolaritiesGenerated) {
  PreRunRecord record = PreRunOne("minikv.TestThriftAdminCreateTable");
  auto instances = generator_.Generate(record, nullptr);
  int compact_uniform = 0;
  for (const GeneratedInstance& instance : instances) {
    if (instance.plan.param == "hbase.regionserver.thrift.compact" &&
        instance.plan.assigner.group_type == "ThriftServer") {
      ++compact_uniform;
    }
  }
  EXPECT_EQ(compact_uniform, 2) << "one pair x two polarities (single-node group)";
}

TEST_F(TestGeneratorTest, DependencyOverridesAttachToHttpPolicy) {
  PreRunRecord record = PreRunOne("minidfs.TestFsckOverHttp");
  auto instances = generator_.Generate(record, nullptr);
  bool found_policy = false;
  for (const GeneratedInstance& instance : instances) {
    if (instance.plan.param == "dfs.http.policy") {
      found_policy = true;
      std::set<std::string> override_params;
      for (const auto& [param, value] : instance.plan.extra_overrides) {
        override_params.insert(param);
      }
      EXPECT_TRUE(override_params.count("dfs.namenode.http-address") > 0);
      EXPECT_TRUE(override_params.count("dfs.namenode.https-address") > 0);
    }
  }
  EXPECT_TRUE(found_policy);
}

TEST_F(TestGeneratorTest, PreRunAppCountsExecutions) {
  int64_t executions = 0;
  auto records = generator_.PreRunApp("minikv", &executions);
  EXPECT_EQ(static_cast<int64_t>(records.size()), executions);
  EXPECT_EQ(records.size(), FullCorpus().ForApp("minikv").size());
}

TEST_F(TestGeneratorTest, PreRunReducesInstancesByOrdersOfMagnitude) {
  int64_t original = generator_.OriginalInstanceCount("minikv");
  int64_t after = 0;
  int64_t executions = 0;
  for (const PreRunRecord& record : generator_.PreRunApp("minikv", &executions)) {
    int64_t before = 0;
    generator_.Generate(record, &before);
    after += before;
  }
  EXPECT_LT(after * 10, original) << "pre-running must cut at least 10x";
  EXPECT_GT(after, 0);
}

TEST_F(TestGeneratorTest, RoundRobinCanBeDisabled) {
  GeneratorOptions options;
  options.enable_round_robin = false;
  TestGenerator uniform_only(FullSchema(), FullCorpus(), options);

  PreRunRecord record = PreRunOne("minidfs.TestWriteReadSmallFile");
  for (const GeneratedInstance& instance : uniform_only.Generate(record, nullptr)) {
    EXPECT_NE(instance.plan.assigner.strategy, AssignStrategy::kRoundRobinGroup);
  }
  // And the instance count shrinks relative to the full strategy set.
  EXPECT_LT(uniform_only.Generate(record, nullptr).size(),
            generator_.Generate(record, nullptr).size());
}

// The enumeration Generate performed before the instance catalogue, kept
// here as the reference: for every parameter, value pair, and assigner, the
// dependency overrides of both values are merged afresh (first occurrence
// wins, v1's rules first).
std::vector<GeneratedInstance> ReferenceGenerate(const ConfSchema& schema,
                                                 const GeneratorOptions& options,
                                                 const PreRunRecord& record,
                                                 int64_t* count_before_uncertainty) {
  std::vector<GeneratedInstance> instances;
  *count_before_uncertainty = 0;
  const SessionReport& report = record.result.report;
  if (!report.StartedAnyNode()) {
    return instances;
  }
  for (const ParamSpec* spec : schema.ParamsForApp(record.test->app)) {
    if (options.static_prior != nullptr &&
        options.static_prior->IsNeverRead(spec->name)) {
      continue;
    }
    const bool uncertain = report.uncertain_params.count(spec->name) > 0;
    for (const auto& [entity, params_read] : report.reads) {
      if (options.prune_unread_instances && params_read.count(spec->name) == 0) {
        continue;
      }
      int group_count = 1;
      auto count_it = report.node_counts.find(entity);
      if (count_it != report.node_counts.end()) {
        group_count = count_it->second;
      }
      for (const auto& [v1, v2] : TestGenerator::ValuePairs(*spec)) {
        std::vector<ValueAssigner> assigners = {
            ValueAssigner::UniformGroup(entity, v1, v2),
            ValueAssigner::UniformGroup(entity, v2, v1)};
        if (options.enable_round_robin && group_count >= 2) {
          assigners.push_back(ValueAssigner::RoundRobinGroup(entity, v1, v2));
          assigners.push_back(ValueAssigner::RoundRobinGroup(entity, v2, v1));
        }
        for (ValueAssigner& assigner : assigners) {
          ++*count_before_uncertainty;
          if (uncertain) {
            continue;
          }
          GeneratedInstance instance;
          instance.test = record.test;
          instance.plan.param = spec->name;
          instance.plan.assigner = std::move(assigner);
          std::set<std::string> seen;
          for (const std::string& value : {v1, v2}) {
            for (const auto& [dep_param, dep_value] :
                 schema.DependencyOverrides(spec->name, value)) {
              if (seen.insert(dep_param + "=" + dep_value).second) {
                instance.plan.extra_overrides.emplace_back(dep_param, dep_value);
              }
            }
          }
          if (options.static_prior != nullptr) {
            instance.plan.static_priority =
                options.static_prior->PriorityOf(spec->name);
          }
          instances.push_back(std::move(instance));
        }
      }
    }
  }
  return instances;
}

// Generate must return exactly the reference sequence: same plans (by
// fingerprint, which covers assigner and overrides), priorities, and count.
// Returns the number of instances compared.
int64_t ExpectMatchesReference(const TestGenerator& generator, const ConfSchema& schema,
                               const GeneratorOptions& options,
                               const PreRunRecord& record) {
  int64_t expected_before = -1;
  std::vector<GeneratedInstance> expected =
      ReferenceGenerate(schema, options, record, &expected_before);
  int64_t before = -1;
  std::vector<GeneratedInstance> actual = generator.Generate(record, &before);
  EXPECT_EQ(before, expected_before);
  EXPECT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_EQ(actual[i].test, expected[i].test);
    EXPECT_EQ(actual[i].plan.Fingerprint(), expected[i].plan.Fingerprint());
    EXPECT_EQ(actual[i].plan.static_priority, expected[i].plan.static_priority);
  }
  return static_cast<int64_t>(actual.size());
}

TEST_F(TestGeneratorTest, CatalogueMatchesReferenceEnumerationForFullCorpus) {
  analysis::StaticAnalyzer analyzer;
  ASSERT_GT(analyzer.AddTree(ZEBRALINT_SOURCE_ROOT), 0);
  const analysis::StaticPriorReport prior = analyzer.Analyze(&FullSchema());

  std::vector<PreRunRecord> records;
  for (const UnitTestDef& test : FullCorpus().tests()) {
    records.push_back(generator_.PreRunTest(test, nullptr));
  }

  int64_t total_instances = 0;
  int64_t with_overrides = 0;
  int64_t prioritized = 0;
  for (bool round_robin : {true, false}) {
    for (bool prune : {true, false}) {
      for (const analysis::StaticPriorReport* static_prior :
           {static_cast<const analysis::StaticPriorReport*>(nullptr), &prior}) {
        GeneratorOptions options;
        options.enable_round_robin = round_robin;
        options.prune_unread_instances = prune;
        options.static_prior = static_prior;
        TestGenerator generator(FullSchema(), FullCorpus(), options);
        for (const PreRunRecord& record : records) {
          SCOPED_TRACE(record.test->id + " round_robin=" + std::to_string(round_robin) +
                       " prune=" + std::to_string(prune) +
                       " prior=" + std::to_string(static_prior != nullptr));
          total_instances +=
              ExpectMatchesReference(generator, FullSchema(), options, record);
          for (const GeneratedInstance& instance : generator.Generate(record, nullptr)) {
            with_overrides += instance.plan.extra_overrides.empty() ? 0 : 1;
            prioritized += instance.plan.static_priority != 1.0 ? 1 : 0;
          }
        }
      }
    }
  }
  // The comparison covered dependency overrides and non-default priorities.
  EXPECT_GT(total_instances, 0);
  EXPECT_GT(with_overrides, 0);
  EXPECT_GT(prioritized, 0);
}

TEST_F(TestGeneratorTest, CatalogueMatchesReferenceOnOverlappingRulesAndForeignApps) {
  // A wildcard and an exact rule naming the same override (merged once),
  // rules on both values of a pair, a shared-library parameter, and an app
  // owning no parameter at all (it sees only the shared ones).
  ConfSchema schema;
  schema.AddParam(ParamSpec{"x.p", "x", ParamType::kEnum, "a", {"a", "b", "c"}, ""});
  schema.AddParam(
      ParamSpec{"common.q", kSharedApp, ParamType::kBool, "true", {"true", "false"}, ""});
  schema.AddDependencyRule("x.p", "*", "x.dep", "1");
  schema.AddDependencyRule("x.p", "a", "x.dep", "1");
  schema.AddDependencyRule("x.p", "b", "x.other", "2");
  schema.AddDependencyRule("common.q", "true", "common.dep", "on");

  int64_t compared = 0;
  for (const std::string app : {"x", "unowned"}) {
    UnitTestDef test{app + ".T", app, nullptr};
    PreRunRecord record;
    record.test = &test;
    record.result.report.node_counts = {{"A", 1}, {"B", 2}};
    record.result.report.reads = {{"A", {"x.p", "common.q"}}, {"B", {"x.p"}}};
    for (bool prune : {true, false}) {
      SCOPED_TRACE(app + " prune=" + std::to_string(prune));
      GeneratorOptions options;
      options.prune_unread_instances = prune;
      TestGenerator generator(schema, FullCorpus(), options);
      compared += ExpectMatchesReference(generator, schema, options, record);
    }
  }
  EXPECT_GT(compared, 0);
}

TEST_F(TestGeneratorTest, SharedLibraryParamsGeneratedForApps) {
  PreRunRecord record = PreRunOne("minikv.TestPutGet");
  auto instances = generator_.Generate(record, nullptr);
  bool found_common = false;
  for (const GeneratedInstance& instance : instances) {
    if (instance.plan.param == "hadoop.rpc.protection") {
      found_common = true;
    }
  }
  EXPECT_TRUE(found_common)
      << "appcommon parameters must be testable through minikv tests";
}

}  // namespace
}  // namespace zebra
