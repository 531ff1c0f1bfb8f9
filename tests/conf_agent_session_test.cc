// Verdict-only ConfAgent sessions against the recording path: same verdicts,
// same override decisions, no leak of reused session state between sessions,
// and complete reports in every run-cache entry.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/conf/conf_agent.h"
#include "src/conf/configuration.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/run_cache.h"
#include "src/testkit/test_context.h"
#include "src/testkit/test_execution.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

struct ModeRun {
  bool passed = false;
  std::string failure;
  SessionReport report;
};

// Runs `test` under a `mode` session on the calling thread's agent, seeded
// exactly as RunUnitTest seeds it.
ModeRun RunInMode(const UnitTestDef& test, const TestPlan& plan, SessionMode mode) {
  ModeRun run;
  ConfAgentSession session(&plan, mode);
  TestContext context(test.id, HashCombine(0, plan.DescribeSeed()));
  try {
    test.body(context);
    run.passed = true;
  } catch (const std::exception& e) {
    run.failure = e.what();
  }
  run.report = session.End();
  return run;
}

// One heterogeneous plan per parameter the pre-run read through a mapped
// entity: that entity's group gets the schema's first test value, everyone
// else the second.
std::vector<TestPlan> HeteroPlans(const SessionReport& prerun) {
  std::map<std::string, std::string> entity_of;  // param -> first reader
  for (const auto& [entity, params] : prerun.reads) {
    for (const std::string& param : params) {
      entity_of.emplace(param, entity);
    }
  }
  std::vector<TestPlan> plans;
  for (const auto& [param, entity] : entity_of) {
    std::string group_value = "1";
    std::string other_value = "0";
    if (const ParamSpec* spec = FullSchema().Find(param);
        spec != nullptr && spec->test_values.size() >= 2) {
      group_value = spec->test_values[0];
      other_value = spec->test_values[1];
    }
    ParamPlan entry;
    entry.param = param;
    entry.assigner = ValueAssigner::UniformGroup(entity, group_value, other_value);
    TestPlan plan;
    plan.Add(std::move(entry));
    plans.push_back(std::move(plan));
  }
  return plans;
}

// Everything but the per-read fields a kVerdict session skips.
void ExpectSameDecisions(const SessionReport& verdict, const SessionReport& record,
                         const std::string& where) {
  EXPECT_EQ(verdict.override_hits, record.override_hits) << where;
  EXPECT_EQ(verdict.node_counts, record.node_counts) << where;
  EXPECT_EQ(verdict.conf_objects_created, record.conf_objects_created) << where;
  EXPECT_EQ(verdict.clones, record.clones) << where;
  EXPECT_EQ(verdict.ref_to_clones, record.ref_to_clones) << where;
  EXPECT_EQ(verdict.uncertain_conf_count, record.uncertain_conf_count) << where;
  EXPECT_EQ(verdict.conf_sharing_detected, record.conf_sharing_detected) << where;
  EXPECT_EQ(verdict.any_conf_usage, record.any_conf_usage) << where;
  EXPECT_TRUE(verdict.reads.empty()) << where;
  EXPECT_TRUE(verdict.uncertain_params.empty()) << where;
}

TEST(ConfAgentSessionTest, VerdictPathMatchesRecordingPathOnFullCorpus) {
  ASSERT_EQ(GlobalRunCache(), nullptr);
  int plans_checked = 0;
  int overridden_runs = 0;
  for (const UnitTestDef& test : FullCorpus().tests()) {
    const TestResult prerun = RunUnitTest(test, TestPlan{}, /*trial=*/0);
    std::vector<TestPlan> plans = HeteroPlans(prerun.report);
    plans.insert(plans.begin(), TestPlan{});
    for (const TestPlan& plan : plans) {
      const std::string where = test.id + " under [" + plan.Describe() + "]";
      const std::shared_ptr<const TestResult> full =
          RunUnitTestShared(test, plan, /*trial=*/0);
      const RunVerdict verdict = RunUnitTestVerdict(test, plan, /*trial=*/0);
      EXPECT_EQ(verdict.passed, full->passed) << where;
      EXPECT_EQ(verdict.failure, full->failure) << where;

      const ModeRun record = RunInMode(test, plan, SessionMode::kRecord);
      const ModeRun lean = RunInMode(test, plan, SessionMode::kVerdict);
      EXPECT_EQ(lean.passed, record.passed) << where;
      EXPECT_EQ(lean.failure, record.failure) << where;
      EXPECT_EQ(SerializeSessionReport(record.report),
                SerializeSessionReport(full->report))
          << where;
      ExpectSameDecisions(lean.report, record.report, where);
      overridden_runs += record.report.override_hits > 0 ? 1 : 0;
      ++plans_checked;
    }
  }
  EXPECT_GT(plans_checked, static_cast<int>(FullCorpus().tests().size()));
  EXPECT_GT(overridden_runs, 0);
}

TEST(ConfAgentSessionTest, ReusedSessionStateDoesNotLeak) {
  const std::vector<UnitTestDef>& tests = FullCorpus().tests();
  ASSERT_GE(tests.size(), 4u);
  const UnitTestDef& probe = tests[tests.size() / 2];
  const TestResult prerun = RunUnitTest(probe, TestPlan{}, /*trial=*/0);
  std::vector<TestPlan> plans = HeteroPlans(prerun.report);
  ASSERT_FALSE(plans.empty()) << probe.id << " reads no mapped parameter";
  const TestPlan& plan = plans.front();

  std::string fresh;
  {
    ScopedThreadConfAgent agent;
    fresh = SerializeSessionReport(RunInMode(probe, plan, SessionMode::kRecord).report);
  }

  ScopedThreadConfAgent agent;
  // Warm one agent with a mix of sessions over other tests, some aborted by
  // failing bodies, in both modes and with other plans.
  for (size_t i = 0; i < tests.size(); i += 3) {
    const SessionMode mode = i % 2 == 0 ? SessionMode::kVerdict : SessionMode::kRecord;
    RunInMode(tests[i], TestPlan{}, mode);
    for (const TestPlan& other : HeteroPlans(RunUnitTest(tests[i], TestPlan{}, 0).report)) {
      RunInMode(tests[i], other, mode);
      break;
    }
  }
  RunInMode(probe, plan, SessionMode::kVerdict);
  EXPECT_EQ(SerializeSessionReport(RunInMode(probe, plan, SessionMode::kRecord).report),
            fresh);
  // The owned-plan entry point on the same warmed agent agrees too.
  ConfAgentSession owned(plan);
  TestContext context(probe.id, HashCombine(0, plan.DescribeSeed()));
  try {
    probe.body(context);
  } catch (const std::exception&) {
  }
  EXPECT_EQ(SerializeSessionReport(owned.End()), fresh);
}

TEST(ConfAgentSessionTest, CachedPrerunCarriesTheFullReport) {
  for (const UnitTestDef& test : FullCorpus().tests()) {
    const TestResult uncached = RunUnitTest(test, TestPlan{}, /*trial=*/0);

    RunCache cache;
    ScopedRunCache installed(&cache);
    // A verdict consumer fills the cache first; the pre-run is then served
    // from that entry and must still see everything an uncached pre-run sees.
    const RunVerdict verdict = RunUnitTestVerdict(test, TestPlan{}, /*trial=*/0);
    EXPECT_EQ(verdict.passed, uncached.passed) << test.id;
    const int64_t hits_before = cache.stats().hits;
    const TestResult cached = RunUnitTest(test, TestPlan{}, /*trial=*/0);
    EXPECT_EQ(cache.stats().hits, hits_before + 1) << test.id;
    EXPECT_EQ(cached.passed, uncached.passed) << test.id;
    EXPECT_EQ(cached.failure, uncached.failure) << test.id;
    EXPECT_EQ(SerializeSessionReport(cached.report),
              SerializeSessionReport(uncached.report))
        << test.id;
  }
}

TEST(ConfAgentSessionTest, VerdictSessionIgnoresPresenceChecksButServesOverrides) {
  ParamPlan entry;
  entry.param = "p";
  entry.assigner = ValueAssigner::Homogeneous("planned");
  TestPlan plan;
  plan.Add(entry);
  ScopedThreadConfAgent agent;
  {
    ConfAgentSession session(&plan, SessionMode::kVerdict);
    Configuration conf;
    conf.Set("p", "stored");
    EXPECT_TRUE(conf.Has("p"));
    EXPECT_EQ(conf.Get("p"), "planned");
    EXPECT_EQ(conf.Get("p"), "planned");
    EXPECT_EQ(conf.Get("q", "fallback"), "fallback");
    const SessionReport report = session.End();
    EXPECT_EQ(report.override_hits, 2);
    EXPECT_TRUE(report.any_conf_usage);
    EXPECT_TRUE(report.reads.empty());
  }
  {
    ConfAgentSession session(&plan, SessionMode::kRecord);
    Configuration conf;
    conf.Set("p", "stored");
    EXPECT_TRUE(conf.Has("p"));
    EXPECT_FALSE(conf.Has("q"));
    EXPECT_EQ(conf.Get("p"), "planned");
    const SessionReport report = session.End();
    EXPECT_EQ(report.override_hits, 1);
    // Only the Get is a read: presence checks leave the report alone.
    EXPECT_EQ(report.ParamsReadBy(kClientEntity), (std::set<std::string>{"p"}));
    EXPECT_EQ(report.AllParamsRead(), (std::set<std::string>{"p"}));
    EXPECT_TRUE(report.uncertain_params.empty());
  }
}

}  // namespace
}  // namespace zebra
