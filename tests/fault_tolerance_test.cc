// Tests for the fault-tolerant campaign machinery: deterministic fault
// injection (crash / hang / garbled-frame / slow-worker), the watchdog
// deadline, poisoned-unit quarantine, and crash-safe journal/resume. The
// invariant under test everywhere: faults change how often units re-run and
// how long the campaign takes — never findings, Table-5 stage counts, or
// runs_to_first_detection, which must stay bitwise-identical to the
// uninterrupted sequential campaign (CI-gated via the *BitwiseIdentical*
// filter).
//
// Every FaultToleranceTest case runs once per speculative backend, through
// MakeExecutor: the thread pool, which maps each fault to a failed attempt
// of a worker thread, and the distributed fabric, whose forked agents take
// the faults for real — an agent process _Exits, a worker thread hangs until
// the lease watchdog retires its agent, an agent writes a garbled frame.
// Fabric agents run one thread with one lease in flight, so retiring an
// agent expires exactly the faulted unit's lease.
//
// Note on worker budgets: the pool is fixed — a crash, garble, or watchdog
// retirement permanently removes one worker thread or agent (the engine
// throws only when none remain) — so each test provisions one more worker
// than the faults it injects.

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/core/campaign_executor.h"
#include "src/core/campaign_journal.h"
#include "src/core/fault_injection.h"
#include "src/core/watchdog.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

// Full structural equality against the sequential reference (same contract
// as thread_pool_scheduler_test.cc). Durations, wall-clock, and the
// fault-tolerance counters themselves are accounting, not results.
void ExpectIdenticalResults(const CampaignReport& actual,
                            const CampaignReport& expected,
                            const std::string& label) {
  SCOPED_TRACE(label);

  ASSERT_EQ(actual.per_app.size(), expected.per_app.size());
  for (const auto& [app, counts] : expected.per_app) {
    ASSERT_TRUE(actual.per_app.count(app) > 0) << app;
    const AppStageCounts& got = actual.per_app.at(app);
    EXPECT_EQ(got.original, counts.original) << app;
    EXPECT_EQ(got.after_static, counts.after_static) << app;
    EXPECT_EQ(got.after_prerun, counts.after_prerun) << app;
    EXPECT_EQ(got.after_uncertainty, counts.after_uncertainty) << app;
    EXPECT_EQ(got.executed_runs, counts.executed_runs) << app;
    EXPECT_EQ(got.tests_total, counts.tests_total) << app;
    EXPECT_EQ(got.tests_with_nodes, counts.tests_with_nodes) << app;
  }

  ASSERT_EQ(actual.findings.size(), expected.findings.size());
  for (const auto& [param, finding] : expected.findings) {
    ASSERT_TRUE(actual.findings.count(param) > 0) << param;
    const ParamFinding& got = actual.findings.at(param);
    EXPECT_EQ(got.owning_app, finding.owning_app) << param;
    EXPECT_EQ(got.witness_tests, finding.witness_tests) << param;
    EXPECT_EQ(got.example_failure, finding.example_failure) << param;
    EXPECT_EQ(got.best_p_value, finding.best_p_value) << param;
  }

  EXPECT_EQ(actual.first_trial_candidates, expected.first_trial_candidates);
  EXPECT_EQ(actual.filtered_by_hypothesis, expected.filtered_by_hypothesis);
  EXPECT_EQ(actual.total_unit_test_runs, expected.total_unit_test_runs);
  EXPECT_EQ(actual.runs_to_first_detection, expected.runs_to_first_detection);
  EXPECT_EQ(actual.first_detection_param, expected.first_detection_param);
}

CampaignOptions SmallCampaign() {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  return options;
}

CampaignReport SequentialReference(const CampaignOptions& options) {
  Campaign sequential(FullSchema(), FullCorpus(), options);
  return sequential.Run();
}

TEST(FaultPlanTest, DecisionsAreSeedDeterministicAndWorkerIndependent) {
  FaultPlan plan;
  plan.seed = 42;
  plan.crash_rate = 0.5;
  plan.garble_rate = 0.25;

  FaultSpec first;
  FaultSpec second;
  int fired = 0;
  for (int unit = 0; unit < 64; ++unit) {
    std::string test_id = "app.Test" + std::to_string(unit);
    bool a = plan.Decide(/*worker=*/0, test_id, /*attempt=*/0, &first);
    bool b = plan.Decide(/*worker=*/7, test_id, /*attempt=*/0, &second);
    // Replayable under any unit-to-worker assignment: the worker index must
    // not influence the decision.
    ASSERT_EQ(a, b) << test_id;
    if (a) {
      EXPECT_EQ(first.kind, second.kind) << test_id;
      ++fired;
    }
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);

  // A different seed produces a different firing pattern.
  FaultPlan other = plan;
  other.seed = 43;
  int differences = 0;
  for (int unit = 0; unit < 64; ++unit) {
    std::string test_id = "app.Test" + std::to_string(unit);
    FaultSpec unused;
    if (plan.Decide(0, test_id, 0, &unused) !=
        other.Decide(0, test_id, 0, &unused)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultPlanTest, ExplicitSpecsMatchWildcards) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kHang;
  spec.test_id = "minikv.TestPutGet";
  spec.worker = -1;   // any worker
  spec.attempt = -1;  // any attempt
  plan.specs.push_back(spec);

  FaultSpec out;
  EXPECT_TRUE(plan.Decide(0, "minikv.TestPutGet", 0, &out));
  EXPECT_TRUE(plan.Decide(5, "minikv.TestPutGet", 3, &out));
  EXPECT_EQ(out.kind, FaultKind::kHang);
  EXPECT_FALSE(plan.Decide(0, "minikv.TestOther", 0, &out));
}

TEST(WatchdogTest, DeadlineFormula) {
  // Disabled floor disables the watchdog outright.
  EXPECT_EQ(WatchdogDeadlineSeconds(0.0, 8.0, {1.0, 2.0}), 0.0);
  EXPECT_EQ(WatchdogDeadlineSeconds(-1.0, 8.0, {1.0}), 0.0);
  // No samples yet: the floor alone covers the cold start.
  EXPECT_EQ(WatchdogDeadlineSeconds(60.0, 8.0, {}), 60.0);
  // floor + multiplier * p95.
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back(static_cast<double>(i));  // p95 = 95
  }
  EXPECT_DOUBLE_EQ(WatchdogDeadlineSeconds(10.0, 2.0, samples), 10.0 + 2.0 * 95.0);
  EXPECT_DOUBLE_EQ(WatchdogDeadlineSeconds(1.0, 4.0, {0.5}), 1.0 + 4.0 * 0.5);
}

TEST(WatchdogTest, Percentile95ZeroSamplesFallsBackToFloor) {
  // The zero-samples regression: p95 of an empty window must be 0.0 — not a
  // read past the end, not NaN — so the deadline degrades to exactly the
  // structural floor until the first completion lands.
  EXPECT_EQ(Percentile95({}), 0.0);
  EXPECT_DOUBLE_EQ(WatchdogDeadlineSeconds(60.0, 8.0, {}), 60.0);
  EXPECT_DOUBLE_EQ(WatchdogDeadlineSeconds(0.25, 100.0, {}), 0.25);
}

TEST(WatchdogTest, Percentile95RankSelection) {
  // One sample is its own p95.
  EXPECT_DOUBLE_EQ(Percentile95({3.5}), 3.5);
  // Order-independent: the rank statistic sorts internally.
  EXPECT_DOUBLE_EQ(Percentile95({5.0, 1.0, 3.0}), 5.0);
  // 1..100 -> rank 95 exactly; 1..20 -> ceil(20 * 0.95) = rank 19.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(Percentile95(hundred), 95.0);
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) {
    twenty.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(Percentile95(twenty), 19.0);
}

// The fabric coordinator keeps the percentile up to date per completion
// instead of selecting over every sample per dispatch; it must read exactly
// what the batch selection reads, after every sample.
void ExpectStreamingMatchesBatch(const std::vector<double>& samples,
                                 const std::string& label) {
  StreamingPercentile95 streaming;
  EXPECT_EQ(streaming.Value(), 0.0) << label;
  std::vector<double> prefix;
  for (double sample : samples) {
    streaming.Add(sample);
    prefix.push_back(sample);
    ASSERT_EQ(streaming.Value(), Percentile95(prefix))
        << label << " after " << prefix.size() << " samples";
  }
}

TEST(WatchdogTest, StreamingPercentile95MatchesBatchForEveryCount) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> seconds(0.0, 3.0);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    samples.push_back(seconds(rng));
  }
  ExpectStreamingMatchesBatch(samples, "uniform");

  std::vector<double> skewed;
  std::exponential_distribution<double> tail(20.0);
  for (int i = 0; i < 500; ++i) {
    skewed.push_back(i % 97 == 0 ? 30.0 + tail(rng) : tail(rng));
  }
  ExpectStreamingMatchesBatch(skewed, "heavy tail");
}

TEST(WatchdogTest, StreamingPercentile95MatchesBatchOnTiesAndOrder) {
  std::mt19937_64 rng(29);
  std::vector<double> ties;
  for (int i = 0; i < 600; ++i) {
    ties.push_back(0.1 * static_cast<double>(rng() % 3));
  }
  ExpectStreamingMatchesBatch(ties, "three distinct values");
  ExpectStreamingMatchesBatch(std::vector<double>(300, 0.25), "all equal");
  std::vector<double> ascending;
  for (int i = 0; i < 300; ++i) {
    ascending.push_back(static_cast<double>(i));
  }
  ExpectStreamingMatchesBatch(ascending, "ascending");
  ExpectStreamingMatchesBatch(
      std::vector<double>(ascending.rbegin(), ascending.rend()), "descending");
}

TEST(WatchdogTest, StreamingDeadlineIsBitIdenticalToTheSampleFormula) {
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> seconds(0.001, 0.2);
  StreamingPercentile95 streaming;
  std::vector<double> samples;
  for (int i = 0; i <= 300; ++i) {
    for (double floor : {-1.0, 0.0, 0.5, 60.0}) {
      for (double multiplier : {-2.0, 0.0, 1.0, 8.0}) {
        ASSERT_EQ(WatchdogDeadlineFromP95(floor, multiplier, streaming.Value()),
                  WatchdogDeadlineSeconds(floor, multiplier, samples))
            << floor << " " << multiplier << " after " << samples.size();
      }
    }
    const double sample = seconds(rng);
    streaming.Add(sample);
    samples.push_back(sample);
  }
}

// One speculative backend under fault injection.
class FaultToleranceTest : public ::testing::TestWithParam<ExecutorKind> {
 protected:
  bool fabric() const { return GetParam() == ExecutorKind::kDistributed; }

  // `workers` threads, or `workers` single-thread agents with one lease each.
  ExecutorOptions Exec(int workers) const {
    ExecutorOptions exec;
    exec.workers = workers;
    if (fabric()) {
      exec.pipeline_depth = 1;
    }
    return exec;
  }

  CampaignReport Run(const CampaignOptions& options,
                     const ExecutorOptions& exec) const {
    return MakeExecutor(GetParam())->Run(FullSchema(), FullCorpus(), options,
                                         exec);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Engines, FaultToleranceTest,
    ::testing::Values(ExecutorKind::kThreadPool, ExecutorKind::kDistributed),
    [](const ::testing::TestParamInfo<ExecutorKind>& info) {
      return std::string(ExecutorKindName(info.param));
    });

FaultSpec Spec(FaultKind kind, const char* test_id, int attempt) {
  FaultSpec spec;
  spec.kind = kind;
  spec.test_id = test_id;
  spec.attempt = attempt;
  return spec;
}

// A watchdog tight enough to keep the hang tests fast, loose enough that a
// healthy unit under a sanitizer never trips it. The thread pool has no
// watchdog (an injected hang fails its attempt at once) and ignores it.
CampaignOptions WithTightWatchdog(CampaignOptions options) {
  options.watchdog_floor_seconds = 0.5;
  options.watchdog_multiplier = 8.0;
  return options;
}

TEST_P(FaultToleranceTest, CrashPlanBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  ASSERT_GT(expected.findings.size(), 0u);

  // Three first-attempt crashes on three different units, three workers
  // lost; the fourth finishes the campaign.
  ExecutorOptions exec = Exec(4);
  for (const char* test_id :
       {"minikv.TestPutGet", "ministream.TestDataExchange",
        "minikv.TestRestStatus"}) {
    exec.faults.specs.push_back(Spec(FaultKind::kCrash, test_id, 0));
  }

  CampaignReport report = Run(options, exec);
  ExpectIdenticalResults(report, expected, "crash plan");
  EXPECT_EQ(report.requeued_units, 3);
  EXPECT_TRUE(report.poisoned_units.empty());
  if (fabric()) {
    EXPECT_EQ(report.agent_disconnects, 3);
  }
}

TEST_P(FaultToleranceTest, HangWatchdogBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // The very first unit hangs on its first attempt. The fabric's lease
  // watchdog retires the stuck agent; the thread pool fails the attempt at
  // once. Either way the survivor re-runs the unit and the campaign must
  // not notice.
  ExecutorOptions exec = Exec(2);
  exec.faults.specs.push_back(Spec(FaultKind::kHang, "minikv.TestPutGet", 0));

  CampaignReport report = Run(WithTightWatchdog(options), exec);
  ExpectIdenticalResults(report, expected, "hang + watchdog");
  EXPECT_EQ(report.hung_workers, 1);
  EXPECT_EQ(report.requeued_units, 1);
  EXPECT_TRUE(report.poisoned_units.empty());
}

TEST_P(FaultToleranceTest, GarbledFrameBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  ExecutorOptions exec = Exec(2);
  exec.faults.specs.push_back(
      Spec(FaultKind::kGarbledFrame, "ministream.TestDataExchange", 0));

  CampaignReport report = Run(options, exec);
  ExpectIdenticalResults(report, expected, "garbled frame");
  EXPECT_EQ(report.requeued_units, 1);
  if (fabric()) {
    EXPECT_EQ(report.agent_disconnects, 1);
  }
}

TEST_P(FaultToleranceTest, SlowWorkerBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);

  // A slow worker must ride out the default watchdog untouched: slowness is
  // not a fault, just load.
  ExecutorOptions exec = Exec(2);
  FaultSpec slow = Spec(FaultKind::kSlowWorker, "minikv.TestPutGet", -1);
  slow.slow_seconds = 0.05;
  exec.faults.specs.push_back(slow);

  CampaignReport report = Run(options, exec);
  ExpectIdenticalResults(report, expected, "slow worker");
  EXPECT_EQ(report.hung_workers, 0);
  EXPECT_EQ(report.requeued_units, 0);
}

TEST_P(FaultToleranceTest, PoisonedUnitQuarantinedAndCampaignCompletes) {
  CampaignOptions options = WithTightWatchdog(SmallCampaign());
  options.unit_attempt_limit = 2;

  // This unit hangs on EVERY attempt: without quarantine the engine would
  // burn workers on it forever. After two failed attempts (two watchdog
  // retirements on the fabric, two failed thread attempts in the pool) it
  // must be poisoned, folded as an empty stub, and the rest of the campaign
  // must still complete with the surviving worker.
  ExecutorOptions exec = Exec(3);
  exec.faults.specs.push_back(Spec(FaultKind::kHang, "minikv.TestPutGet", -1));

  CampaignReport report = Run(options, exec);
  ASSERT_EQ(report.poisoned_units.size(), 1u);
  EXPECT_EQ(report.poisoned_units[0], "minikv.TestPutGet");
  EXPECT_EQ(report.hung_workers, 2);
  // Both apps still ran to completion around the quarantined unit.
  EXPECT_EQ(report.per_app.size(), 2u);
  EXPECT_GT(report.total_unit_test_runs, 0);
}

TEST_P(FaultToleranceTest, PipelinedHangPoisonsOnlyTheHungUnit) {
  if (!fabric()) {
    GTEST_SKIP() << "lease pipelining is a fabric setting";
  }
  // At depth 2 each single-thread agent holds two leases, so the unit
  // dispatched behind the hanging one is revoked with it at every watchdog
  // retirement. Only the unit that hung may be charged the failed attempt:
  // the one queued behind it never started, and must still run and fold.
  CampaignOptions options = WithTightWatchdog(SmallCampaign());
  options.unit_attempt_limit = 2;
  ExecutorOptions exec = Exec(3);
  exec.faults.specs.push_back(Spec(FaultKind::kHang, "minikv.TestPutGet", -1));
  CampaignReport serial = Run(options, exec);
  ASSERT_EQ(serial.poisoned_units,
            std::vector<std::string>{"minikv.TestPutGet"});

  exec.pipeline_depth = 2;
  CampaignReport pipelined = Run(options, exec);
  EXPECT_EQ(pipelined.poisoned_units,
            std::vector<std::string>{"minikv.TestPutGet"});
  EXPECT_EQ(pipelined.hung_workers, 2);
  ExpectIdenticalResults(pipelined, serial, "depth 2 against depth 1");
}

TEST_P(FaultToleranceTest, JournalResumeBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path =
      ::testing::TempDir() + "/fault_resume_" + ExecutorKindName(GetParam()) +
      ".zj";
  std::remove(path.c_str());

  // First invocation "crashes" (abort hook) after three folds; the journal
  // holds exactly those three unit results.
  ExecutorOptions first = Exec(2);
  first.journal_path = path;
  first.abort_after_folds = 3;
  CampaignReport partial = Run(options, first);
  EXPECT_LT(partial.total_unit_test_runs, expected.total_unit_test_runs);

  // The resumed campaign replays the journal prefix and runs only the rest —
  // and must be bitwise-identical to the uninterrupted reference.
  ExecutorOptions second = Exec(2);
  second.journal_path = path;
  second.resume = true;
  CampaignReport resumed = Run(options, second);
  ExpectIdenticalResults(resumed, expected, "journal resume");
  EXPECT_EQ(resumed.resumed_units, 3);
  std::remove(path.c_str());
}

TEST_P(FaultToleranceTest, GroupCommitJournalResumeBitwiseIdentical) {
  // Same crash/resume contract as JournalResumeBitwiseIdentical, but under
  // the batched sync policy: records ride several-per-fdatasync, the abort
  // lands mid-batch, and the resumed campaign must still be
  // bitwise-identical to the uninterrupted reference.
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path = ::testing::TempDir() + "/fault_batch_resume_" +
                           ExecutorKindName(GetParam()) + ".zj";
  std::remove(path.c_str());

  ExecutorOptions first = Exec(2);
  first.journal_path = path;
  first.journal_sync_batch = 4;
  first.abort_after_folds = 3;  // mid-batch: 3 folded, none past a boundary
  CampaignReport partial = Run(options, first);
  EXPECT_LT(partial.total_unit_test_runs, expected.total_unit_test_runs);

  ExecutorOptions second = Exec(2);
  second.journal_path = path;
  second.journal_sync_batch = 4;
  second.resume = true;
  CampaignReport resumed = Run(options, second);
  ExpectIdenticalResults(resumed, expected, "group-commit journal resume");
  EXPECT_EQ(resumed.resumed_units, 3);
  EXPECT_EQ(resumed.journal_append_failures, 0);
  std::remove(path.c_str());
}

TEST_P(FaultToleranceTest, TornJournalTailResumeBitwiseIdentical) {
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path = ::testing::TempDir() + "/fault_torn_resume_" +
                           ExecutorKindName(GetParam()) + ".zj";
  std::remove(path.c_str());

  ExecutorOptions first = Exec(2);
  first.journal_path = path;
  first.abort_after_folds = 5;
  Run(options, first);

  // Smear garbage over the tail of the last record, as a crash mid-append
  // would: the checksum rejects the record, resume keeps the 4-record
  // prefix, re-runs the rest, and the result is still bitwise-identical.
  struct stat info {};
  ASSERT_EQ(::stat(path.c_str(), &info), 0);
  ASSERT_GT(info.st_size, 16);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(info.st_size - 8);
    file.write("ZZZZZZZZ", 8);
  }

  ExecutorOptions second = Exec(2);
  second.journal_path = path;
  second.resume = true;
  CampaignReport resumed = Run(options, second);
  ExpectIdenticalResults(resumed, expected, "torn journal resume");
  EXPECT_EQ(resumed.resumed_units, 4);
  std::remove(path.c_str());
}

TEST_P(FaultToleranceTest, ResumeWithDifferentCampaignThrows) {
  CampaignOptions options = SmallCampaign();
  const std::string path = ::testing::TempDir() + "/fault_mismatch_" +
                           ExecutorKindName(GetParam()) + ".zj";
  std::remove(path.c_str());

  ExecutorOptions first = Exec(1);
  first.journal_path = path;
  first.abort_after_folds = 2;
  Run(options, first);

  // Resuming with result-affecting options changed must refuse, not
  // silently mix two campaigns' results.
  CampaignOptions different = options;
  different.enable_pooling = false;
  ExecutorOptions second = Exec(1);
  second.journal_path = path;
  second.resume = true;
  EXPECT_THROW(Run(different, second), Error);
  std::remove(path.c_str());
}

TEST_P(FaultToleranceTest, FaultsUnderJournalResumeBitwiseIdentical) {
  // Compose the layers: a crash fault during the first (aborted) run AND a
  // crash during the resumed run, with the journal carrying state across.
  CampaignOptions options = SmallCampaign();
  CampaignReport expected = SequentialReference(options);
  const std::string path = ::testing::TempDir() + "/fault_compose_" +
                           ExecutorKindName(GetParam()) + ".zj";
  std::remove(path.c_str());

  ExecutorOptions first = Exec(3);
  first.journal_path = path;
  first.abort_after_folds = 4;
  first.faults.specs.push_back(Spec(FaultKind::kCrash, "minikv.TestPutGet", 0));
  Run(options, first);

  ExecutorOptions second = Exec(3);
  second.journal_path = path;
  second.resume = true;
  second.faults.specs.push_back(
      Spec(FaultKind::kCrash, "ministream.TestDataExchange", 0));
  CampaignReport resumed = Run(options, second);
  ExpectIdenticalResults(resumed, expected, "faults + journal resume");
  EXPECT_EQ(resumed.resumed_units, 4);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zebra
