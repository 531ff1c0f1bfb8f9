// Tests for the in-process thread-pool scheduler and the CampaignExecutor
// interface. The determinism contract every backend carries — findings,
// Table-5 stage counts, and runs_to_first_detection bitwise-identical to the
// sequential campaign at every thread count — plus the thread-specific
// surfaces: the shared cross-worker run cache, the thread mapping of
// injected faults, and journal/resume without forks.

#include "src/core/thread_pool_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/core/campaign_executor.h"
#include "src/core/report_io.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/run_cache.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

// Full structural equality against the sequential reference. Durations and
// wall-clock are timing, not results; cache counters are scheduling-dependent
// accounting — neither is compared.
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

  ASSERT_EQ(actual.sharing.size(), expected.sharing.size());
  for (const auto& [app, sharing] : expected.sharing) {
    ASSERT_TRUE(actual.sharing.count(app) > 0) << app;
    EXPECT_EQ(actual.sharing.at(app).tests_with_conf_usage,
              sharing.tests_with_conf_usage)
        << app;
    EXPECT_EQ(actual.sharing.at(app).tests_with_sharing, sharing.tests_with_sharing)
        << app;
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

TEST(ThreadPoolSchedulerTest, BitwiseIdenticalToSequentialAtEveryThreadCount) {
  CampaignOptions options;  // all apps: exercises cross-unit frequent-failure
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  ASSERT_GT(expected.findings.size(), 0u);
  ASSERT_GT(expected.runs_to_first_detection, 0);

  for (int workers : {1, 2, 4, 6}) {
    CampaignReport pooled =
        RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, workers);
    ExpectIdenticalResults(pooled, expected,
                           "workers=" + std::to_string(workers));
  }
}

TEST(ThreadPoolSchedulerTest, SharedRunCacheDoesNotChangeResultsAndRecordsHits) {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  ASSERT_EQ(expected.cache_hits, 0);

  CampaignOptions cached_options = options;
  cached_options.enable_run_cache = true;
  CampaignReport cached = RunThreadPoolCampaign(FullSchema(), FullCorpus(),
                                                cached_options, /*workers=*/4);
  ExpectIdenticalResults(cached, expected, "shared cache enabled");
  EXPECT_GT(cached.cache_hits, 0);
  EXPECT_GT(cached.cache_misses, 0);
}

TEST(ThreadPoolSchedulerTest, SharedRunCacheBitwiseIdenticalAtEveryThreadCount) {
  // The shared cache serves one worker's executions to every other; the
  // no-cache sequential reference must still match bitwise at every thread
  // count.
  CampaignOptions options;  // all apps
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  ASSERT_GT(expected.findings.size(), 0u);

  CampaignOptions cached_options = options;
  cached_options.enable_run_cache = true;

  for (int workers : {1, 2, 4, 6}) {
    CampaignReport pooled = RunThreadPoolCampaign(FullSchema(), FullCorpus(),
                                                  cached_options, workers);
    ExpectIdenticalResults(pooled, expected,
                           "cached workers=" + std::to_string(workers));
  }
}

TEST(ThreadPoolSchedulerTest, UnprunedRegimeBitwiseIdentical) {
  // Generation without pre-run read pruning (the paper's Table 5 ablation):
  // every started node group is targeted for every parameter, so units
  // carry far more instances and the shared run cache far more entries.
  // Findings must not move.
  CampaignOptions options;
  options.apps = {"minikv", "ministream", "apptools"};
  options.prune_unread_instances = false;
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  ASSERT_GT(expected.findings.size(), 0u);

  CampaignOptions cached_options = options;
  cached_options.enable_run_cache = true;

  Campaign seq_cached(FullSchema(), FullCorpus(), cached_options);
  CampaignReport sequential_cached = seq_cached.Run();
  ExpectIdenticalResults(sequential_cached, expected, "sequential cached unpruned");
  EXPECT_GT(sequential_cached.cache_hits, 0);

  for (int workers : {2, 4}) {
    CampaignReport pooled = RunThreadPoolCampaign(FullSchema(), FullCorpus(),
                                                  cached_options, workers);
    ExpectIdenticalResults(pooled, expected,
                           "cached unpruned workers=" + std::to_string(workers));
  }
}

TEST(ThreadPoolSchedulerTest, LowFailureThresholdStaleResultsStayBitwiseIdentical) {
  // A frequent-failure threshold of 1 or 2 grows the globally-unsafe set at
  // nearly every confirmation: the most ladder republications, the most
  // predictions resting on speculative confirmations, and the most stale
  // results and cancellations. The two-sided staleness check must never
  // wave one of them through.
  for (int threshold : {1, 2}) {
    CampaignOptions options;  // all apps
    options.frequent_failure_threshold = threshold;
    Campaign sequential(FullSchema(), FullCorpus(), options);
    CampaignReport expected = sequential.Run();
    ASSERT_GT(expected.findings.size(), 0u);
    const std::string expected_text = SerializeReport(expected);

    for (int workers : {2, 4, 8}) {
      const std::string label = "threshold=" + std::to_string(threshold) +
                                " workers=" + std::to_string(workers);
      CampaignReport pooled =
          RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, workers);
      ExpectIdenticalResults(pooled, expected, label);
      // Timing is the only legitimate difference in the serialized form.
      pooled.wall_seconds = expected.wall_seconds;
      pooled.run_durations_seconds = expected.run_durations_seconds;
      EXPECT_EQ(SerializeReport(pooled), expected_text) << label;
    }
  }
}

// Every corpus test registered `replicas` times under distinct ids. Test
// RNGs and cache keys derive from the id, so each replica is an independent
// draw of the same test — the shape of a large campaign, where the
// globally-unsafe set grows early and most units run under a prediction.
UnitTestRegistry ReplicatedCorpus(int replicas) {
  UnitTestRegistry registry;
  for (int replica = 0; replica < replicas; ++replica) {
    for (const UnitTestDef& test : FullCorpus().tests()) {
      registry.Add(test.app,
                   test.id.substr(test.app.size() + 1) + "_r" +
                       std::to_string(replica),
                   test.body);
    }
  }
  return registry;
}

TEST(ThreadPoolSchedulerTest, ReplicatedCorpusBitwiseIdentical) {
  const UnitTestRegistry corpus = ReplicatedCorpus(4);
  CampaignOptions options;  // all apps
  options.requeue_backoff_seconds = 0.0;  // keep the faulted legs fast
  CampaignReport expected = Campaign(FullSchema(), corpus, options).Run();
  ASSERT_GT(expected.findings.size(), 0u);
  const std::string expected_text = SerializeReport(expected);

  // One of each fault a worker thread survives, plus one thread death, on
  // replicas spread over the campaign.
  FaultPlan faults;
  for (auto [kind, test_id] :
       {std::pair{FaultKind::kHang, "minidfs.TestPipelineReplication_r1"},
        std::pair{FaultKind::kGarbledFrame, "minimr.TestCommitterV1Job_r2"},
        std::pair{FaultKind::kCrash, "ministream.TestTwoJobsSequential_r3"}}) {
    ASSERT_NE(corpus.Find(test_id), nullptr) << test_id;
    FaultSpec spec;
    spec.kind = kind;
    spec.test_id = test_id;
    spec.worker = -1;
    spec.attempt = 0;
    faults.specs.push_back(spec);
  }

  for (bool faulted : {false, true}) {
    for (int workers : {2, 4, 6}) {
      const std::string label = std::string(faulted ? "faulted" : "clean") +
                                " workers=" + std::to_string(workers);
      ThreadPoolCampaignOptions pool;
      pool.workers = workers;
      if (faulted) {
        pool.faults = faults;
      }
      CampaignReport pooled =
          RunThreadPoolCampaign(FullSchema(), corpus, options, pool);
      ExpectIdenticalResults(pooled, expected, label);
      EXPECT_TRUE(pooled.poisoned_units.empty()) << label;
      EXPECT_EQ(pooled.requeued_units, faulted ? 3 : 0) << label;
      pooled.wall_seconds = expected.wall_seconds;
      pooled.run_durations_seconds = expected.run_durations_seconds;
      pooled.requeued_units = pooled.hung_workers = 0;
      EXPECT_EQ(SerializeReport(pooled), expected_text) << label;
    }
  }
}

TEST(ThreadPoolSchedulerTest, SurvivesInjectedWorkerCrash) {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();

  // Whichever worker dispatches the unit first dies on that attempt (the
  // crash targets the attempt, not a worker index, so it fires however the
  // two workers race for the queue); the survivor absorbs the queue. The
  // report must be identical and record exactly that one requeue.
  ThreadPoolCampaignOptions pool;
  pool.workers = 2;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.test_id = "minikv.TestPutGet";
  crash.worker = -1;
  crash.attempt = 0;
  pool.faults.specs.push_back(crash);

  CampaignReport report =
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, pool);
  ExpectIdenticalResults(report, expected, "one worker thread died");
  EXPECT_EQ(report.requeued_units, 1);
}

TEST(ThreadPoolSchedulerTest, AllWorkersDeadThrows) {
  CampaignOptions options;
  options.apps = {"minikv"};
  ThreadPoolCampaignOptions pool;
  pool.workers = 1;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  crash.test_id = "minikv.TestPutGet";
  crash.worker = 0;
  crash.attempt = -1;
  pool.faults.specs.push_back(crash);
  EXPECT_THROW(
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, pool), Error);
}

TEST(ThreadPoolSchedulerTest, PoisonedUnitIsQuarantinedNotLoopedForever) {
  CampaignOptions options;
  options.apps = {"minikv"};
  options.unit_attempt_limit = 2;
  options.requeue_backoff_seconds = 0.0;  // keep the test fast

  // Every attempt at this unit fails (hang injection, any worker, any
  // attempt): after unit_attempt_limit attempts it must fold as a stub and
  // land in poisoned_units instead of spinning.
  ThreadPoolCampaignOptions pool;
  pool.workers = 2;
  FaultSpec hang;
  hang.kind = FaultKind::kHang;
  hang.test_id = "minikv.TestPutGet";
  hang.worker = -1;
  hang.attempt = -1;
  pool.faults.specs.push_back(hang);

  CampaignReport report =
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, pool);
  ASSERT_EQ(report.poisoned_units.size(), 1u);
  EXPECT_EQ(report.poisoned_units[0], "minikv.TestPutGet");
  EXPECT_GT(report.hung_workers, 0);
}

TEST(ThreadPoolSchedulerTest, JournalResumeIsBitwiseIdentical) {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();

  const std::string path = ::testing::TempDir() + "/threadpool_resume.zj";

  // First invocation "crashes" (abort hook) after three folds; the journal
  // retains exactly that prefix.
  ThreadPoolCampaignOptions first;
  first.workers = 2;
  first.journal_path = path;
  first.abort_after_folds = 3;
  RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, first);

  // The resumed campaign replays the prefix and runs only the rest.
  ThreadPoolCampaignOptions second;
  second.workers = 2;
  second.journal_path = path;
  second.resume = true;
  CampaignReport resumed =
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, second);
  ExpectIdenticalResults(resumed, expected, "journal resume");
  EXPECT_EQ(resumed.resumed_units, 3);
}

TEST(ThreadPoolSchedulerTest, ZeroWorkersRejected) {
  CampaignOptions options;
  options.apps = {"minikv"};
  EXPECT_THROW(RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, 0),
               Error);
}

TEST(ThreadPoolSchedulerTest, MoreWorkersThanUnitsIsClamped) {
  CampaignOptions options;
  options.apps = {"apptools"};  // smallest corpus
  Campaign sequential(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential.Run();
  CampaignReport pooled = RunThreadPoolCampaign(FullSchema(), FullCorpus(),
                                                options, /*workers=*/64);
  ExpectIdenticalResults(pooled, expected, "clamped workers");
}

TEST(ThreadPoolSchedulerTest, CancelFlagStopsAtUnitBoundary) {
  CampaignOptions options;
  options.apps = {"minikv"};
  static volatile std::sig_atomic_t cancel = 1;  // pre-cancelled: nothing folds
  options.cancel_flag = &cancel;
  CampaignReport report =
      RunThreadPoolCampaign(FullSchema(), FullCorpus(), options, 2);
  EXPECT_EQ(report.findings.size(), 0u);
}

// ---------------------------------------------------------------------------
// CampaignExecutor interface
// ---------------------------------------------------------------------------

TEST(CampaignExecutorTest, EveryBackendProducesIdenticalResults) {
  CampaignOptions options;
  options.apps = {"minikv", "ministream"};
  Campaign sequential_ref(FullSchema(), FullCorpus(), options);
  CampaignReport expected = sequential_ref.Run();
  ASSERT_GT(expected.findings.size(), 0u);

  for (ExecutorKind kind : {ExecutorKind::kSequential, ExecutorKind::kThreadPool,
                            ExecutorKind::kDistributed}) {
    auto executor = MakeExecutor(kind);
    ExecutorOptions exec;
    exec.workers = kind == ExecutorKind::kSequential ? 1 : 2;
    CampaignReport report =
        executor->Run(FullSchema(), FullCorpus(), options, exec);
    ExpectIdenticalResults(report, expected, executor->name());
  }
}

TEST(CampaignExecutorTest, ParseAndNameRoundTrip) {
  for (ExecutorKind kind : {ExecutorKind::kSequential, ExecutorKind::kThreadPool,
                            ExecutorKind::kDistributed}) {
    auto parsed = ParseExecutorKind(ExecutorKindName(kind));
    ASSERT_TRUE(parsed.has_value()) << ExecutorKindName(kind);
    EXPECT_EQ(*parsed, kind);
    EXPECT_STREQ(MakeExecutor(kind)->name(), ExecutorKindName(kind));
  }
  EXPECT_FALSE(ParseExecutorKind("fork-bomb").has_value());
  // The retired backends' names parse as unknown, not as a fallback.
  EXPECT_FALSE(ParseExecutorKind("sharded").has_value());
  EXPECT_FALSE(ParseExecutorKind("stealing").has_value());
}

TEST(CampaignExecutorTest, UnhonorableOptionsAreRejectedNotDropped) {
  CampaignOptions options;
  options.apps = {"minikv"};

  // Sequential folds in one pass on the calling thread: no journal, no
  // resume, no abort hook, no fault plan, no second worker.
  ExecutorOptions with_journal;
  with_journal.journal_path = ::testing::TempDir() + "/exec_reject.zj";
  ExecutorOptions with_resume;
  with_resume.resume = true;
  ExecutorOptions with_abort;
  with_abort.abort_after_folds = 1;
  ExecutorOptions with_faults;
  FaultSpec crash;
  crash.kind = FaultKind::kCrash;
  with_faults.faults.specs.push_back(crash);
  ExecutorOptions with_workers;
  with_workers.workers = 2;
  for (const ExecutorOptions& exec :
       {with_journal, with_resume, with_abort, with_faults, with_workers}) {
    EXPECT_THROW(MakeExecutor(ExecutorKind::kSequential)
                     ->Run(FullSchema(), FullCorpus(), options, exec),
                 Error);
  }

  // The thread pool honors journal and faults but no fleet shape.
  ExecutorOptions with_agent_threads;
  with_agent_threads.workers = 2;
  with_agent_threads.agent_threads = 2;
  EXPECT_THROW(MakeExecutor(ExecutorKind::kThreadPool)
                   ->Run(FullSchema(), FullCorpus(), options, with_agent_threads),
               Error);

  // The fabric refuses a fleet it cannot assemble.
  ExecutorOptions no_agents;
  no_agents.workers = 0;
  EXPECT_THROW(MakeExecutor(ExecutorKind::kDistributed)
                   ->Run(FullSchema(), FullCorpus(), options, no_agents),
               Error);
}

// ---------------------------------------------------------------------------
// Concurrent RunCache
// ---------------------------------------------------------------------------

TEST(ConcurrentRunCacheTest, HammerWithLruEvictionStaysConsistent) {
  // N threads share one bounded cache, each inserting its own keyspace and
  // looking up everyone's, with LRU eviction constantly rotating entries out.
  // The copy-out Lookup must never tear a result (a hit is always a value
  // some thread inserted for exactly that key) and the final stats must
  // balance. Run under TSan in CI, this is the data-race gate for the
  // shared-cache design.
  RunCache cache(RunCache::Limits{/*max_entries=*/64, /*max_bytes=*/0});
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 40;
  constexpr int kRounds = 50;
  std::atomic<int> torn_results{0};

  auto worker = [&](int thread_index) {
    for (int round = 0; round < kRounds; ++round) {
      for (int key = 0; key < kKeysPerThread; ++key) {
        // Each (thread, key) pair owns a distinct plan text; the expected
        // payload is derivable from the key, so tearing is detectable.
        int owner = (thread_index + round + key) % kThreads;
        std::string test_id = "hammer.T" + std::to_string(owner);
        std::string plan = "plan-" + std::to_string(key);
        std::string expected_failure =
            "failure-" + std::to_string(owner) + "-" + std::to_string(key);

        TestResult out;
        if (cache.Lookup(test_id, plan, /*trial=*/0, &out)) {
          if (out.failure != expected_failure || out.passed) {
            ++torn_results;
          }
        } else {
          TestResult result;
          result.passed = false;
          result.failure = expected_failure;
          cache.Insert(test_id, plan, /*trial=*/0, /*trial_insensitive=*/true,
                       result);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(worker, i);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(torn_results.load(), 0);
  RunCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 64);
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(stats.evictions, 0);
  // Every recorded entry was inserted by somebody; entries + evictions can
  // exceed insert *calls* only if accounting tore somewhere.
  EXPECT_GE(stats.misses * 2, stats.entries + stats.evictions);

  // Whether any *concurrent* hit occurred depends on thread interleaving
  // (single-core boxes can serialize the rotating keyspace past the LRU
  // window), so hit accounting is asserted serially: insert, then look up.
  TestResult final_result;
  final_result.passed = true;
  cache.Insert("hammer.final", "p", 0, /*trial_insensitive=*/true, final_result);
  TestResult out;
  ASSERT_TRUE(cache.Lookup("hammer.final", "p", 7, &out));
  EXPECT_TRUE(out.passed);
  EXPECT_GT(cache.stats().hits, stats.hits);
}

TEST(ConcurrentRunCacheTest, SharedStatsSnapshotIsConsistent) {
  // stats() returns a snapshot by value; concurrent readers must never see
  // negative derived quantities.
  RunCache cache;
  std::atomic<bool> stop{false};
  std::atomic<int> inconsistencies{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      RunCache::Stats stats = cache.stats();
      if (stats.entries < 0 || stats.bytes < 0 ||
          stats.HitRate() < 0.0 || stats.HitRate() > 1.0) {
        ++inconsistencies;
      }
    }
  });

  for (int i = 0; i < 500; ++i) {
    TestResult result;
    result.passed = true;
    cache.Insert("t", "p" + std::to_string(i), 0, true, result);
    TestResult out;
    cache.Lookup("t", "p" + std::to_string(i / 2), 0, &out);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(inconsistencies.load(), 0);
}

}  // namespace
}  // namespace zebra
