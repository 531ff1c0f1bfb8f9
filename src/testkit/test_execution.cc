#include "src/testkit/test_execution.h"

#include <unistd.h>

#include <atomic>
#include <chrono>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/testkit/run_cache.h"

namespace zebra {

namespace {
// Thread-local: each thread-pool worker owns its installation window, just
// as each forked worker owns its process-global copy.
thread_local std::vector<double>* g_duration_collector = nullptr;
// Process-wide bench knob, set before any worker starts; atomic so worker
// threads may read it while a bench harness toggles between regimes.
std::atomic<int64_t> g_synthetic_run_latency_us{0};
}  // namespace

void SetRunDurationCollector(std::vector<double>* collector) {
  g_duration_collector = collector;
}

void SetSyntheticRunLatencyUs(int64_t micros) {
  g_synthetic_run_latency_us.store(micros < 0 ? 0 : micros,
                                   std::memory_order_relaxed);
}

int64_t SyntheticRunLatencyUs() {
  return g_synthetic_run_latency_us.load(std::memory_order_relaxed);
}

namespace {

// One real execution: the synthetic latency, the body under a `mode`
// session, and the duration sample. Fills passed/failure/report and returns
// whether the body drew from its trial-seeded RNG.
bool Execute(const UnitTestDef& test, const TestPlan& plan, uint64_t trial,
             SessionMode mode, TestResult* result) {
  auto start = std::chrono::steady_clock::now();
  if (int64_t latency_us = SyntheticRunLatencyUs(); latency_us > 0) {
    ::usleep(static_cast<useconds_t>(latency_us));
  }
  // Fold the plan into the trial seed: in a real system, nondeterminism is
  // independent across runs with different configurations; re-running the
  // same (test, plan, trial) triple stays reproducible.
  uint64_t effective_trial = HashCombine(trial, plan.DescribeSeed());
  ConfAgentSession session(&plan, mode);
  TestContext context(test.id, effective_trial);
  try {
    test.body(context);
    result->passed = true;
  } catch (const std::exception& e) {
    result->passed = false;
    result->failure = e.what();
    ZLOG_DEBUG << test.id << " failed: " << result->failure;
  }
  result->report = session.End();
  if (g_duration_collector != nullptr) {
    g_duration_collector->push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  return context.TrialSensitive();
}

}  // namespace

std::shared_ptr<const TestResult> RunUnitTestShared(const UnitTestDef& test,
                                                    const TestPlan& plan,
                                                    uint64_t trial) {
  // Two distinct identities: DescribeSeed() (the hash of Describe()) seeds
  // the per-trial RNG (stable by contract — changing it would re-roll seeded
  // nondeterminism campaign-wide), while Fingerprint() additionally covers
  // extra_overrides and is the cache identity, so plans differing only in
  // dependency overrides never alias. Both are memoized on the plan, so a
  // caller re-running the same plan object pays for them once.
  const std::string& plan_fp = plan.Fingerprint();

  // Memoization: identical (test, plan, trial) triples are reproducible by
  // construction, so a cached result is exactly what a fresh execution would
  // return. Cache hits record no duration — nothing actually ran.
  RunCache* cache = GlobalRunCache();
  if (cache != nullptr) {
    // Shared lookup: the payload's ownership is shared out under the cache
    // lock, so the result stays valid past any other worker's insert without
    // a deep copy.
    if (std::shared_ptr<const TestResult> cached =
            cache->LookupShared(test.id, plan_fp, trial)) {
      return cached;
    }
  }

  auto result = std::make_shared<TestResult>();
  const bool trial_sensitive =
      Execute(test, plan, trial, SessionMode::kRecord, result.get());
  if (cache != nullptr) {
    // The cache shares this exact payload across its key aliases — the
    // insert allocates no TestResult copy.
    cache->Insert(test.id, plan_fp, trial,
                  /*trial_insensitive=*/!trial_sensitive, result);
  }
  return result;
}

RunVerdict RunUnitTestVerdict(const UnitTestDef& test, const TestPlan& plan,
                              uint64_t trial) {
  if (GlobalRunCache() != nullptr) {
    // The cache stores (and may persist) what this execution records, so it
    // must record everything.
    std::shared_ptr<const TestResult> result = RunUnitTestShared(test, plan, trial);
    return RunVerdict{result->passed, result->failure};
  }
  TestResult result;
  Execute(test, plan, trial, SessionMode::kVerdict, &result);
  return RunVerdict{result.passed, std::move(result.failure)};
}

TestResult RunUnitTest(const UnitTestDef& test, const TestPlan& plan, uint64_t trial) {
  return *RunUnitTestShared(test, plan, trial);
}

}  // namespace zebra
