// RunUnitTest: executes one corpus unit test under a ConfAgent session with a
// given test plan, converting assertion failures and application errors into
// a TestResult (the atomic operation everything in the ZebraConf pipeline is
// built from).
//
// Two entry points, split by what the caller consumes:
//   RunUnitTest / RunUnitTestShared — the full TestResult, SessionReport
//     included. The pre-run (test generation reads its per-entity read sets)
//     and dependency mining use these.
//   RunUnitTestVerdict — pass/fail and the failure message only. The
//     dynamic-phase verdicts (pooling, bisection, coupling, TestRunner) use
//     this; without a run cache the session skips per-read recording.

#ifndef SRC_TESTKIT_TEST_EXECUTION_H_
#define SRC_TESTKIT_TEST_EXECUTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/conf/conf_agent.h"
#include "src/conf/test_plan.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {

struct TestResult {
  bool passed = false;
  std::string failure;    // first failure message (empty when passed)
  SessionReport report;   // what ConfAgent observed during the run
};

// Runs `test` with `plan` injected through ConfAgent. `trial` seeds the
// test-local RNG, so re-running with a different trial re-rolls any seeded
// nondeterminism. Exactly one execution may run at a time (ConfAgent sessions
// are serialized). The plan is borrowed for the duration of the call and not
// mutated.
TestResult RunUnitTest(const UnitTestDef& test, const TestPlan& plan, uint64_t trial);

// Allocation-lean variant: a run-cache hit returns the cached payload by
// refcount bump (no TestResult deep copy), and a real execution's result is
// inserted into the cache and returned through the same shared payload. The
// pointee is immutable and safe to share across threads; it is never null.
// Always records the full report.
std::shared_ptr<const TestResult> RunUnitTestShared(const UnitTestDef& test,
                                                    const TestPlan& plan,
                                                    uint64_t trial);

// What a verdict consumer sees of one execution.
struct RunVerdict {
  bool passed = false;
  std::string failure;  // first failure message (empty when passed)
};

// Runs `test` with `plan` like RunUnitTestShared and returns only the
// verdict, which is identical to RunUnitTestShared's passed/failure. With no
// run cache installed the execution runs a SessionMode::kVerdict session (no
// reads/uncertain_params recording). With a cache installed it
// takes the full path, so every cached payload carries a complete report.
RunVerdict RunUnitTestVerdict(const UnitTestDef& test, const TestPlan& plan,
                              uint64_t trial);

// Installs a collector that receives the wall-clock duration (seconds) of
// every subsequent *real* RunUnitTest execution (run-cache hits execute
// nothing and record nothing); pass nullptr to uninstall. Used by the
// campaign to feed the fleet cost model.
//
// Ownership and threading model: the collector pointer is thread-local.
// Exactly one campaign engine per thread may install it at a time, and the
// installer must uninstall (nullptr) before the pointed-to vector dies.
// Campaign::RunUnit installs a collector scoped to the unit it is executing,
// so each thread-pool worker thread and each fabric agent worker records
// only its own executions and fleet-model inputs stay per-run-accurate.
void SetRunDurationCollector(std::vector<double>* collector);

// Simulated per-run harness latency, in microseconds (default 0 = off).
// The paper's unit-test runs cost seconds of wall-clock each, dominated by
// harness waits (startup, RPC timeouts) rather than CPU; our miniature runs
// cost microseconds. Benchmarks set a nonzero latency to restore the paper's
// cost shape — every *real* execution sleeps this long inside its timed
// window, while run-cache hits (which execute nothing) skip it. Sleeping
// (not spinning) is deliberate: it models waits, which parallel workers
// overlap even on a single CPU, exactly as the paper's containers overlap
// I/O-bound test runs. Process-global; forked fabric agents inherit the
// value set before the fork. Never set this in correctness tests.
void SetSyntheticRunLatencyUs(int64_t micros);
int64_t SyntheticRunLatencyUs();

}  // namespace zebra

#endif  // SRC_TESTKIT_TEST_EXECUTION_H_
