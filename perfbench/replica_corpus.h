// The replicated corpus: K seed-distinct copies of every corpus unit test.
//
// A replica runs its original's body under a new id. TestContext seeds each
// execution's RNG from the test id, and the run cache keys on it, so a
// replica is an independent draw of the same physics with its own cache
// entries: K copies give K times the work units without changing what any
// unit test does. The workload seed reaches the campaign only through these
// ids. Every replica body runs inside an ExecScope, which counts (and, in the
// traced run, times) each real execution.

#ifndef PERFBENCH_REPLICA_CORPUS_H_
#define PERFBENCH_REPLICA_CORPUS_H_

#include <cstdint>
#include <string>

#include "perfbench/span_recorder.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra::perfbench {

// The id suffix of replica `copy` under `seed`: "_r<copy>_<16 hex digits>".
std::string ReplicaSuffix(uint64_t seed, int copy);

// Builds `copies` replicas of every test of `base`, replica-major (the whole
// base corpus once per copy, in registration order), so the canonical unit
// order within an app is copy 0's tests, then copy 1's, and so on. The test
// at index i of the result counts under ledger slot i. With
// `keep_ids` (only valid for one copy) the replicas keep the base ids: the
// wrapper alone, which the transparency self-check compares against `base`.
UnitTestRegistry ReplicateCorpus(const UnitTestRegistry& base, int copies,
                                 uint64_t seed, bool keep_ids, Ledger& ledger);

}  // namespace zebra::perfbench

#endif  // PERFBENCH_REPLICA_CORPUS_H_
