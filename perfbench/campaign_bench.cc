// Campaign benchmark driver: whole ZebraConf campaigns on a replicated
// corpus, timed end to end, checked against the sequential oracle, and — in
// the traced run — split into layers. perfbench/README.md documents the
// workloads, the metrics and why each exists; perfbench/run.py builds this
// binary and runs it:
//
//   campaign_bench --workload native|paper-cost|fabric --seed N
//                  --seconds S --trace 0|1 [--out-dir DIR]
//
// Every figure is taken from outside the program: the unit-test bodies are
// wrapped (replica_corpus.h), public layer functions are called directly,
// and CampaignReport counters are read. The last line of standard output is
// one JSON object {correct, attempted, failed, metrics}.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/replica_corpus.h"
#include "perfbench/span_recorder.h"
#include "src/analysis/static_prior.h"
#include "src/apps/appcommon/common_schema.h"
#include "src/apps/minidfs/dfs_schema.h"
#include "src/apps/minikv/kv_schema.h"
#include "src/apps/minimr/mr_schema.h"
#include "src/apps/ministream/stream_schema.h"
#include "src/apps/miniyarn/yarn_schema.h"
#include "src/common/error.h"
#include "src/conf/conf_agent.h"
#include "src/conf/configuration.h"
#include "src/core/campaign.h"
#include "src/core/campaign_executor.h"
#include "src/core/campaign_journal.h"
#include "src/core/fabric_wire.h"
#include "src/core/report_io.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/ground_truth.h"
#include "src/testkit/run_cache.h"
#include "src/testkit/test_execution.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Allocation interposer. Counts only while the traced campaign runs (the
// pointer is null otherwise); the counters live in the shared ledger, so a
// forked fabric agent's allocations are counted too. Each thread batches its
// counts locally and publishes every kAllocBatch allocations, so worker
// threads do not contend on one cache line; at most kAllocBatch - 1 per
// thread go unpublished, against tens of millions counted.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::atomic<uint64_t>*> g_alloc_counters{nullptr};

constexpr uint64_t kAllocBatch = 1024;
thread_local uint64_t t_pending_allocs = 0;
thread_local uint64_t t_pending_bytes = 0;

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (std::atomic<uint64_t>* counters =
          g_alloc_counters.load(std::memory_order_relaxed)) {
    t_pending_bytes += size;
    if (++t_pending_allocs == kAllocBatch) {
      counters[0].fetch_add(t_pending_allocs, std::memory_order_relaxed);
      counters[1].fetch_add(t_pending_bytes, std::memory_order_relaxed);
      t_pending_allocs = t_pending_bytes = 0;
    }
  }
  if (size == 0) {
    size = 1;
  }
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(size);
  }
  void* ptr = nullptr;
  return posix_memalign(&ptr, align, size) == 0 ? ptr : nullptr;
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  if (void* ptr = CountedAlloc(size, align)) {
    return ptr;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace zebra::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads (README.md records why each exists). One campaign at a time,
// from one process, with at most four threads or processes executing.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  ExecutorKind engine;
  int workers;       // thread-pool threads, or single-threaded fabric agents
  int replicas;      // K copies of the 79-test corpus
  bool run_cache;
  bool static_prior; // zebralint prior with the coupling add-on
  bool journal;      // group-committed journal in the output directory
  int64_t latency_us;
};

constexpr int kJournalSyncBatch = 64;

const Workload kWorkloads[] = {
    {"native", ExecutorKind::kThreadPool, 4, 128, false, false, false, 0},
    // 2 ms rather than bench_parallel_scaling's 500 us: a VM's sleep wake-up
    // jitter (100-400 us per sleep) is then a small share of each wait.
    {"paper-cost", ExecutorKind::kThreadPool, 4, 8, true, true, true, 2000},
    {"fabric", ExecutorKind::kDistributed, 3, 64, false, false, false, 0},
};

// Set-up is repeated this often per run; setup_s is the median.
constexpr int kSetupRepeats = 15;

// Fewest timed campaigns per run, however long they take.
constexpr size_t kMinSamples = 3;

// Span buffer: room for a traced engine campaign plus the sequential unit
// driver on the largest workload, with headroom.
constexpr size_t kSpanCapacity = size_t{1} << 21;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// ---------------------------------------------------------------------------
// Set-up: schema, corpus, replicas and (per workload) the static prior.
// ---------------------------------------------------------------------------

struct Setup {
  std::unique_ptr<ConfSchema> schema;
  UnitTestRegistry corpus;
  std::vector<std::string> names;  // test id per ledger slot
  std::unique_ptr<analysis::StaticPriorReport> prior;
  double analyze_s = 0.0;
};

std::unique_ptr<ConfSchema> BuildSchema() {
  auto schema = std::make_unique<ConfSchema>();
  RegisterCommonSchema(*schema);
  RegisterMiniDfsSchema(*schema);
  RegisterMiniMrSchema(*schema);
  RegisterMiniYarnSchema(*schema);
  RegisterMiniStreamSchema(*schema);
  RegisterMiniKvSchema(*schema);
  return schema;
}

// The FullCorpus() registration order.
UnitTestRegistry BuildBaseCorpus() {
  UnitTestRegistry corpus;
  RegisterMiniDfsCorpus(corpus);
  RegisterMiniMrCorpus(corpus);
  RegisterMiniYarnCorpus(corpus);
  RegisterMiniStreamCorpus(corpus);
  RegisterMiniKvCorpus(corpus);
  RegisterAppToolsCorpus(corpus);
  return corpus;
}

Setup BuildSetup(const Workload& workload, uint64_t seed, Ledger& ledger) {
  Setup setup;
  setup.schema = BuildSchema();
  setup.corpus = ReplicateCorpus(BuildBaseCorpus(), workload.replicas, seed,
                                 /*keep_ids=*/false, ledger);
  for (const UnitTestDef& test : setup.corpus.tests()) {
    setup.names.push_back(test.id);
  }
  if (workload.static_prior) {
    int64_t start = MonotonicNs();
    analysis::StaticAnalyzer analyzer;
    // The benchmark runs from the checkout root; the prior is computed from
    // the sources being benchmarked.
    if (analyzer.AddTree(".") == 0) {
      throw Error("perfbench: no sources under ./src to analyze");
    }
    setup.prior = std::make_unique<analysis::StaticPriorReport>(
        analyzer.Analyze(setup.schema.get()));
    setup.analyze_s = Seconds(MonotonicNs() - start);
  }
  return setup;
}

CampaignOptions OptionsFor(const Workload& workload, const Setup& setup) {
  CampaignOptions options;
  options.enable_run_cache = workload.run_cache;
  options.static_prior = setup.prior.get();
  return options;
}

ExecutorOptions ExecutorFor(const Workload& workload,
                            const std::string& journal_path) {
  ExecutorOptions exec;
  exec.workers = workload.workers;
  if (workload.journal) {
    exec.journal_path = journal_path;
    exec.journal_sync_batch = kJournalSyncBatch;
  }
  return exec;
}

// ---------------------------------------------------------------------------
// The oracle gate.
// ---------------------------------------------------------------------------

// The determinism contract's part of a report: findings, Table-5 stage
// counts and runs_to_first_detection, serialized with the scheduling-,
// cache- and fault-dependent accounting cleared (as bench_hot_path's
// --ci-gate does). Poisoned units stay: a poisoned unit fails the gate.
std::string ContractText(CampaignReport report) {
  report.wall_seconds = 0;
  report.cache_hits = report.cache_misses = 0;
  report.equiv_hits = report.canonicalized_plans = 0;
  report.mispredictions = report.cache_evictions = 0;
  report.hung_workers = report.requeued_units = report.resumed_units = 0;
  report.cache_load_failures = report.journal_append_failures = 0;
  report.agent_disconnects = report.expired_leases = 0;
  report.duplicate_results = 0;
  report.run_durations_seconds.clear();
  return SerializeReport(report);
}

int CountTrueFindings(const CampaignReport& report) {
  int true_findings = 0;
  for (const auto& [param, finding] : report.findings) {
    (void)finding;
    true_findings += IsExpectedUnsafe(param) ||
                             ProbabilisticUnsafeParams().count(param) > 0
                         ? 1
                         : 0;
  }
  return true_findings;
}

// Every campaign here covers all apps, so every expected parameter is in
// scope.
int MissedInScope(const CampaignReport& report) {
  int missed = 0;
  for (const auto& [param, why] : ExpectedUnsafeParams()) {
    (void)why;
    missed += report.findings.count(param) == 0 ? 1 : 0;
  }
  return missed;
}

struct Oracle {
  std::string contract;
  int64_t executions = 0;
  std::vector<int64_t> per_test;
};

bool PassesGate(const CampaignReport& report, const Oracle& oracle,
                const char* what) {
  if (ContractText(report) != oracle.contract) {
    std::printf("GATE FAIL: %s differs from the sequential oracle\n", what);
    return false;
  }
  if (int missed = MissedInScope(report); missed != 0) {
    std::printf("GATE FAIL: %s missed %d expected unsafe parameters\n", what,
                missed);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// One campaign, measured from outside.
// ---------------------------------------------------------------------------

struct ResourceUse {
  double cpu_s = 0;
  long children_maxrss_kb = 0;
};

ResourceUse ReadResourceUse() {
  auto cpu = [](const rusage& usage) {
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
               1e6;
  };
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return ResourceUse{cpu(self) + cpu(children), children.ru_maxrss};
}

long ReadHighWaterKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// Returns freed heap to the kernel and restarts the peak-RSS counter, so
// each campaign's peak is its own. Without clear_refs the peak is the
// process lifetime's.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);
    std::fclose(refs);
  }
}

struct Sample {
  double campaign_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  int64_t executions = 0;
  int64_t coordinator_execs = 0;
  std::vector<int64_t> per_test;
  int64_t units = 0;
  int64_t failed = 0;  // poisoned units + requeued attempts (+ all units on
                       // a gate failure)
  bool gate_ok = true;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  CampaignReport report;
};

Sample RunCampaign(ExecutorKind kind, const ExecutorOptions& exec,
                   const Workload& workload, const Setup& setup, Ledger& ledger,
                   const Oracle& oracle, bool traced, const char* what) {
  Sample sample;
  const size_t slots = setup.corpus.tests().size();
  std::unique_ptr<CampaignExecutor> executor = MakeExecutor(kind);
  CampaignOptions options = OptionsFor(workload, setup);
  ResetPeakRss();
  ledger.ResetCounts();
  std::atomic<uint64_t>* alloc = ledger.alloc_counters();
  if (traced) {
    ledger.ResetSpans();
    alloc[0] = alloc[1] = 0;
    ledger.set_tracing(true);
    g_alloc_counters.store(alloc, std::memory_order_relaxed);
  }
  ResourceUse before = ReadResourceUse();
  int64_t start = MonotonicNs();
  {
    ScopedSpan run(ledger, SpanKind::kRun);
    ledger.set_root_span(run.id());
    sample.report = executor->Run(*setup.schema, setup.corpus,
                                  std::move(options), exec);
  }
  int64_t end = MonotonicNs();
  ResourceUse after = ReadResourceUse();
  g_alloc_counters.store(nullptr, std::memory_order_relaxed);
  ledger.set_tracing(false);

  sample.campaign_s = Seconds(end - start);
  sample.cpu_s = after.cpu_s - before.cpu_s;
  sample.peak_rss_mb =
      static_cast<double>(std::max(ReadHighWaterKb(), after.children_maxrss_kb)) /
      1024.0;
  sample.per_test = ledger.ExecCounts(slots);
  for (int64_t count : sample.per_test) {
    sample.executions += count;
  }
  sample.coordinator_execs = ledger.CoordinatorExecs();
  sample.allocs = alloc[0];
  sample.alloc_bytes = alloc[1];
  sample.units = static_cast<int64_t>(slots);
  sample.gate_ok = PassesGate(sample.report, oracle, what);
  sample.failed = static_cast<int64_t>(sample.report.poisoned_units.size()) +
                  sample.report.requeued_units +
                  (sample.gate_ok ? 0 : sample.units);
  // The duration profile holds a double per execution; kept samples must not
  // grow the heap the next campaign's peak RSS is read from.
  std::vector<double>().swap(sample.report.run_durations_seconds);
  return sample;
}

// The sequential oracle: same corpus and options, no synthetic latency
// (latency never changes a result). Counts executions per test for the
// wasted-work metrics.
Oracle ComputeOracle(const Workload& workload, const Setup& setup,
                     Ledger& ledger) {
  int64_t latency = SyntheticRunLatencyUs();
  SetSyntheticRunLatencyUs(0);
  ledger.ResetCounts();
  CampaignReport report = MakeExecutor(ExecutorKind::kSequential)
                              ->Run(*setup.schema, setup.corpus,
                                    OptionsFor(workload, setup), ExecutorOptions{});
  SetSyntheticRunLatencyUs(latency);
  Oracle oracle;
  oracle.contract = ContractText(report);
  oracle.per_test = ledger.ExecCounts(setup.corpus.tests().size());
  for (int64_t count : oracle.per_test) {
    oracle.executions += count;
  }
  return oracle;
}

// Transparency self-check: the replica wrapper with K=1 and the corpus's own
// ids must reproduce the plain FullCorpus() campaign bit for bit, with every
// expected parameter found.
bool WrapperIsTransparent(Ledger& ledger) {
  CampaignReport plain =
      MakeExecutor(ExecutorKind::kSequential)
          ->Run(FullSchema(), FullCorpus(), CampaignOptions{}, ExecutorOptions{});
  UnitTestRegistry wrapped = ReplicateCorpus(FullCorpus(), 1, 0, true, ledger);
  CampaignReport replica =
      MakeExecutor(ExecutorKind::kSequential)
          ->Run(FullSchema(), wrapped, CampaignOptions{}, ExecutorOptions{});
  plain.wall_seconds = replica.wall_seconds = 0;
  plain.run_durations_seconds.clear();
  replica.run_durations_seconds.clear();
  const int true_findings = CountTrueFindings(replica);
  const int missed = MissedInScope(replica);
  const bool same = SerializeReport(plain) == SerializeReport(replica);
  std::printf("self-check: K=1 wrapper %s the plain corpus: %zu findings "
              "(%d true, %zu false positive, %d missed in scope)\n",
              same ? "reproduces" : "DIFFERS FROM", replica.findings.size(),
              true_findings, replica.findings.size() - true_findings, missed);
  return same && missed == 0;
}

// ---------------------------------------------------------------------------
// The traced run's extra drivers and micro-arms.
// ---------------------------------------------------------------------------

// Campaign::Run's fold, driven unit by unit through Campaign::RunUnit and
// CampaignFolder so each unit gets a span. Sequential, so its wall clock is
// the speed-up baseline.
struct DriverRun {
  CampaignReport report;
  double wall_s = 0;
  std::vector<std::string> serialized_units;  // codec micro-arm inputs
};

DriverRun RunUnitDriver(const Workload& workload, const Setup& setup,
                        Ledger& ledger) {
  DriverRun run;
  Campaign engine(*setup.schema, setup.corpus, OptionsFor(workload, setup));
  CampaignFolder folder(*setup.schema, engine.options());
  const UnitTestDef* first = setup.corpus.tests().data();
  int64_t start = MonotonicNs();
  {
    ScopedSpan run_span(ledger, SpanKind::kRun);
    size_t index = 0;
    for (const std::string& app : engine.options().apps) {
      std::vector<const UnitTestDef*> tests = setup.corpus.ForApp(app);
      folder.BeginApp(app, engine.generator().OriginalInstanceCount(app),
                      engine.generator().StaticPrunedInstanceCount(app),
                      static_cast<int>(tests.size()));
      for (const UnitTestDef* test : tests) {
        UnitWorkResult unit;
        {
          ScopedSpan unit_span(ledger, SpanKind::kUnit,
                               static_cast<uint32_t>(test - first));
          unit = engine.RunUnit(*test, folder.globally_unsafe());
        }
        if (run.serialized_units.size() < 64) {
          run.serialized_units.push_back(SerializeUnitResult(index, unit));
        }
        folder.Fold(unit);
        ++index;
      }
    }
  }
  run.wall_s = Seconds(MonotonicNs() - start);
  run.report = folder.Finish();
  return run;
}

// Median over `repeats` repetitions of the per-operation time of `body`.
template <typename Body>
double NsPerOp(Body&& body, int iterations, int repeats = 5) {
  std::vector<double> per_op;
  for (int rep = 0; rep < repeats; ++rep) {
    int64_t start = MonotonicNs();
    for (int i = 0; i < iterations; ++i) {
      body(i);
    }
    per_op.push_back(static_cast<double>(MonotonicNs() - start) / iterations);
  }
  return Median(per_op);
}

struct HarnessArm {
  double harness_us_per_exec = 0;
  double reads_per_exec = 0;
};

// RunUnitTest's own cost: its wall time minus the body's, over one replica
// of every corpus test with an empty plan and no cache or latency.
HarnessArm MeasureHarness(const Setup& setup, Ledger& ledger) {
  const int64_t latency = SyntheticRunLatencyUs();
  SetSyntheticRunLatencyUs(0);
  const size_t n = FullCorpus().tests().size();
  const TestPlan empty;
  std::vector<double> harness_us;
  int64_t reads = 0;
  ledger.set_tracing(true);
  for (int rep = 0; rep < 5; ++rep) {
    const uint32_t first_span = ledger.next_id();
    reads = 0;
    int64_t start = MonotonicNs();
    for (size_t i = 0; i < n; ++i) {
      TestResult result = RunUnitTest(setup.corpus.tests()[i], empty, 0);
      for (const auto& [entity, params] : result.report.reads) {
        (void)entity;
        reads += static_cast<int64_t>(params.size());
      }
    }
    int64_t total = MonotonicNs() - start;
    int64_t body = 0;
    for (const Span& span : ledger.Spans(first_span)) {
      body += span.end_ns - span.start_ns;
    }
    harness_us.push_back(static_cast<double>(total - body) / 1e3 /
                         static_cast<double>(n));
  }
  ledger.set_tracing(false);
  SetSyntheticRunLatencyUs(latency);
  return HarnessArm{Median(harness_us),
                    static_cast<double>(reads) / static_cast<double>(n)};
}

// Configuration::Get inside a ConfAgent session (the unit-test regime).
volatile size_t g_conf_sink = 0;

double MeasureConfGet() {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Set("dfs.namenode.replication.considerLoad.factor", "3.5");
  size_t bytes = 0;
  double ns = NsPerOp(
      [&](int) {
        bytes += conf.Get("dfs.namenode.replication.considerLoad.factor", "2.0")
                     .size();
      },
      200000);
  session.End();
  g_conf_sink = bytes;
  return ns;
}

struct CacheArm {
  double lookup_ns = 0;
  double insert_ns = 0;
};

// RunCache insert and hit-lookup cost over distinct plan fingerprints of a
// realistic length.
CacheArm MeasureCache() {
  constexpr int kKeys = 20000;
  const std::string test_id = "minidfs.TestReplicationPolicy_r0_0123456789abcdef";
  std::vector<std::string> plans;
  for (int i = 0; i < kKeys; ++i) {
    plans.push_back("dfs.namenode.replication.considerLoad.factor=G[DataNode:3.5|2.0] #" +
                    std::to_string(i));
  }
  auto payload = std::make_shared<const TestResult>();
  CacheArm arm;
  std::vector<double> insert_ns;
  std::unique_ptr<RunCache> cache;
  for (int rep = 0; rep < 5; ++rep) {
    cache = std::make_unique<RunCache>();
    int64_t start = MonotonicNs();
    for (int i = 0; i < kKeys; ++i) {
      cache->Insert(test_id, plans[i], 0, /*trial_insensitive=*/false, payload);
    }
    insert_ns.push_back(static_cast<double>(MonotonicNs() - start) / kKeys);
  }
  arm.insert_ns = Median(insert_ns);
  int64_t hits = 0;
  arm.lookup_ns = NsPerOp(
      [&](int i) { hits += cache->LookupShared(test_id, plans[i], 0) ? 1 : 0; },
      kKeys);
  if (hits != 5 * kKeys) {
    throw Error("perfbench: run-cache micro-arm missed a stored key");
  }
  return arm;
}

struct FabricArm {
  double frame_rtt_us = 0;
  double batch_codec_ns = 0;
};

// A batched frame's round trip over a socketpair (write, read, echo, read)
// and the batch record codec, on serialized unit results.
FabricArm MeasureFabricCodec(const std::vector<std::string>& records) {
  FabricArm arm;
  if (records.empty()) {
    return arm;
  }
  std::string frame;
  for (size_t i = 0; i < records.size() && i < 8; ++i) {
    AppendBatchRecord(&frame, records[i]);
  }
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw Error("perfbench: socketpair failed");
  }
  bool ok = true;
  FabricMsg type;
  std::string received;
  std::string echoed;
  arm.frame_rtt_us =
      NsPerOp(
          [&](int) {
            ok = ok && WriteFabricFrame(fds[0], FabricMsg::kResultBatch, frame) &&
                 ReadFabricFrame(fds[1], &type, &received) == FabricRead::kOk &&
                 WriteFabricFrame(fds[1], FabricMsg::kDispatchBatch, received) &&
                 ReadFabricFrame(fds[0], &type, &echoed) == FabricRead::kOk;
          },
          2000) /
      1e3;
  close(fds[0]);
  close(fds[1]);
  if (!ok || echoed != frame) {
    throw Error("perfbench: fabric frame micro-arm corrupted a frame");
  }
  std::string payload;
  std::vector<std::string> decoded;
  arm.batch_codec_ns =
      NsPerOp(
          [&](int) {
            payload.clear();
            for (const std::string& record : records) {
              AppendBatchRecord(&payload, record);
            }
            ok = ok && DecodeBatchRecords(payload, &decoded);
          },
          2000) /
      static_cast<double>(records.size());
  if (!ok || decoded != records) {
    throw Error("perfbench: batch codec micro-arm lost a record");
  }
  return arm;
}

// ---------------------------------------------------------------------------
// Trace analysis.
// ---------------------------------------------------------------------------

struct ExecProfile {
  int64_t count = 0;
  int64_t failed = 0;
  double busy_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double busy_max_s = 0;
  double busy_min_s = 0;
};

ExecProfile ProfileExecs(const std::vector<Span>& spans) {
  ExecProfile profile;
  std::vector<double> durations_us;
  std::map<std::pair<int32_t, int32_t>, double> busy_by_track;
  for (const Span& span : spans) {
    if (span.kind != SpanKind::kExec) {
      continue;
    }
    double seconds = Seconds(span.end_ns - span.start_ns);
    durations_us.push_back(seconds * 1e6);
    profile.busy_s += seconds;
    profile.failed += span.failed ? 1 : 0;
    busy_by_track[{span.pid, span.tid}] += seconds;
  }
  std::sort(durations_us.begin(), durations_us.end());
  profile.count = static_cast<int64_t>(durations_us.size());
  profile.p50_us = Percentile(durations_us, 0.50);
  profile.p99_us = Percentile(durations_us, 0.99);
  bool first = true;
  for (const auto& [track, busy] : busy_by_track) {
    (void)track;
    profile.busy_max_s = first ? busy : std::max(profile.busy_max_s, busy);
    profile.busy_min_s = first ? busy : std::min(profile.busy_min_s, busy);
    first = false;
  }
  return profile;
}

struct UnitProfile {
  double p50_ms = 0;
  double p99_ms = 0;
  double total_s = 0;
  double self_s = 0;  // unit spans minus the bodies they contain
};

UnitProfile ProfileUnits(const std::vector<Span>& spans) {
  UnitProfile profile;
  std::map<uint32_t, int64_t> unit_ns;
  int64_t child_ns = 0;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kUnit) {
      unit_ns[span.id] = span.end_ns - span.start_ns;
    }
  }
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kExec && unit_ns.count(span.parent) > 0) {
      child_ns += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> ms;
  int64_t total_ns = 0;
  for (const auto& [id, ns] : unit_ns) {
    (void)id;
    ms.push_back(static_cast<double>(ns) / 1e6);
    total_ns += ns;
  }
  std::sort(ms.begin(), ms.end());
  profile.p50_ms = Percentile(ms, 0.50);
  profile.p99_ms = Percentile(ms, 0.99);
  profile.total_s = Seconds(total_ns);
  profile.self_s = Seconds(total_ns - child_ns);
  return profile;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetricValue(double value) {
  if (!std::isfinite(value)) {
    std::printf("0");
  } else if (value == std::floor(value) && std::fabs(value) < 9e15) {
    std::printf("%" PRId64, static_cast<int64_t>(value));
  } else {
    std::printf("%.17g", value);
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\nmetrics:\n");
  for (const Metric& metric : metrics) {
    std::printf("  %-34s ", metric.name.c_str());
    PrintMetricValue(metric.value);
    std::printf(" %s\n", metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics[i].name.c_str());
    PrintMetricValue(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload native|paper-cost|fabric "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) {
      workload = &candidate;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;

  std::printf("perfbench: workload=%s seed=%" PRIu64 " K=%d trace=%d "
              "engine=%s workers=%d nproc=%ld cpu=\"%s\" build=%s\n",
              workload->name, args.seed, workload->replicas, args.trace,
              ExecutorKindName(workload->engine), workload->workers,
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
              PERFBENCH_BUILD_TYPE);

  const size_t base_tests = FullCorpus().tests().size();
  Ledger ledger(base_tests * static_cast<size_t>(workload->replicas),
                kSpanCapacity);

  // ---- Set-up, repeated; the last build is the one that runs. -------------
  std::vector<double> setup_s;
  std::vector<double> analyze_s;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup = Setup{};
    int64_t start = MonotonicNs();
    setup = BuildSetup(*workload, args.seed, ledger);
    setup_s.push_back(Seconds(MonotonicNs() - start));
    analyze_s.push_back(setup.analyze_s);
  }
  const size_t units = setup.corpus.tests().size();
  std::printf("setup: %zu units, median %.4f s over %d builds\n", units,
              Median(setup_s), kSetupRepeats);

  // ---- Untimed: self-check, oracle, warm-up. ------------------------------
  bool correct = WrapperIsTransparent(ledger);
  const Oracle oracle = ComputeOracle(*workload, setup, ledger);
  std::printf("oracle: sequential, %" PRId64 " executions\n", oracle.executions);

  const std::string journal_path =
      args.out_dir + "/journal-" + std::to_string(getpid()) + ".zj";
  const ExecutorOptions exec = ExecutorFor(*workload, journal_path);
  SetSyntheticRunLatencyUs(workload->latency_us);

  int64_t attempted = 0;
  int64_t failed = 0;
  auto run = [&](bool span_trace, const char* what) {
    Sample sample = RunCampaign(workload->engine, exec, *workload, setup, ledger,
                                oracle, span_trace, what);
    attempted += sample.units;
    failed += sample.failed;
    correct = correct && sample.gate_ok;
    std::printf("  %-9s campaign %.4f s  cpu %.3f s  execs %" PRId64
                "  rss %.1f MB  findings %zu  gate %s\n",
                what, sample.campaign_s, sample.cpu_s, sample.executions,
                sample.peak_rss_mb, sample.report.findings.size(),
                sample.gate_ok ? "ok" : "FAIL");
    return sample;
  };
  run(false, "warm-up");

  // ---- The measurement window. --------------------------------------------
  std::vector<Metric> metrics;
  std::vector<Sample> samples;
  std::vector<Sample> traced_samples;
  const int64_t window_end =
      MonotonicNs() + static_cast<int64_t>(args.seconds) * 1000000000;
  do {
    samples.push_back(run(false, "timed"));
    if (traced) {
      traced_samples.push_back(run(true, "traced"));
    }
  } while (MonotonicNs() < window_end || samples.size() < kMinSamples);

  auto median_of = [](const std::vector<Sample>& list, auto field) {
    std::vector<double> values;
    for (const Sample& sample : list) {
      values.push_back(static_cast<double>(field(sample)));
    }
    return Median(values);
  };
  const double campaign_s =
      median_of(samples, [](const Sample& s) { return s.campaign_s; });

  if (!traced) {
    metrics = {
        {"campaign_s", campaign_s, "s"},
        {"cpu_s", median_of(samples, [](const Sample& s) { return s.cpu_s; }),
         "s"},
        {"executions",
         median_of(samples, [](const Sample& s) { return s.executions; }),
         "count"},
        {"peak_rss_mb",
         median_of(samples, [](const Sample& s) { return s.peak_rss_mb; }), "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    const Sample& sample = traced_samples.back();
    const CampaignReport& report = sample.report;
    const std::vector<Span> engine_spans = ledger.Spans();
    uint64_t dropped_spans = ledger.dropped();
    const double traced_s =
        median_of(traced_samples, [](const Sample& s) { return s.campaign_s; });

    // Sequential unit driver (same options and latency), traced.
    ledger.ResetSpans();
    ledger.set_tracing(true);
    DriverRun driver = RunUnitDriver(*workload, setup, ledger);
    ledger.set_tracing(false);
    const std::vector<Span> driver_spans = ledger.Spans();
    dropped_spans += ledger.dropped();
    const bool driver_ok = PassesGate(driver.report, oracle, "unit driver");
    correct = correct && driver_ok;
    attempted += static_cast<int64_t>(units);
    failed += driver_ok ? 0 : static_cast<int64_t>(units);

    // Fabric tax: the untraced fabric median against the thread pool's at the
    // fabric's worker count.
    double tax_s = 0;
    if (workload->engine == ExecutorKind::kDistributed) {
      ExecutorOptions pool;
      pool.workers = workload->workers;
      std::vector<Sample> baseline;
      for (size_t i = 0; i < kMinSamples; ++i) {
        baseline.push_back(RunCampaign(ExecutorKind::kThreadPool, pool, *workload,
                                       setup, ledger, oracle, false, "threadpool"));
        correct = correct && baseline.back().gate_ok;
        attempted += baseline.back().units;
        failed += baseline.back().failed;
      }
      const double pool_s =
          median_of(baseline, [](const Sample& s) { return s.campaign_s; });
      tax_s = campaign_s - pool_s;
      std::printf("fabric tax: %.4f s over threadpool@%d (%.4f s)\n", tax_s,
                  pool.workers, pool_s);
    }

    ledger.ResetSpans();
    const HarnessArm harness = MeasureHarness(setup, ledger);
    const double conf_get_ns = MeasureConfGet();
    const CacheArm cache = MeasureCache();
    const FabricArm fabric = MeasureFabricCodec(driver.serialized_units);

    int64_t journal_bytes = 0;
    int64_t journal_records = 0;
    if (workload->journal) {
      std::ifstream file(journal_path, std::ios::binary | std::ios::ate);
      journal_bytes = file ? static_cast<int64_t>(file.tellg()) : 0;
      CampaignJournal journal(
          journal_path,
          CampaignJournal::Fingerprint(Campaign(*setup.schema, setup.corpus,
                                                OptionsFor(*workload, setup))
                                           .options(),
                                       setup.corpus),
          /*resume=*/true);
      journal_records = static_cast<int64_t>(journal.recovered().size());
    }

    const std::string trace_path =
        args.out_dir + "/trace-" + workload->name + ".json";
    if (!WriteChromeTrace(trace_path,
                          {{"engine", engine_spans}, {"sequential", driver_spans}},
                          setup.names)) {
      std::printf("could not write %s\n", trace_path.c_str());
      correct = false;
    }

    const ExecProfile execs = ProfileExecs(engine_spans);
    const UnitProfile unit = ProfileUnits(driver_spans);
    const ExecProfile driver_execs = ProfileExecs(driver_spans);
    const int slots = workload->workers;
    const double slot_s = slots * sample.campaign_s;
    int64_t rerun_units = 0;
    for (size_t i = 0; i < units; ++i) {
      rerun_units += sample.per_test[i] > oracle.per_test[i] ? 1 : 0;
    }
    const int true_findings = CountTrueFindings(report);
    const double logical_runs = static_cast<double>(report.total_unit_test_runs);

    std::printf("\ntrace: %zu engine spans, %zu driver spans, %" PRIu64
                " dropped -> %s\n",
                engine_spans.size(), driver_spans.size(), dropped_spans,
                trace_path.c_str());
    std::printf("layer self time, traced %s campaign (%.3f s x %d slots):\n",
                ExecutorKindName(workload->engine), sample.campaign_s, slots);
    std::printf("  apps (unit-test bodies)          %8.3f s\n", execs.busy_s);
    std::printf("  everything else on worker slots  %8.3f s  (harness, ConfAgent, "
                "campaign, scheduler, idle)\n",
                slot_s - execs.busy_s);
    std::printf("layer self time, sequential unit driver (%.3f s):\n",
                driver.wall_s);
    std::printf("  apps (unit-test bodies)          %8.3f s\n", driver_execs.busy_s);
    std::printf("  campaign (units minus bodies)    %8.3f s\n", unit.self_s);
    std::printf("  fold + driver (run minus units)  %8.3f s\n",
                driver.wall_s - unit.total_s);
    std::printf("tracing overhead: %.4f s (traced %.4f s - untraced %.4f s)\n",
                traced_s - campaign_s, traced_s, campaign_s);

    const double executions = static_cast<double>(sample.executions);
    metrics = {
        {"apps.exec_count", static_cast<double>(execs.count), "count"},
        {"apps.exec_busy_s", execs.busy_s, "s"},
        {"apps.exec_p50_us", execs.p50_us, "us"},
        {"apps.exec_p99_us", execs.p99_us, "us"},
        {"apps.exec_fail_share",
         execs.count > 0 ? static_cast<double>(execs.failed) / execs.count : 0,
         "ratio"},
        {"apps.busy_share", slot_s > 0 ? execs.busy_s / slot_s : 0, "ratio"},
        {"testkit.harness_us_per_exec", harness.harness_us_per_exec, "us"},
        {"conf.reads_per_exec", harness.reads_per_exec, "count"},
        {"conf.get_ns", conf_get_ns, "ns"},
        {"cache.hits", static_cast<double>(report.cache_hits), "count"},
        {"cache.misses", static_cast<double>(report.cache_misses), "count"},
        {"cache.hit_ratio",
         report.cache_hits + report.cache_misses > 0
             ? static_cast<double>(report.cache_hits) /
                   static_cast<double>(report.cache_hits + report.cache_misses)
             : 0,
         "ratio"},
        {"cache.evictions", static_cast<double>(report.cache_evictions), "count"},
        {"cache.lookup_ns", cache.lookup_ns, "ns"},
        {"cache.insert_ns", cache.insert_ns, "ns"},
        {"campaign.logical_runs", logical_runs, "count"},
        {"campaign.after_prerun", static_cast<double>(report.TotalAfterPrerun()),
         "count"},
        {"campaign.after_uncertainty",
         static_cast<double>(report.TotalAfterUncertainty()), "count"},
        {"campaign.coupling_runs", static_cast<double>(report.coupling_runs),
         "count"},
        {"campaign.runs_to_first_detection",
         static_cast<double>(report.runs_to_first_detection), "count"},
        {"campaign.findings_true", static_cast<double>(true_findings), "count"},
        {"campaign.findings_false",
         static_cast<double>(report.findings.size()) - true_findings, "count"},
        {"campaign.unit_p50_ms", unit.p50_ms, "ms"},
        {"campaign.unit_p99_ms", unit.p99_ms, "ms"},
        {"campaign.unit_self_s", unit.self_s, "s"},
        {"sched.wasted_execs", executions - static_cast<double>(oracle.executions),
         "count"},
        {"sched.useful_ratio",
         executions > 0 ? static_cast<double>(oracle.executions) / executions : 0,
         "ratio"},
        {"sched.rerun_units", static_cast<double>(rerun_units), "count"},
        {"sched.worker_busy_max_s", execs.busy_max_s, "s"},
        {"sched.worker_busy_min_s", execs.busy_min_s, "s"},
        {"sched.idle_s", std::max(0.0, slot_s - execs.busy_s), "s"},
        {"sched.speedup_vs_sequential",
         sample.campaign_s > 0 ? driver.wall_s / sample.campaign_s : 0, "x"},
        {"fabric.coordinator_execs",
         workload->engine == ExecutorKind::kDistributed
             ? static_cast<double>(sample.coordinator_execs)
             : 0,
         "count"},
        {"fabric.expired_leases", static_cast<double>(report.expired_leases),
         "count"},
        {"fabric.agent_disconnects", static_cast<double>(report.agent_disconnects),
         "count"},
        {"fabric.duplicate_results", static_cast<double>(report.duplicate_results),
         "count"},
        {"fabric.tax_s", tax_s, "s"},
        {"fabric.frame_rtt_us", fabric.frame_rtt_us, "us"},
        {"fabric.batch_codec_ns", fabric.batch_codec_ns, "ns"},
        {"analysis.analyze_s", Median(analyze_s), "s"},
        {"analysis.never_read",
         setup.prior ? static_cast<double>(setup.prior->never_read.size()) : 0,
         "count"},
        {"analysis.coupling_sets",
         setup.prior ? static_cast<double>(setup.prior->coupling_sets.size()) : 0,
         "count"},
        {"journal.bytes", static_cast<double>(journal_bytes), "B"},
        {"journal.records", static_cast<double>(journal_records), "count"},
        {"alloc.per_logical_run",
         logical_runs > 0 ? static_cast<double>(sample.allocs) / logical_runs : 0,
         "1/run"},
        {"alloc.bytes_per_logical_run",
         logical_runs > 0 ? static_cast<double>(sample.alloc_bytes) / logical_runs
                          : 0,
         "B/run"},
        {"trace.overhead_s", traced_s - campaign_s, "s"},
        {"gate.failed_share",
         attempted > 0 ? static_cast<double>(failed) / attempted : 0, "ratio"},
    };
  }
  std::remove(journal_path.c_str());
  std::printf("failed_share: %" PRId64 " / %" PRId64 "\n", failed, attempted);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace zebra::perfbench

int main(int argc, char** argv) {
  try {
    return zebra::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
