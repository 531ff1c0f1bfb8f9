// Microbenchmarks of the Configuration hot path: Get/Has per-call cost in
// and out of a ConfAgent session. Every configuration read a unit test makes
// funnels through here, so per-call allocations multiply by the campaign's
// millions of intercepted reads.
//
// BM_ConfGet_MaterializedName reproduces the call shape before the
// string_view refactor (a std::string per call for the property-map key and
// a second by-value copy handed to InterceptGet); the delta against
// BM_ConfGet_* is the allocation cost the refactor removed. The in-session
// arm exercises the memoized InterceptGet path: after a parameter's first
// read in a session, its interned name id keys a per-session memo so repeat
// reads skip plan application and trace updates.
// Parameter names are realistic dotted identifiers well past small-string
// optimization, so each legacy materialization was a heap round-trip.
//
// Before the google-benchmark pass, main() times the same three Get arms
// directly and emits BENCH_conf_micro.json with ns/op per arm plus the
// memoized-vs-legacy delta, so the InterceptGet hot-path cost is tracked as
// a machine-readable artifact like every other bench.

#include <chrono>
#include <string>
#include <string_view>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/conf/conf_agent.h"
#include "src/conf/configuration.h"

namespace zebra {
namespace {

// 44 characters: representative of HDFS-style names, never SSO-resident.
constexpr std::string_view kParam =
    "dfs.namenode.replication.considerLoad.factor";
constexpr std::string_view kDefault = "2.0";

void BM_ConfGet_NoSession(benchmark::State& state) {
  Configuration conf;
  conf.Set(kParam, "3.5");
  for (auto _ : state) {
    benchmark::DoNotOptimize(conf.Get(kParam, kDefault));
  }
}
BENCHMARK(BM_ConfGet_NoSession);

void BM_ConfGet_InSession(benchmark::State& state) {
  // The unit-test regime: an active session interns the name once, then
  // repeat reads hit the pointer-keyed memo — no per-call materialization,
  // plan application, or trace mutation.
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Set(kParam, "3.5");
  for (auto _ : state) {
    benchmark::DoNotOptimize(conf.Get(kParam, kDefault));
  }
  session.End();
}
BENCHMARK(BM_ConfGet_InSession);

void BM_ConfGet_MaterializedName(benchmark::State& state) {
  // Pre-refactor call shape: GetStored built std::string(name) to probe the
  // non-transparent property map, and InterceptGet took the name by value —
  // two heap strings per read. Kept as the comparison arm.
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Set(kParam, "3.5");
  for (auto _ : state) {
    std::string map_key(kParam);
    std::string intercept_copy(kParam);
    benchmark::DoNotOptimize(map_key);
    benchmark::DoNotOptimize(conf.Get(intercept_copy, kDefault));
  }
  session.End();
}
BENCHMARK(BM_ConfGet_MaterializedName);

void BM_ConfHas_InSession(benchmark::State& state) {
  ConfAgentSession session(TestPlan{});
  Configuration conf;
  conf.Set(kParam, "3.5");
  for (auto _ : state) {
    benchmark::DoNotOptimize(conf.Has(kParam));
  }
  session.End();
}
BENCHMARK(BM_ConfHas_InSession);

// Best-of-R ns/op over a fixed iteration count: allocator and scheduler
// jitter at nanosecond scale make the minimum the honest per-call cost.
template <typename Body>
double MeasureNsPerOp(Body&& body, int iterations = 400000,
                      int repetitions = 5) {
  double best = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
      body();
    }
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count() /
                iterations;
    if (rep == 0 || ns < best) {
      best = ns;
    }
  }
  return best;
}

void WriteConfMicroJson() {
  double no_session_ns = 0;
  {
    Configuration conf;
    conf.Set(kParam, "3.5");
    no_session_ns = MeasureNsPerOp(
        [&] { benchmark::DoNotOptimize(conf.Get(kParam, kDefault)); });
  }

  double memoized_ns = 0;
  {
    ConfAgentSession session(TestPlan{});
    Configuration conf;
    conf.Set(kParam, "3.5");
    memoized_ns = MeasureNsPerOp(
        [&] { benchmark::DoNotOptimize(conf.Get(kParam, kDefault)); });
    session.End();
  }

  double legacy_ns = 0;
  {
    ConfAgentSession session(TestPlan{});
    Configuration conf;
    conf.Set(kParam, "3.5");
    legacy_ns = MeasureNsPerOp([&] {
      std::string map_key(kParam);
      std::string intercept_copy(kParam);
      benchmark::DoNotOptimize(map_key);
      benchmark::DoNotOptimize(conf.Get(intercept_copy, kDefault));
    });
    session.End();
  }

  std::printf(
      "InterceptGet hot path: %.1f ns/op memoized in-session "
      "(%.1f ns/op outside a session); legacy materialized-name shape "
      "%.1f ns/op — the memoized path saves %.1f ns per intercepted read "
      "(%.2fx).\n",
      memoized_ns, no_session_ns, legacy_ns, legacy_ns - memoized_ns,
      memoized_ns > 0 ? legacy_ns / memoized_ns : 0.0);

  WriteBenchJson("BENCH_conf_micro.json", [&](JsonWriter& json) {
    json.Field("param_name_length", static_cast<int>(kParam.size()));
    json.Field("get_no_session_ns_per_op", no_session_ns, 2);
    json.Field("get_in_session_memoized_ns_per_op", memoized_ns, 2);
    json.Field("get_in_session_materialized_legacy_ns_per_op", legacy_ns, 2);
    json.Field("memoized_saving_ns_per_op", legacy_ns - memoized_ns, 2);
    json.Field("memoized_speedup_vs_legacy",
               memoized_ns > 0 ? legacy_ns / memoized_ns : 0.0, 3);
  });
}

}  // namespace
}  // namespace zebra

int main(int argc, char** argv) {
  zebra::WriteConfMicroJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
