// Tests for the memoized run cache: keying (exact and trial-wildcard),
// counters, LRU budget enforcement, persistence, and the end-to-end
// guarantee that memoization never changes campaign results while actually
// getting hits.

#include "src/testkit/run_cache.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/campaign.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

TestResult MakeResult(bool passed, const std::string& failure) {
  TestResult result;
  result.passed = passed;
  result.failure = failure;
  return result;
}

TestPlan SingleParamPlan(const std::string& param, const std::string& value) {
  TestPlan plan;
  ParamPlan p;
  p.param = param;
  p.assigner = ValueAssigner::UniformGroup("Server", value, "other");
  plan.Add(std::move(p));
  return plan;
}

TEST(RunCacheTest, ExactKeyRoundTrip) {
  RunCache cache;
  EXPECT_EQ(cache.Lookup("app.Test", "plan-a", 0), nullptr);
  cache.Insert("app.Test", "plan-a", 0, /*trial_insensitive=*/false,
               MakeResult(false, "boom"));

  const TestResult* hit = cache.Lookup("app.Test", "plan-a", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->passed);
  EXPECT_EQ(hit->failure, "boom");

  // A trial-sensitive entry must NOT serve other trials.
  EXPECT_EQ(cache.Lookup("app.Test", "plan-a", 1), nullptr);
  // Nor other plans or tests.
  EXPECT_EQ(cache.Lookup("app.Test", "plan-b", 0), nullptr);
  EXPECT_EQ(cache.Lookup("app.Other", "plan-a", 0), nullptr);

  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(RunCacheTest, TrialInsensitiveEntryServesEveryTrial) {
  RunCache cache;
  cache.Insert("app.Test", "plan", 7, /*trial_insensitive=*/true,
               MakeResult(true, ""));
  for (uint64_t trial : {0u, 1u, 7u, 42u}) {
    const TestResult* hit = cache.Lookup("app.Test", "plan", trial);
    ASSERT_NE(hit, nullptr) << trial;
    EXPECT_TRUE(hit->passed);
  }
  EXPECT_EQ(cache.stats().hits, 4);
}

TEST(RunCacheTest, KeysAreNotAmbiguous) {
  // The separator must prevent (id, plan) concatenation collisions.
  RunCache cache;
  cache.Insert("a", "b.plan", 0, /*trial_insensitive=*/true, MakeResult(true, ""));
  EXPECT_EQ(cache.Lookup("a.b", "plan", 0), nullptr);
  EXPECT_EQ(cache.Lookup("a", "b.plan.extra", 0), nullptr);
}

TEST(RunCacheTest, HashedKeysMatchLegacyDigestsOverFullCorpus) {
  // The hot path folds key components into a 128-bit digest without ever
  // building the legacy concatenated string; this proves the fold is
  // byte-for-byte the digest of that string for every unit test in the full
  // corpus, every plan the schema can produce for it, and both key
  // shapes. FNV chains over concatenation, so equality here means hashed
  // and legacy lookups are interchangeable everywhere.
  size_t checked = 0;
  for (const UnitTestDef& test_def : FullCorpus().tests()) {
    const UnitTestDef* test = &test_def;
    for (const ParamSpec& param : FullSchema().params()) {
      TestPlan plan = SingleParamPlan(param.name, param.default_value);
      const std::string& plan_text = plan.Fingerprint();
      for (uint64_t trial : {uint64_t{0}, uint64_t{7}, uint64_t{123456789}}) {
        EXPECT_EQ(RunCache::ExactRunKey(test->id, plan_text, trial),
                  HashFnv128(RunCache::ExactKey(test->id, plan_text, trial)))
            << test->id << " / " << plan_text << " / " << trial;
      }
      EXPECT_EQ(RunCache::WildcardRunKey(test->id, plan_text),
                HashFnv128(RunCache::WildcardKey(test->id, plan_text)));

      // The persistence gate inverts the same equivalence: re-deriving the
      // digest from the legacy string must reproduce the component fold.
      Digest128 derived{0, 0};
      ASSERT_TRUE(RunCache::DeriveComponentDigest(
          RunCache::ExactKey(test->id, plan_text, 7), &derived));
      EXPECT_EQ(derived, RunCache::ExactRunKey(test->id, plan_text, 7));
      ASSERT_TRUE(RunCache::DeriveComponentDigest(
          RunCache::WildcardKey(test->id, plan_text), &derived));
      EXPECT_EQ(derived, RunCache::WildcardRunKey(test->id, plan_text));
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);  // the corpus x schema sweep actually ran
}

TEST(RunCacheTest, ForcedCollisionIsRejectedNeverServedWrong) {
  // Two distinct legacy keys digesting to the same 128-bit key: the insert
  // path compares the stored legacy string and must detect the collision
  // (counted in key_collisions) instead of aliasing two different runs.
  // Neither logical key may be served through the ambiguous digest, so the
  // stored entry is evicted too — both re-execute rather than risk a wrong
  // serve.
  RunCache cache;
  Digest128 key{0x1234567890abcdefULL, 0xfedcba0987654321ULL};
  EXPECT_TRUE(cache.InsertAliasForTesting(key, "legacy-a", MakeResult(true, "")));
  EXPECT_EQ(cache.stats().key_collisions, 0);
  EXPECT_EQ(cache.stats().entries, 1);

  EXPECT_FALSE(
      cache.InsertAliasForTesting(key, "legacy-b", MakeResult(false, "boom")));
  EXPECT_EQ(cache.stats().key_collisions, 1);
  EXPECT_EQ(cache.stats().entries, 0);

  // A duplicate insert under one legacy key is first-result-wins, not a
  // collision: the entry stays and the counter does not move.
  EXPECT_TRUE(cache.InsertAliasForTesting(key, "legacy-a", MakeResult(true, "")));
  EXPECT_FALSE(cache.InsertAliasForTesting(key, "legacy-a", MakeResult(true, "")));
  EXPECT_EQ(cache.stats().key_collisions, 1);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(RunCacheTest, StatsTrackEntriesAndHitRate) {
  RunCache cache;
  cache.Lookup("x", "p", 0);  // miss
  cache.Insert("x", "p", 0, /*trial_insensitive=*/false, MakeResult(true, ""));
  cache.Lookup("x", "p", 0);  // hit
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.5);
}

TEST(RunCacheTest, CampaignResultsIdenticalWithCacheEnabled) {
  CampaignOptions plain_options;
  plain_options.apps = {"minikv", "apptools"};
  Campaign plain(FullSchema(), FullCorpus(), plain_options);
  CampaignReport expected = plain.Run();
  EXPECT_EQ(expected.cache_hits, 0);
  EXPECT_EQ(expected.cache_misses, 0);

  CampaignOptions cached_options = plain_options;
  cached_options.enable_run_cache = true;
  Campaign cached(FullSchema(), FullCorpus(), cached_options);
  CampaignReport report = cached.Run();

  // Table-5 accounting and findings are byte-for-byte the no-cache numbers.
  EXPECT_EQ(report.TotalExecuted(), expected.TotalExecuted());
  EXPECT_EQ(report.total_unit_test_runs, expected.total_unit_test_runs);
  EXPECT_EQ(report.first_trial_candidates, expected.first_trial_candidates);
  EXPECT_EQ(report.filtered_by_hypothesis, expected.filtered_by_hypothesis);
  EXPECT_EQ(report.runs_to_first_detection, expected.runs_to_first_detection);
  ASSERT_EQ(report.findings.size(), expected.findings.size());
  for (const auto& [param, finding] : expected.findings) {
    ASSERT_TRUE(report.findings.count(param) > 0) << param;
    EXPECT_EQ(report.findings.at(param).witness_tests, finding.witness_tests);
    EXPECT_EQ(report.findings.at(param).best_p_value, finding.best_p_value);
  }
  for (const auto& [app, counts] : expected.per_app) {
    EXPECT_EQ(report.per_app.at(app).after_prerun, counts.after_prerun) << app;
    EXPECT_EQ(report.per_app.at(app).executed_runs, counts.executed_runs) << app;
  }

  // ...but the cache did real work.
  EXPECT_GT(report.cache_hits, 0);
  EXPECT_GT(report.cache_misses, 0);
  // Cache hits skip execution, so fewer durations are recorded than in the
  // uncached run (which records one per real execution, pre-runs included).
  EXPECT_LT(report.run_durations_seconds.size(),
            expected.run_durations_seconds.size());
}

TEST(RunCacheTest, LruBudgetEvictsOldestAndCounts) {
  RunCache cache(RunCache::Limits{/*max_entries=*/2, /*max_bytes=*/0});
  cache.Insert("t", "p1", 0, /*trial_insensitive=*/false, MakeResult(true, ""));
  cache.Insert("t", "p2", 0, /*trial_insensitive=*/false, MakeResult(true, ""));
  ASSERT_NE(cache.Lookup("t", "p1", 0), nullptr);  // p1 now most recent
  cache.Insert("t", "p3", 0, /*trial_insensitive=*/false, MakeResult(true, ""));

  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_NE(cache.Lookup("t", "p1", 0), nullptr);  // kept (recently used)
  EXPECT_NE(cache.Lookup("t", "p3", 0), nullptr);  // kept (newest)
  EXPECT_EQ(cache.Lookup("t", "p2", 0), nullptr);  // evicted
}

TEST(RunCacheTest, CacheBudgetNeverChangesFindings) {
  CampaignOptions plain_options;
  plain_options.apps = {"minikv", "apptools"};
  Campaign plain(FullSchema(), FullCorpus(), plain_options);
  CampaignReport expected = plain.Run();

  // A budget small enough to evict constantly: hits become re-executions,
  // findings and stage counts must not move.
  CampaignOptions tight_options = plain_options;
  tight_options.enable_run_cache = true;
  tight_options.cache_max_entries = 8;
  Campaign tight(FullSchema(), FullCorpus(), tight_options);
  CampaignReport report = tight.Run();

  EXPECT_GT(report.cache_evictions, 0);
  EXPECT_EQ(report.total_unit_test_runs, expected.total_unit_test_runs);
  EXPECT_EQ(report.runs_to_first_detection, expected.runs_to_first_detection);
  ASSERT_EQ(report.findings.size(), expected.findings.size());
  for (const auto& [param, finding] : expected.findings) {
    ASSERT_TRUE(report.findings.count(param) > 0) << param;
    EXPECT_EQ(report.findings.at(param).witness_tests, finding.witness_tests);
    EXPECT_EQ(report.findings.at(param).best_p_value, finding.best_p_value);
  }
  for (const auto& [app, counts] : expected.per_app) {
    EXPECT_EQ(report.per_app.at(app).executed_runs, counts.executed_runs) << app;
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(RunCacheTest, SaveLoadRoundTripPreservesEveryReportField) {
  TestResult failing = MakeResult(false, "line one\nline two \\ tail");
  SessionReport& report = failing.report;
  report.node_counts = {{"DataNode", 3}, {"NameNode", 1}};
  report.reads["DataNode"] = {"dfs.a", "dfs.b"};
  report.reads[kClientEntity] = {"dfs.c"};
  report.uncertain_params = {"ipc.x"};
  report.conf_objects_created = 7;
  report.clones = 4;
  report.ref_to_clones = 2;
  report.uncertain_conf_count = 1;
  report.override_hits = 11;
  report.conf_sharing_detected = true;
  report.any_conf_usage = true;

  RunCache cache;
  cache.Insert("t", "plan-a", 0, /*trial_insensitive=*/true, failing);
  cache.Insert("t", "plan-b", 3, /*trial_insensitive=*/false, MakeResult(true, ""));
  const std::string path = ::testing::TempDir() + "/run_cache_v3.zc";
  ASSERT_TRUE(cache.SaveToFile(path));
  const std::string text = ReadWholeFile(path);
  EXPECT_EQ(text.rfind("zebra-run-cache-v3\n", 0), 0u);
  EXPECT_EQ(text.find("\nT "), std::string::npos);

  RunCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path));
  std::remove(path.c_str());
  EXPECT_EQ(reloaded.stats().entries, cache.stats().entries);
  EXPECT_EQ(reloaded.stats().bytes, cache.stats().bytes);
  EXPECT_EQ(reloaded.stats().load_failures, 0);

  // The trial-insensitive entry still serves every trial through its
  // wildcard alias; the trial-sensitive one only its own.
  const TestResult* hit = reloaded.Lookup("t", "plan-a", 9);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->passed);
  EXPECT_EQ(hit->failure, failing.failure);
  const SessionReport& got = hit->report;
  EXPECT_EQ(got.node_counts, report.node_counts);
  EXPECT_EQ(got.reads, report.reads);
  EXPECT_EQ(got.uncertain_params, report.uncertain_params);
  EXPECT_EQ(got.conf_objects_created, report.conf_objects_created);
  EXPECT_EQ(got.clones, report.clones);
  EXPECT_EQ(got.ref_to_clones, report.ref_to_clones);
  EXPECT_EQ(got.uncertain_conf_count, report.uncertain_conf_count);
  EXPECT_EQ(got.override_hits, report.override_hits);
  EXPECT_EQ(got.conf_sharing_detected, report.conf_sharing_detected);
  EXPECT_EQ(got.any_conf_usage, report.any_conf_usage);
  EXPECT_EQ(SerializeSessionReport(got), SerializeSessionReport(report));

  const TestResult* exact = reloaded.Lookup("t", "plan-b", 3);
  ASSERT_NE(exact, nullptr);
  EXPECT_TRUE(exact->passed);
  EXPECT_EQ(reloaded.Lookup("t", "plan-b", 4), nullptr);
}

TEST(RunCacheTest, LoadRejectsWellFormedV2File) {
  // A v2 file as the previous format wrote it: every entry carries a "T"
  // (observed read trace) line and its report a "trace" tag, under a valid
  // whole-file checksum. Intact as it is, it must still be refused whole.
  const std::string path = ::testing::TempDir() + "/run_cache_v2.zc";
  {
    const std::vector<std::string> lines = {
        "zebra-run-cache-v2",
        "1",
        "K " + RunCache::WildcardKey("t", "plan-a"),
        "P 1",
        "F ",
        "T Server#0:a.read!",
        "R trace Server#0:a.read!\\ncounters 1 0 0 0 0\\nflags 0 1\\n",
    };
    uint64_t digest = kFnv64Seed;
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) {
      digest = HashFnv64(line, digest);
      out << line << '\n';
    }
    out << "C " << HashToHex(digest) << '\n';
  }
  RunCache cache;
  cache.Insert("t", "p", 0, /*trial_insensitive=*/false, MakeResult(true, ""));
  const RunCache::LoadResult loaded = cache.LoadFromFile(path);
  EXPECT_FALSE(loaded);
  EXPECT_EQ(loaded.status, RunCache::LoadStatus::kUnsupportedVersion);
  EXPECT_STREQ(loaded.reason(), "unsupported version");
  std::remove(path.c_str());
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
  EXPECT_EQ(cache.Lookup("t", "p", 0), nullptr);
  EXPECT_EQ(cache.Lookup("t", "plan-a", 0), nullptr);
  EXPECT_EQ(cache.stats().load_failures, 1);
}

TEST(RunCacheTest, SaveLoadRejectsCorruptFile) {
  const std::string path = ::testing::TempDir() + "/run_cache_corrupt.zc";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a cache file\n", f);
    std::fclose(f);
  }
  RunCache cache;
  cache.Insert("t", "p", 0, /*trial_insensitive=*/false, MakeResult(true, ""));
  const RunCache::LoadResult loaded = cache.LoadFromFile(path);
  EXPECT_FALSE(loaded);
  EXPECT_EQ(loaded.status, RunCache::LoadStatus::kCorrupt);
  // A failed load leaves the cache empty, never half-loaded — and counts a
  // load failure (the campaign surfaces it as cache_load_failures).
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.Lookup("t", "p", 0), nullptr);
  EXPECT_EQ(cache.stats().load_failures, 1);
  std::remove(path.c_str());
}

TEST(RunCacheTest, LoadRejectsTruncatedRealFile) {
  // A genuine save, torn mid-write (crash, disk full): the trailing
  // checksum is gone, so the load must reject the file and start cold
  // rather than trust a half-written cache.
  const std::string path = ::testing::TempDir() + "/run_cache_torn.zc";
  RunCache cache;
  cache.Insert("alpha", "plan-a", 0, /*trial_insensitive=*/true,
               MakeResult(true, ""));
  cache.Insert("beta", "plan-b", 1, /*trial_insensitive=*/false,
               MakeResult(false, "boom"));
  ASSERT_TRUE(cache.SaveToFile(path));

  std::string full;
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    full = buffer.str();
  }
  ASSERT_GT(full.size(), 40u);
  {
    std::ofstream out(path, std::ios::trunc);
    out << full.substr(0, full.size() - 30);
  }

  RunCache reloaded;
  EXPECT_EQ(reloaded.LoadFromFile(path).status,
            RunCache::LoadStatus::kCorrupt);
  EXPECT_EQ(reloaded.stats().entries, 0);
  EXPECT_EQ(reloaded.stats().load_failures, 1);
  std::remove(path.c_str());
}

TEST(RunCacheTest, LoadRejectsBitFlippedFileByChecksum) {
  // Same length, one byte flipped inside an entry: only the whole-file
  // checksum can catch this.
  const std::string path = ::testing::TempDir() + "/run_cache_bitflip.zc";
  RunCache cache;
  cache.Insert("alpha", "plan-a", 0, /*trial_insensitive=*/true,
               MakeResult(true, "xyzzy-payload"));
  ASSERT_TRUE(cache.SaveToFile(path));

  std::string full;
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    full = buffer.str();
  }
  size_t position = full.find("plan-a");
  ASSERT_NE(position, std::string::npos);
  full[position] = 'q';
  {
    std::ofstream out(path, std::ios::trunc);
    out << full;
  }

  RunCache reloaded;
  EXPECT_FALSE(reloaded.LoadFromFile(path));
  EXPECT_EQ(reloaded.stats().entries, 0);
  EXPECT_EQ(reloaded.stats().load_failures, 1);
  std::remove(path.c_str());
}

TEST(RunCacheTest, MissingFileIsColdStartNotFailure) {
  const std::string path = ::testing::TempDir() + "/run_cache_missing.zc";
  std::remove(path.c_str());
  RunCache cache;
  const RunCache::LoadResult loaded = cache.LoadFromFile(path);
  EXPECT_FALSE(loaded);
  EXPECT_EQ(loaded.status, RunCache::LoadStatus::kMissing);
  EXPECT_EQ(cache.stats().load_failures, 0);
}

TEST(RunCacheTest, ScopedInstallRestoresPrevious) {
  ASSERT_EQ(GlobalRunCache(), nullptr);
  RunCache outer;
  {
    ScopedRunCache install_outer(&outer);
    EXPECT_EQ(GlobalRunCache(), &outer);
    RunCache inner;
    {
      ScopedRunCache install_inner(&inner);
      EXPECT_EQ(GlobalRunCache(), &inner);
    }
    EXPECT_EQ(GlobalRunCache(), &outer);
  }
  EXPECT_EQ(GlobalRunCache(), nullptr);
}

}  // namespace
}  // namespace zebra
