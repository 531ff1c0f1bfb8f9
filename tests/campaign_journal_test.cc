// Tests for the crash-safe campaign journal: round-trip, torn-tail
// truncation, checksum rejection, and fingerprint compatibility. The
// end-to-end resume behavior (bitwise-identical reports after a simulated
// parent crash) lives in fault_tolerance_test.cc; this file covers the file
// format itself.

#include "src/core/campaign_journal.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/common/error.h"
#include "src/core/report_io.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

UnitWorkResult MakeUnit(const std::string& test_id, int64_t executed) {
  UnitWorkResult unit;
  unit.app = "minikv";
  unit.test_id = test_id;
  unit.executed_runs = executed;
  unit.prerun_executions = 1;
  UnitConfirmation confirmation;
  confirmation.param = "kv.param." + test_id;
  confirmation.p_value = 0.0012345678901234567;
  confirmation.witness_failure = "line one\nline two";
  unit.confirmations.push_back(confirmation);
  unit.run_durations.push_back(0.25);
  return unit;
}

void ExpectUnitsEqual(const UnitWorkResult& got, const UnitWorkResult& want) {
  EXPECT_EQ(got.app, want.app);
  EXPECT_EQ(got.test_id, want.test_id);
  EXPECT_EQ(got.executed_runs, want.executed_runs);
  EXPECT_EQ(got.prerun_executions, want.prerun_executions);
  ASSERT_EQ(got.confirmations.size(), want.confirmations.size());
  for (size_t i = 0; i < want.confirmations.size(); ++i) {
    EXPECT_EQ(got.confirmations[i].param, want.confirmations[i].param);
    // Bitwise: the record format round-trips doubles at full precision.
    EXPECT_EQ(got.confirmations[i].p_value, want.confirmations[i].p_value);
    EXPECT_EQ(got.confirmations[i].witness_failure,
              want.confirmations[i].witness_failure);
  }
  EXPECT_EQ(got.run_durations, want.run_durations);
}

int64_t FileSize(const std::string& path) {
  struct stat info {};
  return ::stat(path.c_str(), &info) == 0 ? info.st_size : -1;
}

TEST(CampaignJournalTest, AppendThenResumeRoundTrips) {
  const std::string path = ::testing::TempDir() + "/journal_roundtrip.zj";
  UnitWorkResult first = MakeUnit("minikv.TestA", 7);
  UnitWorkResult second = MakeUnit("minikv.TestB", 11);
  {
    CampaignJournal journal(path, "fp-1", /*resume=*/false);
    EXPECT_TRUE(journal.Append(0, first));
    EXPECT_TRUE(journal.Append(1, second));
  }
  CampaignJournal resumed(path, "fp-1", /*resume=*/true);
  ASSERT_EQ(resumed.recovered().size(), 2u);
  EXPECT_EQ(resumed.recovered()[0].first, 0u);
  ExpectUnitsEqual(resumed.recovered()[0].second, first);
  EXPECT_EQ(resumed.recovered()[1].first, 1u);
  ExpectUnitsEqual(resumed.recovered()[1].second, second);
  std::remove(path.c_str());
}

TEST(CampaignJournalTest, RecordWithRetiredEquivalenceKeysResumesToTheSameReport) {
  // Journals written before the cross-plan equivalence cache was removed
  // carry three more keys per unit record. The journal magic did not
  // change, so such a record must still parse and fold to the same report.
  UnitWorkResult unit = MakeUnit("minikv.TestA", 7);
  unit.cache_hits = 3;
  unit.cache_misses = 5;
  const std::string current = SerializeUnitResult(4, unit);
  const std::string legacy = current +
                             "equiv_hits = 2\n"
                             "canonicalized_plans = 1\n"
                             "mispredictions = 1\n";

  size_t index = 0;
  UnitWorkResult parsed;
  ASSERT_TRUE(ParseUnitResult(legacy, &index, &parsed));
  EXPECT_EQ(index, 4u);
  ExpectUnitsEqual(parsed, unit);
  EXPECT_EQ(SerializeUnitResult(index, parsed), current);

  auto fold = [](const UnitWorkResult& folded) {
    CampaignFolder folder(FullSchema(), CampaignOptions{});
    folder.BeginApp("minikv", 10, 10, 1);
    folder.Fold(folded);
    return SerializeReport(folder.Finish());
  };
  EXPECT_EQ(fold(parsed), fold(unit));
}

TEST(CampaignJournalTest, ResumeOverMissingOrEmptyFileStartsFresh) {
  const std::string path = ::testing::TempDir() + "/journal_missing.zj";
  std::remove(path.c_str());
  CampaignJournal journal(path, "fp-1", /*resume=*/true);
  EXPECT_TRUE(journal.recovered().empty());
  EXPECT_TRUE(journal.Append(0, MakeUnit("minikv.TestA", 1)));
  std::remove(path.c_str());
}

TEST(CampaignJournalTest, FreshOpenDiscardsExistingRecords) {
  const std::string path = ::testing::TempDir() + "/journal_fresh.zj";
  {
    CampaignJournal journal(path, "fp-1", /*resume=*/false);
    EXPECT_TRUE(journal.Append(0, MakeUnit("minikv.TestA", 1)));
  }
  {
    CampaignJournal journal(path, "fp-1", /*resume=*/false);  // no --resume
    EXPECT_TRUE(journal.recovered().empty());
  }
  CampaignJournal resumed(path, "fp-1", /*resume=*/true);
  EXPECT_TRUE(resumed.recovered().empty());
  std::remove(path.c_str());
}

TEST(CampaignJournalTest, GroupCommitWritesIdenticalBytes) {
  // The sync policy changes only *when* fdatasync runs, never what is
  // written: a batch:4 journal must be byte-for-byte the file an
  // every-record journal produces, and resume from either recovers the
  // same records.
  const std::string every_path = ::testing::TempDir() + "/journal_every.zj";
  const std::string batch_path = ::testing::TempDir() + "/journal_batch.zj";
  {
    CampaignJournal every(every_path, "fp-1", /*resume=*/false,
                          CampaignJournal::SyncPolicy{1});
    CampaignJournal batch(batch_path, "fp-1", /*resume=*/false,
                          CampaignJournal::SyncPolicy{4});
    for (int i = 0; i < 5; ++i) {
      UnitWorkResult unit = MakeUnit("minikv.Test" + std::to_string(i), i + 1);
      EXPECT_TRUE(every.Append(static_cast<size_t>(i), unit));
      EXPECT_TRUE(batch.Append(static_cast<size_t>(i), unit));
    }
    EXPECT_EQ(every.append_failures(), 0);
    EXPECT_EQ(batch.append_failures(), 0);
    // Destructors flush the batched tail (record 5 rode past the 4-record
    // boundary un-synced).
  }
  std::ifstream every_file(every_path, std::ios::binary);
  std::ifstream batch_file(batch_path, std::ios::binary);
  std::string every_bytes((std::istreambuf_iterator<char>(every_file)),
                          std::istreambuf_iterator<char>());
  std::string batch_bytes((std::istreambuf_iterator<char>(batch_file)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(every_bytes, batch_bytes);

  CampaignJournal resumed(batch_path, "fp-1", /*resume=*/true,
                          CampaignJournal::SyncPolicy{4});
  ASSERT_EQ(resumed.recovered().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(resumed.recovered()[i].first, i);
    ExpectUnitsEqual(resumed.recovered()[i].second,
                     MakeUnit("minikv.Test" + std::to_string(i),
                              static_cast<int64_t>(i) + 1));
  }
  std::remove(every_path.c_str());
  std::remove(batch_path.c_str());
}

TEST(CampaignJournalTest, AppendFailureCountsAndDisablesJournaling) {
  const std::string path = ::testing::TempDir() + "/journal_enospc.zj";
  CampaignJournal journal(path, "fp-1", /*resume=*/false);
  UnitWorkResult unit = MakeUnit("minikv.TestA", 7);
  EXPECT_TRUE(journal.Append(0, unit));
  EXPECT_EQ(journal.append_failures(), 0);

  // Simulate a full disk: cap the file at its current size so the next
  // append's write fails with EFBIG (SIGXFSZ ignored for the duration).
  struct rlimit old_limit {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct sigaction ignore {};
  struct sigaction old_action {};
  ignore.sa_handler = SIG_IGN;
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore, &old_action), 0);
  struct rlimit tiny = old_limit;
  tiny.rlim_cur = static_cast<rlim_t>(FileSize(path));
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tiny), 0);

  EXPECT_FALSE(journal.Append(1, MakeUnit("minikv.TestB", 11)));
  EXPECT_EQ(journal.append_failures(), 1);
  // Journaling is disabled, not retried: later appends fail without
  // inflating the counter past the first event.
  EXPECT_FALSE(journal.Append(2, MakeUnit("minikv.TestC", 13)));
  EXPECT_EQ(journal.append_failures(), 1);

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &old_action, nullptr), 0);

  // The record synced before the failure is still a valid resume prefix.
  CampaignJournal resumed(path, "fp-1", /*resume=*/true);
  ASSERT_EQ(resumed.recovered().size(), 1u);
  ExpectUnitsEqual(resumed.recovered()[0].second, unit);
  std::remove(path.c_str());
}

TEST(CampaignJournalTest, TornTailIsTruncatedAndRecoveryKeepsPrefix) {
  const std::string path = ::testing::TempDir() + "/journal_torn.zj";
  UnitWorkResult first = MakeUnit("minikv.TestA", 7);
  {
    CampaignJournal journal(path, "fp-1", /*resume=*/false);
    EXPECT_TRUE(journal.Append(0, first));
    EXPECT_TRUE(journal.Append(1, MakeUnit("minikv.TestB", 11)));
  }
  // Tear the second record: chop bytes off the end, then smear garbage on,
  // as a crash mid-append (page-cache tail, partial flush) would.
  int64_t full_size = FileSize(path);
  ASSERT_GT(full_size, 40);
  {
    std::ofstream out(path, std::ios::in | std::ios::out);
    out.seekp(full_size - 25);
    out << "@@@@ torn tail @@@@";
  }
  {
    CampaignJournal resumed(path, "fp-1", /*resume=*/true);
    ASSERT_EQ(resumed.recovered().size(), 1u);
    ExpectUnitsEqual(resumed.recovered()[0].second, first);
  }
  // The torn tail was truncated: a second resume sees a clean one-record
  // journal, and appends land on a clean boundary.
  CampaignJournal again(path, "fp-1", /*resume=*/true);
  ASSERT_EQ(again.recovered().size(), 1u);
  EXPECT_TRUE(again.Append(1, MakeUnit("minikv.TestB", 11)));
  std::remove(path.c_str());
}

TEST(CampaignJournalTest, ChecksumMismatchEndsRecoveryAtLastGoodRecord) {
  const std::string path = ::testing::TempDir() + "/journal_bitflip.zj";
  {
    CampaignJournal journal(path, "fp-1", /*resume=*/false);
    EXPECT_TRUE(journal.Append(0, MakeUnit("minikv.TestA", 7)));
    EXPECT_TRUE(journal.Append(1, MakeUnit("minikv.TestB", 11)));
  }
  // Flip one payload byte inside the *second* record (well past the first
  // record's frame) without changing any length header.
  int64_t full_size = FileSize(path);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(full_size - 2);
    char byte = 0;
    file.get(byte);
    file.seekp(full_size - 2);
    file.put(byte == 'x' ? 'y' : 'x');
  }
  CampaignJournal resumed(path, "fp-1", /*resume=*/true);
  EXPECT_EQ(resumed.recovered().size(), 1u);
  std::remove(path.c_str());
}

TEST(CampaignJournalTest, FingerprintMismatchThrows) {
  const std::string path = ::testing::TempDir() + "/journal_fingerprint.zj";
  {
    CampaignJournal journal(path, "fp-1", /*resume=*/false);
    EXPECT_TRUE(journal.Append(0, MakeUnit("minikv.TestA", 7)));
  }
  EXPECT_THROW(CampaignJournal(path, "fp-2", /*resume=*/true), Error);
  std::remove(path.c_str());
}

TEST(CampaignJournalTest, NonJournalFileRefusesToResume) {
  const std::string path = ::testing::TempDir() + "/journal_notajournal.zj";
  {
    std::ofstream out(path);
    out << "this is not a journal at all\n";
  }
  EXPECT_THROW(CampaignJournal(path, "fp-1", /*resume=*/true), Error);
  std::remove(path.c_str());
}

TEST(CampaignJournalTest, FingerprintTracksResultAffectingOptionsOnly) {
  CampaignOptions base;
  base.apps = {"minikv"};
  std::string fingerprint = CampaignJournal::Fingerprint(base, FullCorpus());
  EXPECT_FALSE(fingerprint.empty());

  // Result-affecting knobs change the fingerprint...
  CampaignOptions pooling = base;
  pooling.enable_pooling = false;
  EXPECT_NE(CampaignJournal::Fingerprint(pooling, FullCorpus()), fingerprint);

  CampaignOptions trials = base;
  trials.first_trials += 1;
  EXPECT_NE(CampaignJournal::Fingerprint(trials, FullCorpus()), fingerprint);

  CampaignOptions apps = base;
  apps.apps = {"minikv", "ministream"};
  EXPECT_NE(CampaignJournal::Fingerprint(apps, FullCorpus()), fingerprint);

  // ...while watchdog/backoff tuning (which can never change findings) does
  // not: an operator may tighten deadlines on resume.
  CampaignOptions watchdog = base;
  watchdog.watchdog_floor_seconds = 1.0;
  watchdog.watchdog_multiplier = 2.0;
  watchdog.unit_attempt_limit = 9;
  EXPECT_EQ(CampaignJournal::Fingerprint(watchdog, FullCorpus()), fingerprint);
}

}  // namespace
}  // namespace zebra
