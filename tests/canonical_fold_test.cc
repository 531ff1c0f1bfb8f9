// Tests for CanonicalFold's two-sided staleness check, its predicted ladder,
// and the thread pool's cancellation of doomed units, on a synthetic corpus
// where exactly which parameters are unsafe is controlled.
//
// A unit reads the globally-unsafe set only for the parameters it tests (P),
// so a result computed under snapshot S folds iff S ∩ P == U(i) ∩ P. The
// cases below drive CanonicalFold by hand with deliberately wrong snapshots
// — too small and too large — and check that the fold still lands on the
// sequential campaign's findings, Table-5 counts and
// runs_to_first_detection.

#include "src/core/canonical_fold.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/campaign.h"
#include "src/core/report_io.h"
#include "src/core/thread_pool_scheduler.h"
#include "src/runtime/node_init.h"

namespace zebra {
namespace {

constexpr char kApp[] = "foldapp";
constexpr char kUnsafe[] = "fold.unsafe.everywhere";
constexpr char kSafe[] = "fold.safe.alpha";
constexpr char kUnread[] = "fold.never.read";

class FoldNode {
 public:
  explicit FoldNode(const Configuration& conf)
      : init_scope_(kApp, this, "FoldNode", __FILE__, __LINE__),
        conf_(AnnotatedRefToClone(kApp, conf, __FILE__, __LINE__)) {
    init_scope_.Finish();
  }

  std::string Read(const std::string& param) const { return conf_.Get(param, "d"); }

 private:
  NodeInitScope init_scope_;
  Configuration conf_;
};

ConfSchema BuildSchema() {
  ConfSchema schema;
  for (const char* name : {kUnsafe, kSafe, kUnread}) {
    schema.AddParam({name, kApp, ParamType::kBool, "false", {"true", "false"},
                     "synthetic parameter"});
  }
  return schema;
}

// Sleeps applied to the first execution of two units, so the thread-pool
// cancellation case can order a fast unit's fold inside a slow unit's
// pre-run. Zero everywhere else.
std::atomic<int> g_first_unit_delay_ms{0};
std::atomic<int> g_second_unit_delay_ms{0};

void SleepOnce(std::atomic<int>* delay_ms) {
  const int ms = delay_ms->exchange(0);
  if (ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

// Every test fails when its two nodes disagree on kUnsafe and reads kSafe
// harmlessly; nothing reads kUnread. At frequent-failure threshold 2 the
// globally-unsafe set is {} for units 0-1 and {kUnsafe} from unit 2 on.
UnitTestRegistry BuildCorpus() {
  UnitTestRegistry registry;
  auto body = [](std::atomic<int>* delay_ms) {
    return [delay_ms](TestContext& ctx) {
      if (delay_ms != nullptr) {
        SleepOnce(delay_ms);
      }
      Configuration conf;
      FoldNode a(conf);
      FoldNode b(conf);
      a.Read(kSafe);
      b.Read(kSafe);
      ctx.CheckEq(a.Read(kUnsafe), b.Read(kUnsafe), "nodes agree");
    };
  };
  registry.Add(kApp, "TestZero", body(&g_first_unit_delay_ms));
  registry.Add(kApp, "TestOne", body(&g_second_unit_delay_ms));
  registry.Add(kApp, "TestTwo", body(nullptr));
  registry.Add(kApp, "TestThree", body(nullptr));
  return registry;
}

UnsafeSnapshot Snapshot(std::set<std::string> params) {
  return std::make_shared<const std::set<std::string>>(std::move(params));
}

// The determinism contract's part of a report (as perfbench's oracle gate
// reads it): serialized with timing and scheduling accounting cleared.
std::string ContractText(CampaignReport report) {
  report.wall_seconds = 0;
  report.run_durations_seconds.clear();
  report.requeued_units = report.hung_workers = 0;
  return SerializeReport(report);
}

class CanonicalFoldTest : public ::testing::Test {
 protected:
  CanonicalFoldTest() : schema_(BuildSchema()), corpus_(BuildCorpus()) {
    options_.apps = {kApp};
    options_.frequent_failure_threshold = 2;
    expected_ = Campaign(schema_, corpus_, options_).Run();
  }

  // Runs unit `index` of `fold` under `snapshot` on a private engine.
  UnitWorkResult RunUnder(const CanonicalFold& fold, size_t index,
                          const std::set<std::string>& snapshot) {
    return engine_->RunUnit(*fold.units()[index].test, snapshot);
  }

  // Folds to the end: whatever is buffered folds or is discarded as stale,
  // and every unit the cursor then lacks runs under the fold's exact set.
  void FoldRestExactly(CanonicalFold* fold) {
    for (fold->Advance(); fold->remaining() > 0; fold->Advance()) {
      fold->TakeStale();
      const size_t index = fold->cursor();
      fold->Buffer(index, RunUnder(*fold, index, fold->globally_unsafe()),
                   Snapshot(fold->globally_unsafe()));
    }
  }

  void ExpectSequentialContract(CampaignReport report) {
    ASSERT_EQ(report.findings.size(), expected_.findings.size());
    EXPECT_EQ(report.findings.at(kUnsafe).witness_tests,
              expected_.findings.at(kUnsafe).witness_tests);
    EXPECT_EQ(report.runs_to_first_detection, expected_.runs_to_first_detection);
    EXPECT_EQ(report.TotalExecuted(), expected_.TotalExecuted());
    EXPECT_EQ(ContractText(report), ContractText(expected_));
  }

  void SetUp() override {
    ASSERT_EQ(expected_.findings.size(), 1u);
    ASSERT_EQ(expected_.findings.at(kUnsafe).witness_tests.size(), 2u);
    engine_ = std::make_unique<Campaign>(schema_, corpus_, options_);
  }

  ConfSchema schema_;
  UnitTestRegistry corpus_;
  CampaignOptions options_;
  CampaignReport expected_;
  std::unique_ptr<Campaign> engine_;
};

TEST_F(CanonicalFoldTest, TestedParamInSnapshotButNotInExactSetNeverFolds) {
  CanonicalFold fold("fold test", schema_, corpus_, options_, FoldControls{});
  ASSERT_EQ(fold.units().size(), 4u);

  // A wrong prediction: kSafe is tested by every unit but never unsafe, so a
  // snapshot holding it skips a parameter the exact run tests.
  const std::set<std::string> wrong = {kSafe};
  UnitWorkResult at_cursor = RunUnder(fold, 0, wrong);
  ASSERT_TRUE(std::count(at_cursor.params_tested.begin(),
                         at_cursor.params_tested.end(), kSafe) > 0);
  fold.Buffer(0, std::move(at_cursor), Snapshot(wrong));
  fold.Buffer(2, RunUnder(fold, 2, wrong), Snapshot(wrong));

  fold.Advance();
  EXPECT_EQ(fold.cursor(), 0u) << "the overshooting result folded at its turn";

  // Only the cursor's result is decided; the one ahead is left alone.
  EXPECT_EQ(fold.TakeStale(), std::vector<size_t>{0});

  FoldRestExactly(&fold);  // unit 2's wrong result is found at its turn
  CampaignReport report = fold.Finish();
  EXPECT_EQ(report.stale_reruns, 2);
  EXPECT_EQ(report.requeued_units, 0);
  ExpectSequentialContract(report);
}

TEST_F(CanonicalFoldTest, SupersetDisjointFromTestedParamsFolds) {
  CanonicalFold fold("fold test", schema_, corpus_, options_, FoldControls{});

  // S ⊋ U(0) = {}, but the extra parameter is never tested: S ∩ P is exact.
  const std::set<std::string> superset = {kUnread};
  UnitWorkResult result = RunUnder(fold, 0, superset);
  ASSERT_EQ(std::count(result.params_tested.begin(), result.params_tested.end(),
                       kUnread),
            0);
  fold.Buffer(0, std::move(result), Snapshot(superset));
  fold.Advance();
  EXPECT_EQ(fold.cursor(), 1u);

  FoldRestExactly(&fold);
  CampaignReport report = fold.Finish();
  EXPECT_EQ(report.stale_reruns, 0);
  ExpectSequentialContract(report);
}

TEST_F(CanonicalFoldTest, MissingUnsafeParamIsStaleAheadOfTheCursor) {
  CanonicalFold fold("fold test", schema_, corpus_, options_, FoldControls{});

  // Unit 3 runs under {} although U(3) = {kUnsafe}: once units 0-1 fold, the
  // monotone side dooms it before the cursor gets there.
  fold.Buffer(3, RunUnder(fold, 3, {}), Snapshot({}));
  EXPECT_TRUE(fold.TakeStale().empty());
  for (size_t index : {0u, 1u}) {
    fold.Buffer(index, RunUnder(fold, index, {}), Snapshot({}));
  }
  fold.Advance();
  ASSERT_EQ(fold.cursor(), 2u);
  ASSERT_EQ(fold.globally_unsafe(), std::set<std::string>{kUnsafe});
  EXPECT_EQ(fold.TakeStale(), std::vector<size_t>{3});

  FoldRestExactly(&fold);
  ExpectSequentialContract(fold.Finish());
}

TEST_F(CanonicalFoldTest, LadderPredictsFromBufferedConfirmations) {
  CanonicalFold fold("fold test", schema_, corpus_, options_, FoldControls{});
  EXPECT_TRUE(fold.UpdateLadder());
  ASSERT_EQ(fold.ladder().size(), 1u);
  EXPECT_TRUE(fold.current_unsafe()->empty());
  EXPECT_FALSE(fold.UpdateLadder()) << "nothing changed";

  // One buffered confirmation of kUnsafe leaves it below the threshold.
  fold.Buffer(1, RunUnder(fold, 1, {}), Snapshot({}));
  EXPECT_FALSE(fold.UpdateLadder());

  // With unit 0's confirmation too, folding both would mark kUnsafe
  // globally unsafe, so units from 2 on dispatch under it.
  fold.Buffer(0, RunUnder(fold, 0, {}), Snapshot({}));
  EXPECT_TRUE(fold.UpdateLadder());
  const std::vector<Rung>& ladder = fold.ladder();
  EXPECT_TRUE(CanonicalFold::RungFor(ladder, 1)->empty());
  EXPECT_EQ(*CanonicalFold::RungFor(ladder, 2), std::set<std::string>{kUnsafe});
  EXPECT_EQ(*CanonicalFold::RungFor(ladder, 3), std::set<std::string>{kUnsafe});
  const UnsafeSnapshot predicted = CanonicalFold::RungFor(ladder, 2);

  // Folding exactly what was predicted leaves the ladder as it was, and the
  // predicted rung now is the fold's set.
  fold.Advance();
  ASSERT_EQ(fold.cursor(), 2u);
  EXPECT_FALSE(fold.UpdateLadder());
  EXPECT_EQ(fold.current_unsafe(), predicted);

  // Dispatching under the predicted rung is exact.
  fold.Buffer(2, RunUnder(fold, 2, *predicted), predicted);
  fold.Advance();
  EXPECT_EQ(fold.cursor(), 3u);
  FoldRestExactly(&fold);
  ExpectSequentialContract(fold.Finish());
}

TEST_F(CanonicalFoldTest, CancelledUnitChargesNoAttempt) {
  // Threshold 1: folding unit 0 makes kUnsafe globally unsafe. Unit 1 is
  // dispatched alongside it under {} and its pre-run is held long enough for
  // unit 0 to fold, so its first pooled round finds it doomed. With an
  // attempt limit of 1, a cancellation charged as an attempt would
  // quarantine the unit and change the findings.
  CampaignOptions options = options_;
  options.frequent_failure_threshold = 1;
  options.unit_attempt_limit = 1;
  const CampaignReport expected = Campaign(schema_, corpus_, options).Run();

  g_first_unit_delay_ms = 20;    // lets the second worker take unit 1
  g_second_unit_delay_ms = 400;  // unit 0 folds meanwhile
  CampaignReport report =
      RunThreadPoolCampaign(schema_, corpus_, options, /*workers=*/2);
  g_first_unit_delay_ms = 0;
  g_second_unit_delay_ms = 0;

  EXPECT_GE(report.cancelled_units, 1);
  EXPECT_EQ(report.requeued_units, 0);
  EXPECT_TRUE(report.poisoned_units.empty());
  EXPECT_EQ(report.runs_to_first_detection, expected.runs_to_first_detection);
  EXPECT_EQ(ContractText(report), ContractText(expected));
}

}  // namespace
}  // namespace zebra
