// CanonicalFold: the coordinator-side state machine shared by the
// speculative campaign engines — the in-process thread pool
// (thread_pool_scheduler.h) and the distributed fabric
// (distributed_campaign.h).
//
// Both engines run (app, unit test) work units ahead of the fold, each
// under a snapshot of the globally-unsafe set, and fold the results with
// CampaignFolder in the canonical unit order (options.apps order, then
// corpus registration order) — the same fold Campaign::Run performs. This
// module owns everything about that fold that does not depend on how a unit
// reaches a worker:
//
//   * the canonical unit list, and BeginApp for every app up to the cursor;
//   * the crash-safe journal (campaign_journal.h): replay of a valid prefix
//     before any dispatch, and one Append per fold — live, stub, or replayed
//     prefix alike, so the journal always holds exactly the fold prefix;
//   * the attempt policy: a failed attempt (dead worker, expired lease,
//     refused dispatch) bumps the unit's attempt count; below
//     CampaignOptions::unit_attempt_limit the unit goes back to the engine's
//     queue behind a capped exponential backoff, at the limit it is
//     quarantined into poisoned_units and folds as an empty stub, so a unit
//     that kills every worker it touches cannot stall the campaign;
//   * the abort_after_folds test hook and the cancel flag;
//   * the staleness predicate below.
//
// Staleness, and why speculation is exact. Let U(k) be the globally-unsafe
// set after folding the first k units; the fold only ever adds to it, so
// U(j) ⊆ U(k) for j ≤ k. A unit reads the set only to drop parameters from
// the ones it tests — pooling, the unpooled ablation and the coupling add-on
// all consult it for members of its params_tested P and nothing else — so a
// result computed under *any* snapshot S is exactly the sequential result
// iff S ∩ P == U(i) ∩ P, where i is the unit's canonical index. A result
// that fails this is *stale* and never folds. The check has two sides:
//
//   * (U(i) \ S) ∩ P ≠ ∅ — the unit tested a parameter the exact run would
//     have skipped. Since U(cursor) ⊆ U(i) and a snapshot is frozen, a
//     result with (U(cursor) \ S) ∩ P ≠ ∅ is provably stale at its own fold
//     turn, so this side may fire for any buffered result, early (TakeStale,
//     and a worker cancelling a doomed unit in flight use only this side).
//   * (S \ U(i)) ∩ P ≠ ∅ — the unit skipped a parameter the exact run would
//     have tested. This happens only when S was a prediction that overshot;
//     it is decided at the unit's fold turn, when the fold's set is U(i).
//
// Snapshots are not fold prefixes: both engines dispatch under a predicted
// ladder (UpdateLadder) — U(cursor) plus what folding the confirmations
// already buffered ahead of the cursor would add — so a snapshot can be
// larger than the current set, and no size comparison can stand in for the
// check. The thread pool hands each dispatch its rung by pointer; the fabric
// sends the ladder over the wire, its agents take the rung covering a unit
// when the unit starts, and the coordinator resolves the (ladder epoch,
// unit) a result reports back to that rung before Buffer — so the second
// side is live for both.
//
// The remedy for a stale result is the engine's choice. The thread pool
// discards every stale buffered result at once (TakeStale) and re-queues
// the wave, so idle workers re-run the units in parallel. The fabric keeps
// stale results buffered until the cursor reaches them and re-runs them
// locally (Advance's `rerun` hook): at the cursor the folder's set is exactly
// U(i), so that re-run is final. It stays synchronous on purpose: while the
// coordinator re-runs it dispatches nothing, which holds speculation back.
// (Scratch builds that re-ran on a helper thread, or re-queued the stale
// results to the agents, made more executions per campaign; docs/PARALLEL.md
// has the numbers.) Both count the discarded results in
// CampaignReport::stale_reruns.
//
// Threading. Every member is for the coordinator thread, except units(),
// attempt() and TakeDispatchable(), which worker threads may call while
// holding the lock that guards the engine's dispatch queue, and the static
// helpers. RecordFailure
// writes only the failed unit's entries; the engine must then publish the
// requeue under that same lock.

#ifndef SRC_CORE_CANONICAL_FOLD_H_
#define SRC_CORE_CANONICAL_FOLD_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/campaign.h"
#include "src/core/campaign_journal.h"

namespace zebra {

// An immutable globally-unsafe set as the coordinator published it. Buffered
// results and dispatches share one instance instead of copying the set.
using UnsafeSnapshot = std::shared_ptr<const std::set<std::string>>;

// One step of the predicted ladder: the snapshot to dispatch units at
// canonical index first_unit and above under (until the next rung).
struct Rung {
  size_t first_unit = 0;
  UnsafeSnapshot unsafe;
};

struct FoldUnit {
  size_t app_index = 0;
  const UnitTestDef* test = nullptr;
};

// Journal and abort controls, as every speculative engine's options carry
// them (see ThreadPoolCampaignOptions).
struct FoldControls {
  std::string journal_path;
  bool resume = false;
  int journal_sync_batch = 1;
  int abort_after_folds = 0;
};

class CanonicalFold {
 public:
  // Resolves the canonical app order with a coordinator-side Campaign (no
  // unit executes through it), builds the unit list, and opens the journal
  // and replays its valid prefix when one is configured. `engine_name`
  // prefixes log lines. Throws Error on a journal fingerprint mismatch.
  CanonicalFold(const char* engine_name, const ConfSchema& schema,
                const UnitTestRegistry& corpus, CampaignOptions options,
                const FoldControls& controls);
  // Worker threads hold its address.
  CanonicalFold(const CanonicalFold&) = delete;
  CanonicalFold& operator=(const CanonicalFold&) = delete;

  const CampaignOptions& options() const { return engine_.options(); }
  const std::vector<FoldUnit>& units() const { return units_; }
  size_t cursor() const { return cursor_; }
  size_t remaining() const { return units_.size() - cursor_; }
  const std::set<std::string>& globally_unsafe() const {
    return folder_.globally_unsafe();
  }

  // The in-progress report, for engine-specific accounting fields.
  CampaignReport& report() { return folder_.report(); }

  // True while units remain to fold and neither the abort hook nor the
  // cancel flag has stopped the campaign (a cancellation is logged once).
  bool KeepGoing();

  // ---- Attempt policy ------------------------------------------------------

  // Failed dispatch attempts so far (stale re-runs are not failures).
  int attempt(size_t unit) const { return attempts_[unit]; }

  // Records one failed attempt. Returns true when the engine should re-queue
  // the unit at the head of its queue (TakeDispatchable holds it back until
  // its backoff elapses; counted in requeued_units), false when the unit
  // reached the attempt limit and is now quarantined.
  bool RecordFailure(size_t unit);

  // Removes and returns the first queued unit whose backoff has elapsed,
  // keeping queue order otherwise; nullopt when the queue is empty or every
  // queued unit is backing off. `earliest_release` (optional) receives the
  // earliest backoff release among the skipped units, or -1.
  std::optional<size_t> TakeDispatchable(
      std::deque<size_t>* queue, double now,
      double* earliest_release = nullptr) const;

  // ---- Speculative results -------------------------------------------------

  // Buffers a unit's result with the snapshot it ran under.
  void Buffer(size_t unit, UnitWorkResult result, UnsafeSnapshot snapshot);

  // Folds buffered results in canonical order (poisoned units as empty
  // stubs) until the cursor's result is missing or the abort hook fires. A
  // result at the cursor that fails the two-sided check stops the fold, or —
  // when `rerun` is set — is replaced by rerun(cursor), which must run the
  // unit under globally_unsafe().
  using Rerun = std::function<UnitWorkResult(size_t unit)>;
  void Advance(const Rerun& rerun = nullptr);

  // Removes every stale buffered result and returns their unit indices in
  // ascending order: the cursor's result under the full two-sided check,
  // every other one under the monotone side only.
  std::vector<size_t> TakeStale();

  // True when a unit that tests `params_tested` and ran under `snapshot` is
  // doomed by `unsafe`, a fold state at or before its turn: some tested
  // parameter is in `unsafe` but not in the snapshot (the monotone side).
  static bool MissesUnsafe(const std::vector<std::string>& params_tested,
                           const std::set<std::string>& snapshot,
                           const std::set<std::string>& unsafe);

  // ---- Predicted ladder ----------------------------------------------------

  // Brings the predicted ladder up to date and returns true when it changed
  // for any unit at or after the cursor (the engine then republishes it).
  // The first rung is U(cursor); each buffered result ahead of the cursor
  // whose confirmations would push a parameter over the frequent-failure
  // threshold (CampaignFolder::WouldMarkUnsafe) starts a new rung after its
  // index. A prediction is only a guess — the two-sided check keeps every
  // fold exact — but a correct one makes the unit's snapshot U(i). Nothing
  // is rebuilt, and nothing allocated, unless a buffered result with
  // confirmations arrived or left, or the set grew other than predicted.
  bool UpdateLadder();
  const std::vector<Rung>& ladder() const { return ladder_; }

  // The rung of `ladder` that unit `unit` dispatches under: the last one
  // whose first_unit ≤ unit. `ladder` must be non-empty.
  static const UnsafeSnapshot& RungFor(const std::vector<Rung>& ladder,
                                       size_t unit);

  // The snapshot holding exactly globally_unsafe(), shared with the ladder.
  // Valid after UpdateLadder.
  const UnsafeSnapshot& current_unsafe() const {
    return RungFor(ladder_, cursor_);
  }

  // Seconds on the clock TakeDispatchable compares backoff releases with.
  static double Now();

  // Begins any apps the fold never reached (unless stopped), fills the
  // journal, requeue, resume and quarantine accounting and the wall clock,
  // and returns the report. The fold is spent afterwards.
  CampaignReport Finish();

 private:
  struct Buffered {
    UnitWorkResult unit;
    UnsafeSnapshot snapshot;
    // Size of the globally-unsafe set when the monotone side last found this
    // result fresh. The set only grows, so an unchanged size needs no
    // re-check.
    size_t fresh_at_size = SIZE_MAX;
  };

  bool IsStale(size_t unit, Buffered& result);
  // Marks the ladder for a rebuild when `result` carries confirmations.
  void TouchLadder(const UnitWorkResult& result);
  void BeginAppsThrough(size_t app_index_exclusive);
  void FoldAtCursor(const UnitWorkResult& unit);

  const std::chrono::steady_clock::time_point start_;
  const char* engine_name_;
  Campaign engine_;  // canonical app order and enumeration-stage counts only
  std::vector<FoldUnit> units_;
  std::vector<int> units_per_app_;
  CampaignFolder folder_;
  std::unique_ptr<CampaignJournal> journal_;
  int abort_after_folds_;

  size_t cursor_ = 0;
  size_t apps_begun_ = 0;
  int live_folds_ = 0;
  bool stopped_ = false;
  int64_t requeued_units_ = 0;
  int64_t resumed_units_ = 0;
  int64_t stale_reruns_ = 0;

  std::map<size_t, Buffered> buffered_;
  std::vector<int> attempts_;
  std::vector<double> not_before_;
  std::set<size_t> poisoned_;

  std::vector<Rung> ladder_;
  std::vector<Rung> next_ladder_;  // rebuild scratch, swapped in on change
  // Extra distinct tests confirming a parameter ahead of the cursor, during
  // a rebuild.
  std::vector<std::pair<const std::string*, int>> predicted_confirmations_;
  bool ladder_dirty_ = true;
  size_t ladder_unsafe_size_ = 0;  // globally_unsafe().size() at last update
};

}  // namespace zebra

#endif  // SRC_CORE_CANONICAL_FOLD_H_
