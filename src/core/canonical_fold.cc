#include "src/core/canonical_fold.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/logging.h"

namespace zebra {

CanonicalFold::CanonicalFold(const char* engine_name, const ConfSchema& schema,
                             const UnitTestRegistry& corpus,
                             CampaignOptions options,
                             const FoldControls& controls)
    : start_(std::chrono::steady_clock::now()),
      engine_name_(engine_name),
      engine_(schema, corpus, std::move(options)),
      units_per_app_(engine_.options().apps.size(), 0),
      folder_(schema, engine_.options()),
      abort_after_folds_(controls.abort_after_folds) {
  const std::vector<std::string>& apps = engine_.options().apps;
  for (size_t app_index = 0; app_index < apps.size(); ++app_index) {
    for (const UnitTestDef* test : corpus.ForApp(apps[app_index])) {
      units_.push_back(FoldUnit{app_index, test});
      ++units_per_app_[app_index];
    }
  }
  attempts_.assign(units_.size(), 0);
  not_before_.assign(units_.size(), 0.0);

  // Replay the recovered prefix through the fold before anything is
  // dispatched, so the remaining dispatch is exactly the uninterrupted
  // campaign's suffix.
  if (controls.journal_path.empty()) {
    return;
  }
  journal_ = std::make_unique<CampaignJournal>(
      controls.journal_path,
      CampaignJournal::Fingerprint(engine_.options(), corpus), controls.resume,
      CampaignJournal::SyncPolicy{controls.journal_sync_batch});
  for (const auto& [index, unit] : journal_->recovered()) {
    if (index != cursor_ || cursor_ >= units_.size()) {
      ZLOG_WARN << "campaign journal: record out of canonical order; "
                   "ignoring the rest of the recovered prefix";
      break;
    }
    BeginAppsThrough(units_[cursor_].app_index + 1);
    folder_.Fold(unit);
    ++cursor_;
    ++resumed_units_;
  }
  if (resumed_units_ > 0) {
    ZLOG_INFO << "campaign journal: resumed " << resumed_units_ << " of "
              << units_.size() << " units from " << controls.journal_path;
  }
}

double CanonicalFold::Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool CanonicalFold::KeepGoing() {
  if (stopped_ || cursor_ >= units_.size()) {
    return false;
  }
  const volatile std::sig_atomic_t* cancel = options().cancel_flag;
  if (cancel != nullptr && *cancel != 0) {
    ZLOG_WARN << engine_name_ << ": cancellation requested; stopping after "
              << cursor_ << " of " << units_.size() << " units";
    stopped_ = true;
    return false;
  }
  return true;
}

bool CanonicalFold::RecordFailure(size_t unit) {
  ++attempts_[unit];
  const CampaignOptions& resolved = options();
  if (attempts_[unit] >= resolved.unit_attempt_limit) {
    ZLOG_WARN << engine_name_ << ": unit " << units_[unit].test->id
              << " failed " << attempts_[unit]
              << " attempts; quarantining as poisoned";
    poisoned_.insert(unit);
    return false;
  }
  // Capped exponential backoff, so a transient environment problem (fd
  // pressure, an OOM-killer sweep) gets time to clear.
  double backoff = std::min(resolved.requeue_backoff_cap_seconds,
                            resolved.requeue_backoff_seconds *
                                std::pow(2.0, attempts_[unit] - 1));
  not_before_[unit] = Now() + std::max(0.0, backoff);
  ++requeued_units_;
  return true;
}

std::optional<size_t> CanonicalFold::TakeDispatchable(
    std::deque<size_t>* queue, double now, double* earliest_release) const {
  double earliest = -1.0;
  for (auto it = queue->begin(); it != queue->end(); ++it) {
    double release = not_before_[*it];
    if (release <= now) {
      size_t unit = *it;
      queue->erase(it);
      return unit;
    }
    earliest = earliest < 0 ? release : std::min(earliest, release);
  }
  if (earliest_release != nullptr) {
    *earliest_release = earliest;
  }
  return std::nullopt;
}

void CanonicalFold::Buffer(size_t unit, UnitWorkResult result,
                           UnsafeSnapshot snapshot) {
  TouchLadder(result);
  Buffered& slot = buffered_[unit];
  TouchLadder(slot.unit);  // a replaced result leaves the prediction too
  slot = Buffered{std::move(result), std::move(snapshot)};
}

bool CanonicalFold::MissesUnsafe(const std::vector<std::string>& params_tested,
                                 const std::set<std::string>& snapshot,
                                 const std::set<std::string>& unsafe) {
  for (const std::string& param : params_tested) {
    if (unsafe.count(param) > 0 && snapshot.count(param) == 0) {
      return true;
    }
  }
  return false;
}

bool CanonicalFold::IsStale(size_t unit, Buffered& result) {
  const std::set<std::string>& unsafe = folder_.globally_unsafe();
  const std::set<std::string>& snapshot = *result.snapshot;
  if (unit == cursor_) {
    // At its fold turn the fold's set is exactly U(i): the result is the
    // sequential one iff the snapshot agrees with it on every tested
    // parameter.
    for (const std::string& param : result.unit.params_tested) {
      if ((unsafe.count(param) > 0) != (snapshot.count(param) > 0)) {
        return true;
      }
    }
    return false;
  }
  // Ahead of the cursor only the monotone side is decided.
  if (result.fresh_at_size == unsafe.size()) {
    return false;
  }
  if (MissesUnsafe(result.unit.params_tested, snapshot, unsafe)) {
    return true;
  }
  result.fresh_at_size = unsafe.size();
  return false;
}

void CanonicalFold::TouchLadder(const UnitWorkResult& result) {
  if (!result.confirmations.empty()) {
    ladder_dirty_ = true;
  }
}

const UnsafeSnapshot& CanonicalFold::RungFor(const std::vector<Rung>& ladder,
                                             size_t unit) {
  auto above = std::upper_bound(
      ladder.begin(), ladder.end(), unit,
      [](size_t index, const Rung& rung) { return index < rung.first_unit; });
  return above == ladder.begin() ? ladder.front().unsafe
                                 : std::prev(above)->unsafe;
}

bool CanonicalFold::UpdateLadder() {
  const std::set<std::string>& unsafe = folder_.globally_unsafe();
  if (!ladder_dirty_ && !ladder_.empty()) {
    if (unsafe.size() == ladder_unsafe_size_) {
      return false;
    }
    // The set grew at the cursor. When the ladder predicted exactly that
    // growth, the rung covering the cursor already holds the new set.
    if (*current_unsafe() == unsafe) {
      ladder_unsafe_size_ = unsafe.size();
      return false;
    }
  }
  ladder_dirty_ = false;
  ladder_unsafe_size_ = unsafe.size();

  // A rung whose set equals the old ladder's set at the same index keeps the
  // old snapshot, so an unchanged ladder compares equal pointer for pointer.
  auto snapshot_for = [this](size_t first_unit,
                             const std::set<std::string>& set) {
    if (!ladder_.empty()) {
      const UnsafeSnapshot& old = RungFor(ladder_, first_unit);
      if (*old == set) {
        return old;
      }
    }
    return UnsafeSnapshot(std::make_shared<const std::set<std::string>>(set));
  };
  next_ladder_.clear();
  next_ladder_.push_back(Rung{cursor_, snapshot_for(cursor_, unsafe)});

  // Replay the buffered confirmations ahead of the cursor in canonical
  // order, counting the extra distinct tests each parameter would gain.
  predicted_confirmations_.clear();
  std::set<std::string> predicted;
  bool predicting = false;  // `predicted` holds a copy of the set
  for (auto it = buffered_.lower_bound(cursor_); it != buffered_.end(); ++it) {
    bool grew = false;
    for (const UnitConfirmation& confirmation : it->second.unit.confirmations) {
      auto counted = std::find_if(
          predicted_confirmations_.begin(), predicted_confirmations_.end(),
          [&](const auto& entry) { return *entry.first == confirmation.param; });
      if (counted == predicted_confirmations_.end()) {
        predicted_confirmations_.emplace_back(&confirmation.param, 0);
        counted = std::prev(predicted_confirmations_.end());
      }
      ++counted->second;
      if (!folder_.WouldMarkUnsafe(confirmation.param, counted->second)) {
        continue;
      }
      if (!predicting) {
        predicted = unsafe;  // copied only once something is predicted
        predicting = true;
      }
      grew = predicted.insert(confirmation.param).second || grew;
    }
    if (grew) {
      next_ladder_.push_back(
          Rung{it->first + 1, snapshot_for(it->first + 1, predicted)});
    }
  }

  // Compare the two step functions over units at or after the cursor. Both
  // grow strictly from rung to rung, so equal functions have equal
  // breakpoints and (by the reuse above) equal snapshot pointers.
  auto from_cursor = [this](const std::vector<Rung>& ladder) {
    auto above = std::upper_bound(
        ladder.begin(), ladder.end(), cursor_,
        [](size_t index, const Rung& rung) { return index < rung.first_unit; });
    return above == ladder.begin() ? above : std::prev(above);
  };
  auto old_rung = from_cursor(ladder_);
  auto new_rung = next_ladder_.cbegin();
  bool same = ladder_.end() - old_rung == next_ladder_.end() - new_rung;
  for (bool first = true; same && new_rung != next_ladder_.cend();
       ++old_rung, ++new_rung, first = false) {
    same = old_rung->unsafe == new_rung->unsafe &&
           (first || old_rung->first_unit == new_rung->first_unit);
  }
  if (same) {
    return false;
  }
  ladder_.swap(next_ladder_);
  return true;
}

void CanonicalFold::BeginAppsThrough(size_t app_index_exclusive) {
  const std::vector<std::string>& apps = engine_.options().apps;
  while (apps_begun_ < app_index_exclusive) {
    const std::string& app = apps[apps_begun_];
    folder_.BeginApp(app, engine_.generator().OriginalInstanceCount(app),
                     engine_.generator().StaticPrunedInstanceCount(app),
                     units_per_app_[apps_begun_]);
    ++apps_begun_;
  }
}

void CanonicalFold::FoldAtCursor(const UnitWorkResult& unit) {
  BeginAppsThrough(units_[cursor_].app_index + 1);
  folder_.Fold(unit);
  if (journal_) {
    journal_->Append(cursor_, unit);
  }
  ++cursor_;
}

void CanonicalFold::Advance(const Rerun& rerun) {
  while (cursor_ < units_.size()) {
    if (poisoned_.count(cursor_) > 0) {
      // The quarantined unit contributed nothing; its id is reported in
      // poisoned_units.
      UnitWorkResult stub;
      stub.app = engine_.options().apps[units_[cursor_].app_index];
      stub.test_id = units_[cursor_].test->id;
      FoldAtCursor(stub);
      continue;
    }
    auto it = buffered_.find(cursor_);
    if (it == buffered_.end()) {
      return;
    }
    if (IsStale(cursor_, it->second)) {
      if (!rerun) {
        return;
      }
      ZLOG_INFO << engine_name_ << ": re-running unit "
                << it->second.unit.test_id
                << " locally (stale globally-unsafe snapshot)";
      ++stale_reruns_;
      TouchLadder(it->second.unit);
      it->second.unit = rerun(cursor_);
    }
    FoldAtCursor(it->second.unit);
    buffered_.erase(it);
    ++live_folds_;
    if (abort_after_folds_ > 0 && live_folds_ >= abort_after_folds_) {
      stopped_ = true;  // simulated coordinator crash (test hook)
      return;
    }
  }
}

std::vector<size_t> CanonicalFold::TakeStale() {
  std::vector<size_t> stale;
  for (auto it = buffered_.begin(); it != buffered_.end();) {
    if (IsStale(it->first, it->second)) {
      ZLOG_INFO << engine_name_ << ": re-running unit "
                << it->second.unit.test_id
                << " (stale globally-unsafe snapshot)";
      stale.push_back(it->first);
      TouchLadder(it->second.unit);
      it = buffered_.erase(it);
    } else {
      ++it;
    }
  }
  stale_reruns_ += static_cast<int64_t>(stale.size());
  return stale;
}

CampaignReport CanonicalFold::Finish() {
  if (!stopped_) {
    // Apps with zero units (or nothing at all to run) still appear in the
    // report with their enumeration-stage counts, as in the sequential run.
    BeginAppsThrough(engine_.options().apps.size());
  }
  CampaignReport& report = folder_.report();
  report.requeued_units = requeued_units_;
  report.resumed_units = resumed_units_;
  report.stale_reruns = stale_reruns_;
  if (journal_) {
    // Under a batched sync policy a clean exit must not leave an unsynced
    // tail — flush before reading the failure counter so a sync error here
    // is still accounted.
    journal_->Flush();
    report.journal_append_failures = journal_->append_failures();
  }
  for (size_t unit : poisoned_) {
    report.poisoned_units.push_back(units_[unit].test->id);
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return folder_.Finish();
}

}  // namespace zebra
