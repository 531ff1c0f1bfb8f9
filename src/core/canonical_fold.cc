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
  buffered_[unit] = Buffered{std::move(result), std::move(snapshot)};
}

bool CanonicalFold::IsStale(const Buffered& result) const {
  const std::set<std::string>& unsafe = folder_.globally_unsafe();
  if (result.snapshot->size() == unsafe.size()) {
    return false;
  }
  for (const std::string& param : result.unit.params_tested) {
    if (unsafe.count(param) > 0 && result.snapshot->count(param) == 0) {
      return true;
    }
  }
  return false;
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
    if (IsStale(it->second)) {
      if (!rerun) {
        return;
      }
      ZLOG_INFO << engine_name_ << ": re-running unit "
                << it->second.unit.test_id
                << " locally (stale globally-unsafe snapshot)";
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
    if (IsStale(it->second)) {
      ZLOG_INFO << engine_name_ << ": re-running unit "
                << it->second.unit.test_id
                << " (stale globally-unsafe snapshot)";
      stale.push_back(it->first);
      it = buffered_.erase(it);
    } else {
      ++it;
    }
  }
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
