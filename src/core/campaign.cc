#include "src/core/campaign.h"

#include <algorithm>
#include <chrono>
#include <random>

#include "src/common/logging.h"

namespace zebra {

namespace {

int64_t SumField(const std::map<std::string, AppStageCounts>& per_app,
                 int64_t AppStageCounts::*field) {
  int64_t total = 0;
  for (const auto& [app, counts] : per_app) {
    total += counts.*field;
  }
  return total;
}

// RAII duration-collector installation (exception-safe around a work unit).
class ScopedDurationCollector {
 public:
  explicit ScopedDurationCollector(std::vector<double>* collector) {
    SetRunDurationCollector(collector);
  }
  ~ScopedDurationCollector() { SetRunDurationCollector(nullptr); }
  ScopedDurationCollector(const ScopedDurationCollector&) = delete;
  ScopedDurationCollector& operator=(const ScopedDurationCollector&) = delete;
};

// The pooled plan testing every instance of `pool` at once, built in one
// allocation.
TestPlan PooledPlan(std::span<const GeneratedInstance* const> pool) {
  std::vector<ParamPlan> params;
  params.reserve(pool.size());
  for (const GeneratedInstance* instance : pool) {
    params.push_back(instance->plan);
  }
  return TestPlan(std::move(params));
}

}  // namespace

int64_t CampaignReport::TotalOriginal() const {
  return SumField(per_app, &AppStageCounts::original);
}
int64_t CampaignReport::TotalAfterStatic() const {
  return SumField(per_app, &AppStageCounts::after_static);
}
int64_t CampaignReport::TotalAfterPrerun() const {
  return SumField(per_app, &AppStageCounts::after_prerun);
}
int64_t CampaignReport::TotalAfterUncertainty() const {
  return SumField(per_app, &AppStageCounts::after_uncertainty);
}
int64_t CampaignReport::TotalExecuted() const {
  return SumField(per_app, &AppStageCounts::executed_runs);
}

// ---------------------------------------------------------------------------
// CampaignFolder: canonical-order merge of unit results.
// ---------------------------------------------------------------------------

CampaignFolder::CampaignFolder(const ConfSchema& schema, const CampaignOptions& options)
    : schema_(schema),
      frequent_failure_threshold_(options.frequent_failure_threshold) {}

void CampaignFolder::BeginApp(const std::string& app, int64_t original_count,
                              int64_t after_static_count, int tests_total) {
  AppStageCounts& counts = report_.per_app[app];
  counts.original = original_count;
  counts.after_static = after_static_count;
  counts.tests_total = tests_total;
  report_.sharing[app];  // the app appears in sharing stats even when all-zero

  // Canonical execution order runs every pre-run of an app before any of its
  // dynamic phases (exactly what the sequential campaign does), so all
  // pre-runs count toward runs_to_first_detection of any unit in this app.
  executed_before_ += tests_total;
}

void CampaignFolder::Fold(const UnitWorkResult& unit) {
  AppStageCounts& counts = report_.per_app[unit.app];
  counts.after_prerun += unit.after_prerun;
  counts.after_uncertainty += unit.after_uncertainty;
  counts.executed_runs +=
      unit.prerun_executions + unit.executed_runs + unit.coupling_runs;
  if (unit.started_any_node) {
    ++counts.tests_with_nodes;
  }

  SharingStats& sharing = report_.sharing[unit.app];
  if (unit.any_conf_usage) {
    ++sharing.tests_with_conf_usage;
    if (unit.conf_sharing_detected) {
      ++sharing.tests_with_sharing;
    }
  }

  report_.first_trial_candidates += unit.first_trial_candidates;
  report_.filtered_by_hypothesis += unit.filtered_by_hypothesis;
  report_.cache_hits += unit.cache_hits;
  report_.cache_misses += unit.cache_misses;
  report_.cache_evictions += unit.cache_evictions;
  report_.coupling_runs += unit.coupling_runs;
  report_.coupling_confirmations += unit.coupling_confirmations;
  if (unit.dynamic_phase_skipped) {
    ++report_.units_skipped;
  }

  if (report_.runs_to_first_detection == 0 && unit.runs_to_first_confirmation > 0) {
    report_.runs_to_first_detection =
        executed_before_ + unit.runs_to_first_confirmation;
    report_.first_detection_param = unit.confirmations.front().param;
  }
  // Coupling add-on runs are deliberately excluded: runs_to_first_detection
  // measures the enumerative phase the prioritization optimizes, and must be
  // identical with the add-on on or off.
  executed_before_ += unit.executed_runs;

  for (const UnitConfirmation& confirmation : unit.confirmations) {
    ParamFinding& finding = report_.findings[confirmation.param];
    if (finding.param.empty()) {
      finding.param = confirmation.param;
      const ParamSpec* spec = schema_.Find(confirmation.param);
      finding.owning_app = spec != nullptr ? spec->app : "unknown";
    }
    finding.witness_tests.insert(unit.test_id);
    if (finding.example_failure.empty()) {
      finding.example_failure = confirmation.witness_failure;
    }
    finding.best_p_value = std::min(finding.best_p_value, confirmation.p_value);

    confirmed_tests_per_param_[confirmation.param].insert(unit.test_id);
    if (static_cast<int>(confirmed_tests_per_param_[confirmation.param].size()) >=
        frequent_failure_threshold_) {
      globally_unsafe_.insert(confirmation.param);
    }
  }

  report_.run_durations_seconds.insert(report_.run_durations_seconds.end(),
                                       unit.run_durations.begin(),
                                       unit.run_durations.end());
}

bool CampaignFolder::WouldMarkUnsafe(const std::string& param,
                                     int more_tests) const {
  if (globally_unsafe_.count(param) > 0) {
    return false;
  }
  auto confirmed = confirmed_tests_per_param_.find(param);
  const size_t have =
      confirmed == confirmed_tests_per_param_.end() ? 0 : confirmed->second.size();
  return static_cast<int64_t>(have) + more_tests >= frequent_failure_threshold_;
}

CampaignReport CampaignFolder::Finish() {
  report_.total_unit_test_runs = report_.TotalExecuted();
  return std::move(report_);
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

Campaign::Campaign(const ConfSchema& schema, const UnitTestRegistry& corpus,
                   CampaignOptions options)
    : schema_(schema),
      corpus_(corpus),
      options_(std::move(options)),
      generator_(schema, corpus,
                 GeneratorOptions{options_.enable_round_robin,
                                  options_.prune_unread_instances,
                                  options_.static_prior,
                                  options_.enable_coupling_plans,
                                  options_.max_coupling_plans_per_test}),
      runner_(options_.significance, options_.first_trials) {
  if (options_.apps.empty()) {
    std::set<std::string> apps;
    for (const UnitTestDef& test : corpus_.tests()) {
      apps.insert(test.app);
    }
    options_.apps.assign(apps.begin(), apps.end());
  }
  if (options_.enable_run_cache) {
    run_cache_ = std::make_unique<RunCache>(
        RunCache::Limits{options_.cache_max_entries, options_.cache_max_bytes});
  }
}

bool Campaign::VerifyInstance(const GeneratedInstance& instance, UnitWorkResult* unit,
                              std::set<std::string>* confirmed_in_test) const {
  Verdict verdict = runner_.Verify(instance, &unit->executed_runs);
  if (verdict.kind == Verdict::Kind::kNotCandidate) {
    return false;
  }
  ++unit->first_trial_candidates;
  if (verdict.kind == Verdict::Kind::kFilteredFlaky) {
    ++unit->filtered_by_hypothesis;
    return false;
  }

  // Confirmed unsafe.
  if (unit->runs_to_first_confirmation == 0) {
    unit->runs_to_first_confirmation = unit->executed_runs;
  }
  confirmed_in_test->insert(instance.plan.param);
  unit->confirmations.push_back(UnitConfirmation{
      instance.plan.param, verdict.p_value, verdict.witness_failure});
  return true;
}

void Campaign::BisectPool(const UnitTestDef& test, InstancePool pool,
                          UnitWorkResult* unit,
                          std::set<std::string>* confirmed_in_test) const {
  if (pool.empty()) {
    return;
  }
  if (pool.size() == 1) {
    VerifyInstance(*pool.front(), unit, confirmed_in_test);
    return;
  }
  size_t half = pool.size() / 2;
  for (InstancePool side : {pool.first(half), pool.subspan(half)}) {
    ++unit->executed_runs;
    if (!RunUnitTestVerdict(test, PooledPlan(side), /*trial=*/0).passed) {
      BisectPool(test, side, unit, confirmed_in_test);
    }
  }
}

void Campaign::RunCouplingForTest(const UnitTestDef& test,
                                  const std::vector<CoupledInstance>& coupled,
                                  const std::set<std::string>& globally_unsafe,
                                  UnitWorkResult* unit) const {
  if (coupled.empty()) {
    return;
  }
  std::set<std::string> confirmed_in_test;
  for (const UnitConfirmation& confirmation : unit->confirmations) {
    confirmed_in_test.insert(confirmation.param);
  }
  for (const CoupledInstance& pair : coupled) {
    // A pair with an already-confirmed member cannot be attributed cleanly
    // (the known-unsafe member would explain any failure), so skip it.
    bool any_settled = false;
    for (const std::string& param : pair.params) {
      if (globally_unsafe.count(param) > 0 || confirmed_in_test.count(param) > 0) {
        any_settled = true;
      }
    }
    if (any_settled) {
      continue;
    }

    ++unit->coupling_runs;
    const RunVerdict hetero = RunUnitTestVerdict(test, pair.plan, /*trial=*/0);
    if (hetero.passed) {
      continue;
    }

    // Blame isolation: a member that fails heterogeneous on its own is the
    // enumerative phase's business, not a coupling.
    bool member_fails_alone = false;
    for (const ParamPlan& member : pair.plan.params()) {
      TestPlan solo;
      solo.Add(member);
      ++unit->coupling_runs;
      if (!RunUnitTestVerdict(test, solo, /*trial=*/0).passed) {
        member_fails_alone = true;
        break;
      }
    }
    if (member_fails_alone) {
      continue;
    }

    // Definition 3.1 lifted to pairs: confirm only when every homogeneous
    // control of the pair passes.
    bool controls_pass = true;
    for (int side = 0; side < 2 && controls_pass; ++side) {
      TestPlan homo;
      for (const ParamPlan& member : pair.plan.params()) {
        ParamPlan control = member;
        control.assigner = ValueAssigner::Homogeneous(
            side == 0 ? member.assigner.group_value : member.assigner.other_value);
        homo.Add(std::move(control));
      }
      ++unit->coupling_runs;
      controls_pass = RunUnitTestVerdict(test, homo, /*trial=*/0).passed;
    }
    if (!controls_pass) {
      continue;
    }

    for (const std::string& param : pair.params) {
      confirmed_in_test.insert(param);
      ++unit->coupling_confirmations;
      unit->confirmations.push_back(UnitConfirmation{
          param, options_.significance,
          "coupled failure: " + hetero.failure});
    }
  }
}

std::vector<const Campaign::ParamInstances*> Campaign::ParamOrder(
    const InstancesByParam& by_param) const {
  // Sort keys carry the priority inline. Map iteration is name-sorted, so a
  // stable sort on priority keeps name order within each band — and when
  // every priority is equal (no static prior) it is the identity and skipped.
  struct Key {
    double priority;
    const ParamInstances* group;
  };
  std::vector<Key> keys;
  keys.reserve(by_param.size());
  bool uniform_priority = true;
  for (const ParamInstances& group : by_param) {
    double priority = group.second.front()->plan.static_priority;
    uniform_priority =
        uniform_priority && (keys.empty() || priority == keys.front().priority);
    keys.push_back(Key{priority, &group});
  }
  if (!uniform_priority) {
    std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      return a.priority > b.priority;
    });
  }
  std::vector<const ParamInstances*> order;
  order.reserve(keys.size());
  for (const Key& key : keys) {
    order.push_back(key.group);
  }
  if (options_.shuffle_order_seed != 0) {
    std::mt19937_64 rng(options_.shuffle_order_seed);
    std::shuffle(order.begin(), order.end(), rng);
  }
  return order;
}

bool Campaign::RunPooledForTest(const UnitTestDef& test,
                                const InstancesByParam& by_param,
                                const std::set<std::string>& globally_unsafe,
                                const AbandonCheck* abandon,
                                UnitWorkResult* unit) const {
  std::set<std::string> confirmed_in_test;
  std::vector<const ParamInstances*> order = ParamOrder(by_param);
  // The globally-unsafe set is fixed for the whole unit: drop its members
  // from the visit order once instead of re-checking them every round.
  std::erase_if(order, [&](const ParamInstances* group) {
    return globally_unsafe.count(group->second.front()->plan.param) > 0;
  });
  size_t max_rounds = 0;
  for (const ParamInstances* group : order) {
    max_rounds = std::max(max_rounds, group->second.size());
  }

  std::vector<const GeneratedInstance*> pool;
  pool.reserve(order.size());
  for (size_t round = 0; round < max_rounds; ++round) {
    if (abandon != nullptr && (*abandon)(unit->params_tested)) {
      return false;
    }
    // Pool the round-th instance of every parameter that still has one and
    // is not already settled. Pool order follows the static prior, so
    // bisection descends into the wire-tainted half first.
    pool.clear();
    for (const ParamInstances* group : order) {
      const std::vector<const GeneratedInstance*>& instances = group->second;
      if (round >= instances.size() ||
          confirmed_in_test.count(instances.front()->plan.param) > 0) {
        continue;
      }
      pool.push_back(instances[round]);
    }
    if (pool.empty()) {
      continue;
    }
    ++unit->executed_runs;
    if (RunUnitTestVerdict(test, PooledPlan(pool), /*trial=*/0).passed) {
      continue;  // every pooled parameter assumed safe for this instance
    }
    BisectPool(test, pool, unit, &confirmed_in_test);
  }
  return true;
}

std::optional<UnitWorkResult> Campaign::RunUnitDynamic(
    const PreRunRecord& record, const std::set<std::string>& globally_unsafe,
    const AbandonCheck* abandon) const {
  UnitWorkResult unit;
  unit.app = record.test->app;
  unit.test_id = record.test->id;

  const SessionReport& session = record.result.report;
  unit.any_conf_usage = session.any_conf_usage;
  unit.conf_sharing_detected = session.conf_sharing_detected;
  unit.started_any_node = session.StartedAnyNode();

  // Impacted-only / only-tests restrictions: the pre-run (our read-set
  // probe) already ran; the dynamic phase is what gets skipped.
  if (!options_.only_tests.empty() &&
      options_.only_tests.count(unit.test_id) == 0) {
    unit.dynamic_phase_skipped = true;
    return unit;
  }
  if (!options_.impacted_params.empty()) {
    bool intersects = false;
    for (const std::string& param : session.AllParamsRead()) {
      if (options_.impacted_params.count(param) > 0) {
        intersects = true;
        break;
      }
    }
    if (!intersects) {
      unit.dynamic_phase_skipped = true;
      return unit;
    }
  }

  int64_t before_uncertainty = 0;
  std::vector<GeneratedInstance> instances =
      generator_.Generate(record, &before_uncertainty);
  unit.after_prerun = before_uncertainty;
  unit.after_uncertainty = static_cast<int64_t>(instances.size());
  if (instances.empty()) {
    return unit;
  }

  // Coupled plans are derived from the generated instances before they are
  // regrouped below; pairs with a filtered-out member are dropped.
  std::vector<CoupledInstance> coupled =
      generator_.GenerateCoupled(record, instances);
  coupled.erase(
      std::remove_if(coupled.begin(), coupled.end(),
                     [this](const CoupledInstance& pair) {
                       for (const std::string& param : pair.params) {
                         if (!options_.only_params.empty() &&
                             options_.only_params.count(param) == 0) {
                           return true;
                         }
                         if (options_.exclude_params.count(param) > 0) {
                           return true;
                         }
                       }
                       return false;
                     }),
      coupled.end());

  InstancesByParam by_param;
  for (const GeneratedInstance& instance : instances) {
    const std::string& param = instance.plan.param;
    if (!options_.only_params.empty() && options_.only_params.count(param) == 0) {
      continue;
    }
    if (options_.exclude_params.count(param) > 0) {
      continue;
    }
    by_param[param].push_back(&instance);
  }
  unit.params_tested.reserve(by_param.size());
  for (const auto& [param, param_instances] : by_param) {
    unit.params_tested.emplace_back(param);
  }

  if (options_.enable_pooling) {
    if (!RunPooledForTest(*record.test, by_param, globally_unsafe, abandon,
                          &unit)) {
      return std::nullopt;
    }
  } else {
    // Ablation: verify every instance individually (stop per parameter once
    // confirmed in this test).
    std::set<std::string> confirmed_in_test;
    for (const ParamInstances* group : ParamOrder(by_param)) {
      const std::string& param = group->second.front()->plan.param;
      for (const GeneratedInstance* instance : group->second) {
        if (globally_unsafe.count(param) > 0 || confirmed_in_test.count(param) > 0) {
          break;
        }
        VerifyInstance(*instance, &unit, &confirmed_in_test);
      }
    }
  }

  // Coupling add-on: strictly after the enumerative phase, so that phase's
  // results (and runs_to_first accounting) are untouched whether or not the
  // add-on runs.
  RunCouplingForTest(*record.test, coupled, globally_unsafe, &unit);
  return unit;
}

UnitWorkResult Campaign::RunUnit(const UnitTestDef& test,
                                 const std::set<std::string>& globally_unsafe) {
  return *TryRunUnit(test, globally_unsafe, nullptr);
}

std::optional<UnitWorkResult> Campaign::TryRunUnit(
    const UnitTestDef& test, const std::set<std::string>& globally_unsafe,
    const AbandonCheck& abandon) {
  RunCache* cache = active_cache();
  ScopedRunCache scoped_cache(cache);
  // Per-unit stat deltas only make sense when this engine is the cache's
  // sole user; under a shared cache, concurrent workers move the counters
  // between our two reads, so the deltas are skipped and the scheduler
  // fills report totals from the shared cache once at the end.
  const bool track_unit_stats = cache != nullptr && shared_run_cache_ == nullptr;
  RunCache::Stats stats_before;
  if (track_unit_stats) {
    stats_before = cache->stats();
  }

  std::vector<double> durations;
  std::optional<UnitWorkResult> unit;
  {
    ScopedDurationCollector scoped_collector(&durations);
    int64_t prerun_executions = 0;
    PreRunRecord record = generator_.PreRunTest(test, &prerun_executions);
    unit = RunUnitDynamic(record, globally_unsafe, abandon ? &abandon : nullptr);
    if (!unit) {
      return std::nullopt;
    }
    unit->prerun_executions = prerun_executions;
  }
  unit->run_durations = std::move(durations);
  if (track_unit_stats) {
    RunCache::Stats stats = cache->stats();
    unit->cache_hits = stats.hits - stats_before.hits;
    unit->cache_misses = stats.misses - stats_before.misses;
    unit->cache_evictions = stats.evictions - stats_before.evictions;
  }
  return unit;
}

CampaignReport Campaign::Run() {
  CampaignFolder folder(schema_, options_);
  ScopedRunCache scoped_cache(run_cache_.get());
  ScopedDurationCollector scoped_collector(&folder.report().run_durations_seconds);
  auto start = std::chrono::steady_clock::now();

  // Cancellation (SIGINT/SIGTERM via options_.cancel_flag) is honored at
  // unit boundaries only: the report stays a valid fold prefix, and callers
  // holding a run cache get the chance to persist it before exiting.
  auto cancelled = [this]() {
    return options_.cancel_flag != nullptr && *options_.cancel_flag != 0;
  };

  for (const std::string& app : options_.apps) {
    if (cancelled()) {
      break;
    }
    std::vector<PreRunRecord> records = generator_.PreRunApp(app, nullptr);
    folder.BeginApp(app, generator_.OriginalInstanceCount(app),
                    generator_.StaticPrunedInstanceCount(app),
                    static_cast<int>(records.size()));

    for (const PreRunRecord& record : records) {
      if (cancelled()) {
        ZLOG_WARN << "campaign: cancellation requested; stopping app " << app
                  << " early";
        break;
      }
      UnitWorkResult unit =
          *RunUnitDynamic(record, folder.globally_unsafe(), nullptr);
      unit.prerun_executions = 1;  // the PreRunApp baseline for this record
      folder.Fold(unit);
    }

    ZLOG_INFO << "campaign: app " << app << " done, runs so far "
              << folder.report().TotalExecuted();
  }

  auto end = std::chrono::steady_clock::now();
  if (run_cache_ != nullptr) {
    RunCache::Stats stats = run_cache_->stats();
    folder.report().cache_hits = stats.hits;
    folder.report().cache_misses = stats.misses;
    folder.report().cache_evictions = stats.evictions;
    folder.report().cache_load_failures = stats.load_failures;
  }
  folder.report().wall_seconds = std::chrono::duration<double>(end - start).count();
  return folder.Finish();
}

}  // namespace zebra
