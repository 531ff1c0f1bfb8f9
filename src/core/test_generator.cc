#include "src/core/test_generator.h"

#include <algorithm>
#include <set>

#include "src/runtime/node_types.h"

namespace zebra {

TestGenerator::TestGenerator(const ConfSchema& schema, const UnitTestRegistry& corpus,
                             GeneratorOptions options)
    : schema_(schema), corpus_(corpus), options_(options) {
  catalogue_.reserve(schema_.params().size());
  for (const ParamSpec& spec : schema_.params()) {
    CatalogueEntry& entry = catalogue_.emplace_back();
    entry.spec = &spec;
    if (options_.static_prior != nullptr) {
      entry.static_priority = options_.static_prior->PriorityOf(spec.name);
    }
    for (auto& [v1, v2] : ValuePairs(spec)) {
      CataloguePair& pair = entry.pairs.emplace_back();
      for (const std::string* value : {&v1, &v2}) {
        for (auto& dep : schema_.DependencyOverrides(spec.name, *value)) {
          if (std::find(pair.overrides.begin(), pair.overrides.end(), dep) ==
              pair.overrides.end()) {
            pair.overrides.push_back(std::move(dep));
          }
        }
      }
      pair.v1 = std::move(v1);
      pair.v2 = std::move(v2);
    }
  }
  // Every app owning a parameter gets its list; an app owning none sees only
  // the shared-library parameters, which is the kSharedApp list.
  for (const std::string& app : schema_.Apps()) {
    std::vector<size_t>& entries = app_catalogue_[app];
    for (const ParamSpec* spec : schema_.ParamsForApp(app)) {
      if (options_.static_prior != nullptr &&
          options_.static_prior->IsNeverRead(spec->name)) {
        continue;  // statically pruned before enumeration
      }
      entries.push_back(static_cast<size_t>(spec - schema_.params().data()));
    }
  }
  app_catalogue_[kSharedApp];  // present (possibly empty) for the fallback
}

const std::vector<size_t>& TestGenerator::CatalogueFor(const std::string& app) const {
  auto it = app_catalogue_.find(app);
  return it != app_catalogue_.end() ? it->second : app_catalogue_.at(kSharedApp);
}

std::vector<PreRunRecord> TestGenerator::PreRunApp(const std::string& app,
                                                   int64_t* executions) const {
  std::vector<PreRunRecord> records;
  for (const UnitTestDef* test : corpus_.ForApp(app)) {
    records.push_back(PreRunTest(*test, executions));
  }
  return records;
}

PreRunRecord TestGenerator::PreRunTest(const UnitTestDef& test,
                                       int64_t* executions) const {
  PreRunRecord record;
  record.test = &test;
  record.result = RunUnitTest(test, TestPlan{}, /*trial=*/0);
  if (executions != nullptr) {
    ++*executions;
  }
  return record;
}

std::vector<std::pair<std::string, std::string>> TestGenerator::ValuePairs(
    const ParamSpec& spec) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 0; i < spec.test_values.size(); ++i) {
    for (size_t j = i + 1; j < spec.test_values.size(); ++j) {
      pairs.emplace_back(spec.test_values[i], spec.test_values[j]);
    }
  }
  return pairs;
}

int64_t TestGenerator::OriginalInstanceCount(const std::string& app) const {
  int64_t tests = static_cast<int64_t>(corpus_.ForApp(app).size());
  int64_t node_types = static_cast<int64_t>(NodeTypesForApp(app).size());
  if (node_types == 0) {
    return 0;
  }
  int64_t per_test = 0;
  for (const ParamSpec* spec : schema_.ParamsForApp(app)) {
    // Without pre-run knowledge the user must assume every node type may use
    // the parameter and that every group may contain several nodes (so all
    // four assignment strategies apply).
    per_test += static_cast<int64_t>(ValuePairs(*spec).size()) * node_types * 4;
  }
  return tests * per_test;
}

int64_t TestGenerator::StaticPrunedInstanceCount(const std::string& app) const {
  if (options_.static_prior == nullptr) {
    return OriginalInstanceCount(app);
  }
  int64_t tests = static_cast<int64_t>(corpus_.ForApp(app).size());
  int64_t node_types = static_cast<int64_t>(NodeTypesForApp(app).size());
  if (node_types == 0) {
    return 0;
  }
  int64_t per_test = 0;
  for (const ParamSpec* spec : schema_.ParamsForApp(app)) {
    if (options_.static_prior->IsNeverRead(spec->name)) {
      continue;  // statically pruned: no read site anywhere in the sources
    }
    per_test += static_cast<int64_t>(ValuePairs(*spec).size()) * node_types * 4;
  }
  return tests * per_test;
}

std::vector<GeneratedInstance> TestGenerator::Generate(
    const PreRunRecord& record, int64_t* count_before_uncertainty) const {
  std::vector<GeneratedInstance> instances;
  int64_t before_uncertainty = 0;

  const SessionReport& report = record.result.report;
  if (!report.StartedAnyNode()) {
    // Function-level tests cannot exercise heterogeneous configurations.
    if (count_before_uncertainty != nullptr) {
      *count_before_uncertainty = 0;
    }
    return instances;
  }

  for (size_t index : CatalogueFor(record.test->app)) {
    const CatalogueEntry& entry = catalogue_[index];
    const std::string& param = entry.spec->name;
    const bool uncertain = report.uncertain_params.count(param) > 0;
    for (const auto& [entity, params_read] : report.reads) {
      if (options_.prune_unread_instances && params_read.count(param) == 0) {
        continue;
      }
      // Uniform both polarities; round-robin both polarities too when enabled
      // and the group has at least two nodes.
      auto count_it = report.node_counts.find(entity);
      const bool round_robin = options_.enable_round_robin &&
                               count_it != report.node_counts.end() &&
                               count_it->second >= 2;
      before_uncertainty +=
          static_cast<int64_t>(entry.pairs.size()) * (round_robin ? 4 : 2);
      if (uncertain) {
        continue;  // excluded: reads through unmappable conf objects
      }
      for (const CataloguePair& pair : entry.pairs) {
        auto emit = [&](AssignStrategy strategy, const std::string& group_value,
                        const std::string& other_value) {
          GeneratedInstance& instance = instances.emplace_back();
          instance.test = record.test;
          instance.plan.param = param;
          instance.plan.assigner.strategy = strategy;
          instance.plan.assigner.group_type = entity;
          instance.plan.assigner.group_value = group_value;
          instance.plan.assigner.other_value = other_value;
          instance.plan.extra_overrides = pair.overrides;
          instance.plan.static_priority = entry.static_priority;
        };
        emit(AssignStrategy::kUniformGroup, pair.v1, pair.v2);
        emit(AssignStrategy::kUniformGroup, pair.v2, pair.v1);
        if (round_robin) {
          emit(AssignStrategy::kRoundRobinGroup, pair.v1, pair.v2);
          emit(AssignStrategy::kRoundRobinGroup, pair.v2, pair.v1);
        }
      }
    }
  }

  if (count_before_uncertainty != nullptr) {
    *count_before_uncertainty = before_uncertainty;
  }
  return instances;
}

std::vector<CoupledInstance> TestGenerator::GenerateCoupled(
    const PreRunRecord& record,
    const std::vector<GeneratedInstance>& instances) const {
  std::vector<CoupledInstance> coupled;
  if (!options_.enable_coupling_plans || options_.static_prior == nullptr ||
      options_.max_coupling_plans_per_test <= 0) {
    return coupled;
  }

  // The first generated instance of each parameter is its canonical
  // representative: the first value pair under the uniform assignment — the
  // same ParamPlan the single-parameter phase runs first.
  std::map<std::string, const GeneratedInstance*> representative;
  std::set<std::string> surviving;
  for (const GeneratedInstance& instance : instances) {
    if (representative.emplace(instance.plan.param, &instance).second) {
      surviving.insert(instance.plan.param);
    }
  }

  std::set<std::pair<std::string, std::string>> seen;
  for (const std::vector<std::string>& group :
       options_.static_prior->CouplingSetsAmong(surviving)) {
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        if (static_cast<int>(coupled.size()) >=
            options_.max_coupling_plans_per_test) {
          return coupled;
        }
        if (!seen.emplace(group[i], group[j]).second) {
          continue;  // the pair already appeared through another set
        }
        CoupledInstance pair;
        pair.test = record.test;
        pair.plan.Add(representative.at(group[i])->plan);
        pair.plan.Add(representative.at(group[j])->plan);
        pair.params = {group[i], group[j]};
        coupled.push_back(std::move(pair));
      }
    }
  }
  return coupled;
}

}  // namespace zebra
