// TestGenerator (paper §4): decides which unit tests to run with which
// heterogeneous configurations.
//
// Implements, in order:
//  * independent-parameter testing with developer dependency rules,
//  * candidate-value selection from the schema,
//  * representative value assignments (per-type-group uniform and
//    round-robin, both polarities),
//  * pre-running unit tests to record which node type reads which parameter
//    (instances targeting nodes that never read the parameter are never
//    generated),
//  * exclusion of parameters read through unmappable ("uncertain")
//    configuration objects.
//
// It also computes the stage-by-stage instance counts that reproduce the
// paper's Table 5.

#ifndef SRC_CORE_TEST_GENERATOR_H_
#define SRC_CORE_TEST_GENERATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/static_prior.h"
#include "src/conf/conf_schema.h"
#include "src/conf/test_plan.h"
#include "src/testkit/test_execution.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {

// One (unit test, single-parameter heterogeneous configuration) pair.
struct GeneratedInstance {
  const UnitTestDef* test = nullptr;
  ParamPlan plan;
};

// The pre-run of one unit test.
struct PreRunRecord {
  const UnitTestDef* test = nullptr;
  TestResult result;
};

// One pairwise coupled plan: two parameters the static prior placed in the
// same coupling set (they reach the same sink statement or wire path), made
// heterogeneous simultaneously. Exactly two ParamPlans — each the canonical
// representative instance the single-parameter phase runs first.
struct CoupledInstance {
  const UnitTestDef* test = nullptr;
  TestPlan plan;
  std::vector<std::string> params;  // the two member parameters, plan order
};

struct GeneratorOptions {
  // §4's second assignment strategy: round-robin values within a node-type
  // group. Disabling it (ablation) loses every unsafety that only manifests
  // *between nodes of the same type* — e.g. TaskManager-to-TaskManager SSL.
  bool enable_round_robin = true;

  // Pre-run read-set instance pruning (§4): only enumerate (parameter,
  // entity) targets the pre-run saw that entity read. Disabling it models a
  // user without pre-run knowledge — every started node group is targeted
  // for every parameter (the paper's Table 5 ablation).
  bool prune_unread_instances = true;

  // Optional zebralint prior (§8: static analysis shrinks the dynamic search
  // space). When set, schema parameters with zero static read sites are
  // dropped before enumeration (the "after_static" Table-5 stage) and every
  // generated ParamPlan carries the parameter's static priority so the
  // campaign can test wire-tainted parameters first. Not owned.
  const analysis::StaticPriorReport* static_prior = nullptr;

  // Coupling plans (flow-graph layer): parameters the static prior placed in
  // one coupling set are additionally tested as pairwise combinations after
  // the single-parameter phase. Requires static_prior; the campaign ablates
  // it via --no-coupling-plans. Coupled plans can only ever ADD findings —
  // the single-parameter phase is untouched (superset gate, CI-enforced).
  bool enable_coupling_plans = true;

  // Deterministic cap on coupled plans per unit test (the canonical prefix
  // of the coupling-set pair order).
  int max_coupling_plans_per_test = 8;
};

class TestGenerator {
 public:
  TestGenerator(const ConfSchema& schema, const UnitTestRegistry& corpus,
                GeneratorOptions options = {});

  const ConfSchema& schema() const { return schema_; }
  const UnitTestRegistry& corpus() const { return corpus_; }

  // Runs every unit test of `app` once with an empty plan, recording node
  // types started and parameter reads per entity. Increments *executions per
  // run.
  std::vector<PreRunRecord> PreRunApp(const std::string& app, int64_t* executions) const;

  // Pre-runs a single unit test (the per-work-unit variant used by parallel
  // scheduler workers). Pre-runs are deterministic, so a worker re-running
  // one reproduces exactly the record a whole-app pre-run would have built.
  PreRunRecord PreRunTest(const UnitTestDef& test, int64_t* executions) const;

  // Table 5 row 1: what a user with our expertise but no pre-run information
  // would enumerate — every test x every app parameter x every value pair x
  // every assignment over all of the app's node types.
  int64_t OriginalInstanceCount(const std::string& app) const;

  // The same enumeration after static pruning: parameters zebralint proves
  // are never read cannot influence behavior and are dropped. Equals
  // OriginalInstanceCount when no static prior is configured.
  int64_t StaticPrunedInstanceCount(const std::string& app) const;

  // Instances for one pre-run record. `*count_before_uncertainty` receives
  // the Table 5 row 2 contribution (instances before dropping parameters read
  // through uncertain configuration objects); the returned vector is the
  // row 3 set. Instances are copied out of the catalogue the constructor
  // built; nothing per parameter is recomputed here.
  std::vector<GeneratedInstance> Generate(const PreRunRecord& record,
                                          int64_t* count_before_uncertainty) const;

  // Pairwise coupled plans for one pre-run record, built from the instances
  // Generate produced for it: every unordered pair within a static coupling
  // set whose members both survived enumeration, capped at
  // max_coupling_plans_per_test. Empty when the prior is absent or coupling
  // plans are disabled. Deterministic: pair order follows the report's
  // coupling-set order.
  std::vector<CoupledInstance> GenerateCoupled(
      const PreRunRecord& record,
      const std::vector<GeneratedInstance>& instances) const;

  // All unordered pairs of a parameter's candidate values.
  static std::vector<std::pair<std::string, std::string>> ValuePairs(
      const ParamSpec& spec);

 private:
  // One value pair of a catalogued parameter with the merged dependency
  // overrides of both values (first occurrence wins, v1's rules first).
  struct CataloguePair {
    std::string v1;
    std::string v2;
    std::vector<std::pair<std::string, std::string>> overrides;
  };

  // Everything Generate needs about one schema parameter, computed once at
  // construction so instances are emitted straight from the table.
  struct CatalogueEntry {
    const ParamSpec* spec = nullptr;
    double static_priority = 1.0;
    std::vector<CataloguePair> pairs;
  };

  // Indices into catalogue_ of the parameters testable for `app`, in
  // ParamsForApp order, statically pruned parameters already dropped.
  const std::vector<size_t>& CatalogueFor(const std::string& app) const;

  const ConfSchema& schema_;
  const UnitTestRegistry& corpus_;
  GeneratorOptions options_;
  std::vector<CatalogueEntry> catalogue_;  // parallel to schema_.params()
  std::map<std::string, std::vector<size_t>> app_catalogue_;
};

}  // namespace zebra

#endif  // SRC_CORE_TEST_GENERATOR_H_
