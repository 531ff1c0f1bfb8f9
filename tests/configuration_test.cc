// Tests for the Configuration class: typed accessors, defaults, cloning,
// and interaction with ConfAgent plans.

#include "src/conf/configuration.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/conf/conf_agent.h"

namespace zebra {
namespace {

TEST(ConfigurationTest, GetReturnsDefaultForMissingKey) {
  Configuration conf;
  EXPECT_EQ(conf.Get("absent", "fallback"), "fallback");
  EXPECT_EQ(conf.Get("absent"), "");
  EXPECT_FALSE(conf.Has("absent"));
}

TEST(ConfigurationTest, SetThenGet) {
  Configuration conf;
  conf.Set("k", "v");
  EXPECT_TRUE(conf.Has("k"));
  EXPECT_EQ(conf.Get("k", "other"), "v");
}

TEST(ConfigurationTest, TypedAccessors) {
  Configuration conf;
  conf.SetInt("int", 42);
  conf.SetBool("bool", true);
  conf.SetDouble("double", 0.25);
  EXPECT_EQ(conf.GetInt("int", 0), 42);
  EXPECT_TRUE(conf.GetBool("bool", false));
  EXPECT_DOUBLE_EQ(conf.GetDouble("double", 0.0), 0.25);
}

TEST(ConfigurationTest, TypedDefaultsWhenAbsent) {
  Configuration conf;
  EXPECT_EQ(conf.GetInt("absent", 7), 7);
  EXPECT_TRUE(conf.GetBool("absent", true));
  EXPECT_DOUBLE_EQ(conf.GetDouble("absent", 2.5), 2.5);
}

TEST(ConfigurationTest, MalformedValueFallsBackToDefault) {
  Configuration conf;
  conf.Set("int", "not-a-number");
  conf.Set("bool", "maybe");
  EXPECT_EQ(conf.GetInt("int", 13), 13);
  EXPECT_FALSE(conf.GetBool("bool", false));
}

TEST(ConfigurationTest, TypedGettersMatchParsingGet) {
  // Each typed getter returns exactly what parsing Get(name, <default as
  // text>) returns. For doubles the default's text is "%g", which does not
  // round-trip, so an absent key serves the default rounded to 6 digits.
  Configuration conf;
  EXPECT_DOUBLE_EQ(conf.GetDouble("absent", 0.1234567), 0.123457);
  EXPECT_DOUBLE_EQ(conf.GetDouble("absent", 1234567.0), 1.23457e6);
  EXPECT_EQ(conf.GetInt("absent", INT64_MIN), INT64_MIN);
  EXPECT_FALSE(conf.GetBool("absent", false));
  conf.Set("double", "garbage");
  EXPECT_DOUBLE_EQ(conf.GetDouble("double", 0.1234567), 0.1234567)
      << "a malformed stored value falls back to the unrounded default";
}

TEST(ConfigurationTest, TypedGettersParsePlanValues) {
  TestPlan plan;
  for (const auto& [name, value] :
       {std::pair<const char*, const char*>{"i", "-17"}, {"b", "true"},
        {"d", "2.5"}, {"bad", "oops"}}) {
    ParamPlan param;
    param.param = name;
    param.assigner = ValueAssigner::Homogeneous(value);
    plan.Add(param);
  }
  ConfAgentSession session(plan);
  Configuration conf;
  conf.SetInt("i", 3);
  EXPECT_EQ(conf.GetInt("i", 0), -17);
  EXPECT_TRUE(conf.GetBool("b", false));
  EXPECT_DOUBLE_EQ(conf.GetDouble("d", 0.0), 2.5);
  EXPECT_EQ(conf.GetInt("bad", 9), 9) << "a malformed planned value falls back";
  EXPECT_DOUBLE_EQ(conf.GetDouble("bad", 0.1234567), 0.1234567);
  EXPECT_EQ(session.End().override_hits, 5);
}

TEST(ConfigurationTest, CloneCopiesProperties) {
  Configuration original;
  original.Set("a", "1");
  Configuration clone(original);
  EXPECT_EQ(clone.Get("a"), "1");
  clone.Set("a", "2");
  EXPECT_EQ(original.Get("a"), "1") << "clone must not alias the original";
  EXPECT_NE(clone.id(), original.id());
}

TEST(ConfigurationTest, RefToCloneCopiesProperties) {
  Configuration original;
  original.Set("x", "y");
  Configuration clone = Configuration::RefToClone(original);
  EXPECT_EQ(clone.Get("x"), "y");
  EXPECT_NE(clone.id(), original.id());
}

TEST(ConfigurationTest, IdsAreUnique) {
  Configuration a;
  Configuration b;
  Configuration c(a);
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_NE(b.id(), c.id());
}

TEST(ConfigurationTest, SnapshotReflectsRawContents) {
  Configuration conf;
  conf.Set("a", "1");
  conf.SetRaw("b", "2");
  auto snapshot = conf.Snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.at("a"), "1");
  EXPECT_EQ(snapshot.at("b"), "2");
}

TEST(ConfigurationTest, PlanOverrideAppliesInsideSession) {
  TestPlan plan;
  ParamPlan param;
  param.param = "p";
  param.assigner = ValueAssigner::Homogeneous("planned");
  plan.Add(param);

  ConfAgentSession session(plan);
  Configuration conf;  // created before any node: belongs to the unit test
  conf.Set("p", "stored");
  EXPECT_EQ(conf.Get("p"), "planned") << "the plan value wins over the stored one";
  EXPECT_EQ(conf.Get("q", "dflt"), "dflt") << "unplanned params are untouched";
  session.End();

  EXPECT_EQ(conf.Get("p"), "stored") << "outside a session the hooks are no-ops";
}

TEST(ConfigurationTest, PlanOverrideAppliesToAbsentKeyDefaults) {
  TestPlan plan;
  ParamPlan param;
  param.param = "p";
  param.assigner = ValueAssigner::Homogeneous("42");
  plan.Add(param);

  ConfAgentSession session(plan);
  Configuration conf;
  EXPECT_EQ(conf.GetInt("p", 7), 42)
      << "typed getters must observe the plan even when the key is absent";
  session.End();
}

TEST(ConfigurationTest, DependencyOverridesVisibleThroughPlan) {
  TestPlan plan;
  ParamPlan param;
  param.param = "policy";
  param.assigner = ValueAssigner::Homogeneous("HTTPS_ONLY");
  param.extra_overrides.emplace_back("address", "0.0.0.0:9999");
  plan.Add(param);

  ConfAgentSession session(plan);
  Configuration conf;
  EXPECT_EQ(conf.Get("address", "default"), "0.0.0.0:9999");
  session.End();
}

}  // namespace
}  // namespace zebra
