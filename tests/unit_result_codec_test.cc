// Differential tests for the unit-result codec (report_io.h), the record
// format of the campaign journal and of the fabric's result frames.
//
// SerializeUnitResult and ParseUnitResult work on the text directly, with no
// property map. The reference codec below is the map-based one they
// replaced, built on ParseProperties/RenderProperties: the serializer must
// write its bytes exactly, and the parser must accept exactly the inputs it
// accepts and read the same fields from them — on every FullCorpus() unit
// result and on garbled, truncated and hand-edited records — so journals,
// resume and wire records are unchanged.

#include "src/core/report_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/strings.h"
#include "src/conf/conf_file.h"
#include "src/core/campaign.h"
#include "src/testkit/full_schema.h"
#include "src/testkit/unit_test_registry.h"

namespace zebra {
namespace {

std::string ReferenceDouble17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ReferenceSerialize(size_t unit_index, const UnitWorkResult& unit) {
  std::map<std::string, std::string> properties;
  properties["unit"] = Int64ToString(static_cast<int64_t>(unit_index));
  properties["app"] = unit.app;
  properties["test_id"] = unit.test_id;
  properties["prerun_executions"] = Int64ToString(unit.prerun_executions);
  properties["after_prerun"] = Int64ToString(unit.after_prerun);
  properties["after_uncertainty"] = Int64ToString(unit.after_uncertainty);
  properties["executed_runs"] = Int64ToString(unit.executed_runs);
  properties["runs_to_first_confirmation"] =
      Int64ToString(unit.runs_to_first_confirmation);
  properties["any_conf_usage"] = unit.any_conf_usage ? "1" : "0";
  properties["conf_sharing_detected"] = unit.conf_sharing_detected ? "1" : "0";
  properties["started_any_node"] = unit.started_any_node ? "1" : "0";
  properties["first_trial_candidates"] =
      Int64ToString(unit.first_trial_candidates);
  properties["filtered_by_hypothesis"] =
      Int64ToString(unit.filtered_by_hypothesis);
  properties["cache_hits"] = Int64ToString(unit.cache_hits);
  properties["cache_misses"] = Int64ToString(unit.cache_misses);
  properties["cache_evictions"] = Int64ToString(unit.cache_evictions);
  properties["coupling_runs"] = Int64ToString(unit.coupling_runs);
  properties["coupling_confirmations"] =
      Int64ToString(unit.coupling_confirmations);
  properties["dynamic_phase_skipped"] = unit.dynamic_phase_skipped ? "1" : "0";
  properties["params_tested"] = StrJoin(unit.params_tested, ",");
  properties["confirmations"] =
      Int64ToString(static_cast<int64_t>(unit.confirmations.size()));
  for (size_t i = 0; i < unit.confirmations.size(); ++i) {
    const UnitConfirmation& confirmation = unit.confirmations[i];
    std::string prefix = "confirmation." + std::to_string(i) + ".";
    properties[prefix + "param"] = confirmation.param;
    properties[prefix + "p_value"] = ReferenceDouble17(confirmation.p_value);
    properties[prefix + "failure"] =
        EscapeReportText(confirmation.witness_failure);
  }
  std::vector<std::string> durations;
  for (double duration : unit.run_durations) {
    durations.push_back(ReferenceDouble17(duration));
  }
  properties["durations"] = StrJoin(durations, ",");
  return RenderProperties(properties);
}

bool ReferenceParse(const std::string& text, size_t* unit_index,
                    UnitWorkResult* unit) {
  std::map<std::string, std::string> properties;
  try {
    properties = ParseProperties(text);
  } catch (const Error&) {
    return false;
  }
  auto get = [&](const std::string& key) -> const std::string& {
    static const std::string kEmpty;
    auto it = properties.find(key);
    return it == properties.end() ? kEmpty : it->second;
  };
  auto get_int = [&](const std::string& key, int64_t* out) {
    return ParseInt64(get(key), out);
  };
  int64_t index = -1;
  if (!get_int("unit", &index) || index < 0) {
    return false;
  }
  *unit_index = static_cast<size_t>(index);
  unit->app = get("app");
  unit->test_id = get("test_id");
  int64_t candidates = 0;
  int64_t filtered = 0;
  if (!get_int("prerun_executions", &unit->prerun_executions) ||
      !get_int("after_prerun", &unit->after_prerun) ||
      !get_int("after_uncertainty", &unit->after_uncertainty) ||
      !get_int("executed_runs", &unit->executed_runs) ||
      !get_int("runs_to_first_confirmation",
               &unit->runs_to_first_confirmation) ||
      !get_int("first_trial_candidates", &candidates) ||
      !get_int("filtered_by_hypothesis", &filtered) ||
      !get_int("cache_hits", &unit->cache_hits) ||
      !get_int("cache_misses", &unit->cache_misses) ||
      !get_int("cache_evictions", &unit->cache_evictions)) {
    return false;
  }
  unit->first_trial_candidates = static_cast<int>(candidates);
  unit->filtered_by_hypothesis = static_cast<int>(filtered);
  unit->any_conf_usage = get("any_conf_usage") == "1";
  unit->conf_sharing_detected = get("conf_sharing_detected") == "1";
  unit->started_any_node = get("started_any_node") == "1";
  ParseInt64(get("coupling_runs"), &unit->coupling_runs);
  ParseInt64(get("coupling_confirmations"), &unit->coupling_confirmations);
  unit->dynamic_phase_skipped = get("dynamic_phase_skipped") == "1";
  for (const std::string& param : StrSplit(get("params_tested"), ',')) {
    if (!param.empty()) {
      unit->params_tested.push_back(param);
    }
  }
  int64_t confirmations = 0;
  if (!get_int("confirmations", &confirmations) || confirmations < 0) {
    return false;
  }
  for (int64_t i = 0; i < confirmations; ++i) {
    std::string prefix = "confirmation." + std::to_string(i) + ".";
    UnitConfirmation confirmation;
    confirmation.param = get(prefix + "param");
    if (confirmation.param.empty() ||
        !ParseDouble(get(prefix + "p_value"), &confirmation.p_value)) {
      return false;
    }
    confirmation.witness_failure = UnescapeReportText(get(prefix + "failure"));
    unit->confirmations.push_back(std::move(confirmation));
  }
  for (const std::string& duration_text : StrSplit(get("durations"), ',')) {
    if (duration_text.empty()) {
      continue;
    }
    double duration = 0;
    if (!ParseDouble(duration_text, &duration)) {
      return false;
    }
    unit->run_durations.push_back(duration);
  }
  return true;
}

// Both parsers on one input: same verdict, and on acceptance the same index
// and fields (compared through the reference serializer, which writes every
// field, NaNs included, as bytes).
void ExpectSameParse(const std::string& text, const std::string& label) {
  size_t reference_index = 0;
  size_t index = 0;
  UnitWorkResult reference_unit;
  UnitWorkResult unit;
  const bool reference_ok = ReferenceParse(text, &reference_index, &reference_unit);
  const bool ok = ParseUnitResult(text, &index, &unit);
  ASSERT_EQ(ok, reference_ok) << label << "\n--- input ---\n" << text;
  if (ok) {
    ASSERT_EQ(index, reference_index) << label;
    ASSERT_EQ(ReferenceSerialize(index, unit),
              ReferenceSerialize(reference_index, reference_unit))
        << label << "\n--- input ---\n" << text;
  }
}

// Every FullCorpus() unit, run under an empty unsafe set (so each keeps every
// confirmation it can make), plus synthetic units for what the corpus does
// not produce: escaped failure text, ≥10 confirmations (whose keys sort
// "confirmation.10" < "confirmation.2"), and extreme doubles.
const std::vector<UnitWorkResult>& CorpusUnits() {
  static const std::vector<UnitWorkResult> units = [] {
    std::vector<UnitWorkResult> out;
    Campaign engine(FullSchema(), FullCorpus(), CampaignOptions{});
    for (const std::string& app : engine.options().apps) {
      for (const UnitTestDef* test : FullCorpus().ForApp(app)) {
        out.push_back(engine.RunUnit(*test, {}));
      }
    }
    return out;
  }();
  return units;
}

std::vector<UnitWorkResult> SyntheticUnits() {
  std::vector<UnitWorkResult> out;
  UnitWorkResult many;
  many.app = "minikv";
  many.test_id = "minikv.TestMany";
  many.prerun_executions = 1;
  many.after_prerun = 40;
  many.after_uncertainty = 38;
  many.executed_runs = 1234567890123;
  many.runs_to_first_confirmation = 3;
  many.any_conf_usage = true;
  many.started_any_node = true;
  many.first_trial_candidates = 17;
  many.filtered_by_hypothesis = -2;
  many.cache_hits = -1;
  many.coupling_runs = 9;
  many.params_tested = {"a.b", "c.d", "e f", "g=h"};
  for (int i = 0; i < 23; ++i) {
    UnitConfirmation confirmation;
    confirmation.param = "param." + std::to_string(i);
    confirmation.p_value = std::ldexp(1.0, -i * 40) / 3.0;
    confirmation.witness_failure =
        "line one\nline two = with equals\\ and # hash, comma" +
        std::string(static_cast<size_t>(i % 3), '\\');
    many.confirmations.push_back(confirmation);
  }
  many.run_durations = {0.0,
                        -0.0,
                        1e-300,
                        std::numeric_limits<double>::denorm_min(),
                        std::numeric_limits<double>::max(),
                        0.1 + 0.2,
                        123456789.123456789,
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  out.push_back(many);

  UnitWorkResult empty;
  out.push_back(empty);

  UnitWorkResult ten = many;
  ten.confirmations.resize(11);
  ten.dynamic_phase_skipped = true;
  ten.conf_sharing_detected = true;
  ten.run_durations = {std::nan("")};
  out.push_back(ten);
  return out;
}

TEST(UnitResultCodecTest, SerializerWritesTheReferenceBytes) {
  size_t index = 0;
  for (const UnitWorkResult& unit : CorpusUnits()) {
    ASSERT_EQ(SerializeUnitResult(index, unit), ReferenceSerialize(index, unit))
        << unit.test_id;
    ++index;
  }
  for (const UnitWorkResult& unit : SyntheticUnits()) {
    ASSERT_EQ(SerializeUnitResult(index, unit), ReferenceSerialize(index, unit))
        << unit.test_id;
    index += 1000003;
  }
}

TEST(UnitResultCodecTest, InputsCoverWhatTheFormatCarries) {
  // The differential is only as good as its inputs: the corpus must carry
  // confirmations, and the synthetic units escaped failure text and more
  // than ten confirmations.
  size_t confirmations = 0;
  for (const UnitWorkResult& unit : CorpusUnits()) {
    confirmations += unit.confirmations.size();
  }
  EXPECT_GT(confirmations, 20u);
  const UnitWorkResult many = SyntheticUnits()[0];
  ASSERT_GT(many.confirmations.size(), 10u);
  EXPECT_NE(many.confirmations[0].witness_failure.find('\n'), std::string::npos);
  const std::string text = SerializeUnitResult(0, many);
  EXPECT_LT(text.find("confirmation.10.failure"),
            text.find("confirmation.2.failure"));
}

TEST(UnitResultCodecTest, ParserAgreesOnEveryWrittenRecord) {
  size_t index = 0;
  for (const UnitWorkResult& unit : CorpusUnits()) {
    const std::string text = SerializeUnitResult(index, unit);
    ExpectSameParse(text, unit.test_id);
    size_t parsed_index = 0;
    UnitWorkResult parsed;
    ASSERT_TRUE(ParseUnitResult(text, &parsed_index, &parsed));
    EXPECT_EQ(SerializeUnitResult(parsed_index, parsed), text) << unit.test_id;
    ++index;
  }
  for (const UnitWorkResult& unit : SyntheticUnits()) {
    ExpectSameParse(SerializeUnitResult(7, unit), "synthetic " + unit.test_id);
  }
}

TEST(UnitResultCodecTest, ParserAgreesOnEveryTruncation) {
  std::vector<UnitWorkResult> units = SyntheticUnits();
  const std::vector<UnitWorkResult>& corpus = CorpusUnits();
  for (size_t i = 0; i < corpus.size(); i += 7) {
    units.push_back(corpus[i]);
  }
  for (const UnitWorkResult& unit : units) {
    const std::string text = SerializeUnitResult(3, unit);
    for (size_t length = 0; length <= text.size(); ++length) {
      ExpectSameParse(text.substr(0, length),
                      unit.test_id + " cut at " + std::to_string(length));
      ExpectSameParse(text.substr(length),
                      unit.test_id + " from " + std::to_string(length));
    }
  }
}

TEST(UnitResultCodecTest, ParserAgreesOnGarbledRecords) {
  const char kBytes[] = {'=', '\n', '#', ' ',  ',', '.', '0', '1',  '9',
                         '-', 'x',  '\t', '\r', '\\', 'e', '+', '\0', '\v'};
  std::mt19937_64 rng(20211026);
  std::vector<std::string> seeds;
  for (const UnitWorkResult& unit : SyntheticUnits()) {
    seeds.push_back(SerializeUnitResult(5, unit));
  }
  const std::vector<UnitWorkResult>& corpus = CorpusUnits();
  for (size_t i = 0; i < corpus.size(); i += 5) {
    seeds.push_back(SerializeUnitResult(i, corpus[i]));
  }
  for (int round = 0; round < 20000; ++round) {
    std::string text = seeds[rng() % seeds.size()];
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int edit = 0; edit < edits && !text.empty(); ++edit) {
      const size_t at = rng() % text.size();
      const char byte = kBytes[rng() % sizeof(kBytes)];
      switch (rng() % 3) {
        case 0:
          text[at] = byte;
          break;
        case 1:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        default:
          text.erase(at, 1 + rng() % 8);
          break;
      }
    }
    ExpectSameParse(text, "round " + std::to_string(round));
  }
}

TEST(UnitResultCodecTest, ParserAgreesOnHandEditedRecords) {
  UnitWorkResult unit = SyntheticUnits()[2];  // 11 confirmations
  unit.confirmations.resize(3);
  const std::string text = SerializeUnitResult(12, unit);

  // Lines shuffled, duplicated (last wins), commented, blank, padded.
  std::vector<std::string> lines = StrSplit(text, '\n');
  std::vector<std::string> cases;
  {
    std::vector<std::string> reversed(lines.rbegin(), lines.rend());
    cases.push_back(StrJoin(reversed, "\n"));
  }
  cases.push_back(text + "unit = 99\n");
  cases.push_back("unit = 99\n" + text);
  cases.push_back(text + "confirmation.0.param = override\n");
  cases.push_back(text + "confirmation.0.param =\n");
  cases.push_back(text + "confirmation.00.param = leading.zero\n");
  cases.push_back(text + "confirmation.+1.param = plus\n");
  cases.push_back(text + "confirmation.3.param = beyond.count\n");
  cases.push_back(text + "confirmation.1.param.extra = x\n");
  cases.push_back(text + "confirmation.99999999999999999999.param = huge\n");
  cases.push_back(text + "confirmations = 4\n");
  cases.push_back(text + "confirmations = 4\nconfirmation.3.param = p\n");
  cases.push_back(text +
                  "confirmations = 4\nconfirmation.3.param = p\n"
                  "confirmation.3.p_value = 0x1p-3\n");
  cases.push_back(text + "confirmations = -1\n");
  cases.push_back(text + "confirmations = 1000000000000\n");
  cases.push_back(text + "confirmations = 2 \n");
  cases.push_back(text + "confirmations = +2\n");
  cases.push_back(text + "# a comment = with equals\n");
  cases.push_back(text + "   # indented comment\n\n\n");
  cases.push_back(text + "no equals sign\n");
  cases.push_back(text + " = value without key\n");
  cases.push_back(text + "unknown.key = 1\n");
  cases.push_back(text + "durations = 1, 2,,3\n");
  cases.push_back(text + "durations = 1, ,3\n");
  cases.push_back(text + "durations = nan,inf,-inf,1e999\n");
  cases.push_back(text + "durations = 1.5x\n");
  cases.push_back(text + "params_tested = ,a, b ,,c\n");
  cases.push_back(text + "unit = -1\n");
  cases.push_back(text + "unit = 18446744073709551615\n");
  cases.push_back(text + "coupling_runs = junk\n");
  cases.push_back(text + "coupling_runs =\n");
  cases.push_back(text + "any_conf_usage = 1 \n");
  cases.push_back(text + "any_conf_usage = true\n");
  cases.push_back(text + "app\t=\t spaced app \t\n");
  cases.push_back(text + "key = a = b\n");
  cases.push_back(text + "\r\nunit = 4\r\n");
  cases.push_back(StrJoin(lines, "\r\n"));
  cases.push_back(text + std::string("nul = a\0b\n", 10));
  cases.push_back(text + std::string("durations = 2\0junk\n", 19));
  cases.push_back("");
  cases.push_back("\n\n");
  for (size_t i = 0; i < cases.size(); ++i) {
    ExpectSameParse(cases[i], "case " + std::to_string(i));
  }
}

}  // namespace
}  // namespace zebra
