#include "src/core/report_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/error.h"
#include "src/common/strings.h"
#include "src/conf/conf_file.h"

namespace zebra {

namespace {

void AppendEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    if (c == '\n') {
      out->append("\\n");
    } else if (c == '\\') {
      out->append("\\\\");
    } else {
      out->push_back(c);
    }
  }
}

// "%.17g" without printf: std::to_chars with a precision is specified to
// produce exactly printf's bytes for the same conversion.
void AppendDouble17(std::string* out, double value) {
  char buffer[32];
  char* end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                            std::chars_format::general, 17)
                  .ptr;
  out->append(buffer, end);
}

void AppendInt(std::string* out, int64_t value) {
  char buffer[24];
  out->append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

std::string Double17(double value) {
  std::string text;
  AppendDouble17(&text, value);
  return text;
}

int64_t RequireInt(const std::map<std::string, std::string>& properties,
                   const std::string& key) {
  auto it = properties.find(key);
  int64_t value = 0;
  if (it == properties.end() || !ParseInt64(it->second, &value)) {
    throw Error("report deserialization: missing or malformed key " + key);
  }
  return value;
}

std::string GetOr(const std::map<std::string, std::string>& properties,
                  const std::string& key, const std::string& fallback) {
  auto it = properties.find(key);
  return it == properties.end() ? fallback : it->second;
}

// The keys of a unit-result record other than the per-confirmation ones, in
// the order RenderProperties writes them (sorted). The confirmation block
// ("confirmation.<i>.failure|p_value|param") sorts between
// conf_sharing_detected and confirmations.
enum UnitKey : size_t {
  kAfterPrerun,
  kAfterUncertainty,
  kAnyConfUsage,
  kApp,
  kCacheEvictions,
  kCacheHits,
  kCacheMisses,
  kConfSharingDetected,
  kConfirmations,
  kCouplingConfirmations,
  kCouplingRuns,
  kDurations,
  kDynamicPhaseSkipped,
  kExecutedRuns,
  kFilteredByHypothesis,
  kFirstTrialCandidates,
  kParamsTested,
  kPrerunExecutions,
  kRunsToFirstConfirmation,
  kStartedAnyNode,
  kTestId,
  kUnit,
  kUnitKeyCount,
};

constexpr std::string_view kUnitKeys[kUnitKeyCount] = {
    "after_prerun",
    "after_uncertainty",
    "any_conf_usage",
    "app",
    "cache_evictions",
    "cache_hits",
    "cache_misses",
    "conf_sharing_detected",
    "confirmations",
    "coupling_confirmations",
    "coupling_runs",
    "durations",
    "dynamic_phase_skipped",
    "executed_runs",
    "filtered_by_hypothesis",
    "first_trial_candidates",
    "params_tested",
    "prerun_executions",
    "runs_to_first_confirmation",
    "started_any_node",
    "test_id",
    "unit",
};

constexpr std::string_view kConfirmationPrefix = "confirmation.";
// Per-confirmation fields, also in sorted order.
constexpr std::string_view kConfirmationFields[3] = {"failure", "p_value",
                                                     "param"};
enum ConfirmationField : size_t { kFailure, kPValue, kParam };

// Index of `key` in kUnitKeys, or kUnitKeyCount. The search starts at
// *hint, the slot after the previous match, so a record in written order
// matches every key at the first probe.
size_t FindUnitKey(std::string_view key, size_t* hint) {
  for (size_t probe = 0; probe < kUnitKeyCount; ++probe) {
    const size_t slot = (*hint + probe) % kUnitKeyCount;
    if (kUnitKeys[slot] == key) {
      *hint = slot + 1;
      return slot;
    }
  }
  return kUnitKeyCount;
}

// Parses "<i>.<field>" (the key after "confirmation.") when <i> is written
// exactly as std::to_string would write it; other spellings name no
// confirmation and are ignored like any unknown key.
bool ParseConfirmationKey(std::string_view rest, uint64_t* index,
                          size_t* field) {
  const size_t dot = rest.find('.');
  if (dot == 0 || dot == std::string_view::npos || dot > 19 ||
      (dot > 1 && rest[0] == '0')) {
    return false;
  }
  auto [end, ec] = std::from_chars(rest.data(), rest.data() + dot, *index);
  if (ec != std::errc() || end != rest.data() + dot) {
    return false;
  }
  for (size_t f = 0; f < 3; ++f) {
    if (rest.substr(dot + 1) == kConfirmationFields[f]) {
      *field = f;
      return true;
    }
  }
  return false;
}

// Calls `piece(view)` for every non-empty ','-separated piece of `list`.
template <typename Piece>
bool ForEachListPiece(std::string_view list, Piece piece) {
  for (;;) {
    const size_t comma = list.find(',');
    std::string_view item = list.substr(0, comma);
    if (!item.empty() && !piece(item)) {
      return false;
    }
    if (comma == std::string_view::npos) {
      return true;
    }
    list.remove_prefix(comma + 1);
  }
}

}  // namespace

std::string EscapeReportText(const std::string& text) {
  std::string escaped;
  AppendEscaped(&escaped, text);
  return escaped;
}

std::string UnescapeReportText(std::string_view text) {
  std::string plain;
  plain.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      ++i;
      plain += text[i] == 'n' ? '\n' : text[i];
    } else {
      plain += text[i];
    }
  }
  return plain;
}

std::string SerializeUnitResult(size_t unit_index, const UnitWorkResult& unit) {
  // The bytes RenderProperties writes for the same key/value map: one
  // "key = value" line per key, keys sorted.
  std::string out;
  out.reserve(640 + 24 * unit.run_durations.size() +
              160 * unit.confirmations.size());
  auto key = [&out](std::string_view name) {
    out.append(name);
    out.append(" = ");
  };
  auto int_line = [&](UnitKey name, int64_t value) {
    key(kUnitKeys[name]);
    AppendInt(&out, value);
    out.push_back('\n');
  };
  auto flag_line = [&](UnitKey name, bool value) {
    key(kUnitKeys[name]);
    out.append(value ? "1\n" : "0\n");
  };
  auto text_line = [&](UnitKey name, std::string_view value) {
    key(kUnitKeys[name]);
    out.append(value);
    out.push_back('\n');
  };

  int_line(kAfterPrerun, unit.after_prerun);
  int_line(kAfterUncertainty, unit.after_uncertainty);
  flag_line(kAnyConfUsage, unit.any_conf_usage);
  text_line(kApp, unit.app);
  int_line(kCacheEvictions, unit.cache_evictions);
  int_line(kCacheHits, unit.cache_hits);
  int_line(kCacheMisses, unit.cache_misses);
  flag_line(kConfSharingDetected, unit.conf_sharing_detected);

  // Confirmation keys sort by the decimal text of their index
  // ("confirmation.10." < "confirmation.2."), so from 11 on the written
  // order is not the numeric one.
  const size_t count = unit.confirmations.size();
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) {
    order[i] = i;
  }
  if (count > 10) {
    std::sort(order.begin(), order.end(), [](size_t a, size_t b) {
      char left[24];
      char right[24];
      return std::string_view(left, std::to_chars(left, left + 24, a).ptr - left) <
             std::string_view(right,
                              std::to_chars(right, right + 24, b).ptr - right);
    });
  }
  for (size_t i : order) {
    const UnitConfirmation& confirmation = unit.confirmations[i];
    auto confirmation_key = [&](ConfirmationField field) {
      out.append(kConfirmationPrefix);
      AppendInt(&out, static_cast<int64_t>(i));
      out.push_back('.');
      key(kConfirmationFields[field]);
    };
    confirmation_key(kFailure);
    AppendEscaped(&out, confirmation.witness_failure);
    out.push_back('\n');
    confirmation_key(kPValue);
    AppendDouble17(&out, confirmation.p_value);
    out.push_back('\n');
    confirmation_key(kParam);
    out.append(confirmation.param);
    out.push_back('\n');
  }

  int_line(kConfirmations, static_cast<int64_t>(count));
  int_line(kCouplingConfirmations, unit.coupling_confirmations);
  int_line(kCouplingRuns, unit.coupling_runs);
  key(kUnitKeys[kDurations]);
  for (size_t i = 0; i < unit.run_durations.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    AppendDouble17(&out, unit.run_durations[i]);
  }
  out.push_back('\n');
  flag_line(kDynamicPhaseSkipped, unit.dynamic_phase_skipped);
  int_line(kExecutedRuns, unit.executed_runs);
  int_line(kFilteredByHypothesis, unit.filtered_by_hypothesis);
  int_line(kFirstTrialCandidates, unit.first_trial_candidates);
  key(kUnitKeys[kParamsTested]);
  for (size_t i = 0; i < unit.params_tested.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out.append(unit.params_tested[i]);
  }
  out.push_back('\n');
  int_line(kPrerunExecutions, unit.prerun_executions);
  int_line(kRunsToFirstConfirmation, unit.runs_to_first_confirmation);
  flag_line(kStartedAnyNode, unit.started_any_node);
  text_line(kTestId, unit.test_id);
  int_line(kUnit, static_cast<int64_t>(unit_index));
  return out;
}

bool ParseUnitResult(std::string_view text, size_t* unit_index,
                     UnitWorkResult* unit) {
  // One pass over the lines with the grammar of ParseProperties: each line
  // is isspace-trimmed; blank and '#' lines are skipped; any other line
  // needs an '=' and a non-empty key; key and value are trimmed; a repeated
  // key's last value wins. Values stay views into `text`, and an absent key
  // reads as an empty value, as it did through the property map.
  std::string_view values[kUnitKeyCount];
  struct ConfirmationEntry {
    uint64_t index;
    size_t field;
    std::string_view value;
  };
  std::vector<ConfirmationEntry> confirmation_entries;
  size_t hint = 0;
  std::string_view rest = text;
  for (;;) {
    const size_t newline = rest.find('\n');
    const std::string_view line = StrTrimView(rest.substr(0, newline));
    if (!line.empty() && line[0] != '#') {
      const size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        return false;
      }
      const std::string_view key = StrTrimView(line.substr(0, eq));
      const std::string_view value = StrTrimView(line.substr(eq + 1));
      if (key.empty()) {
        return false;
      }
      uint64_t index = 0;
      size_t field = 0;
      if (key.substr(0, kConfirmationPrefix.size()) == kConfirmationPrefix) {
        if (ParseConfirmationKey(key.substr(kConfirmationPrefix.size()), &index,
                                 &field)) {
          confirmation_entries.push_back({index, field, value});
        }
      } else if (size_t slot = FindUnitKey(key, &hint); slot < kUnitKeyCount) {
        values[slot] = value;
      }
      // Keys this parser does not read are ignored, so records written
      // before the equivalence cache's three counters were dropped still
      // resume.
    }
    if (newline == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(newline + 1);
  }

  int64_t index = -1;
  if (!ParseInt64(values[kUnit], &index) || index < 0) {
    return false;
  }
  *unit_index = static_cast<size_t>(index);
  unit->app = values[kApp];
  unit->test_id = values[kTestId];
  int64_t candidates = 0;
  int64_t filtered = 0;
  if (!ParseInt64(values[kPrerunExecutions], &unit->prerun_executions) ||
      !ParseInt64(values[kAfterPrerun], &unit->after_prerun) ||
      !ParseInt64(values[kAfterUncertainty], &unit->after_uncertainty) ||
      !ParseInt64(values[kExecutedRuns], &unit->executed_runs) ||
      !ParseInt64(values[kRunsToFirstConfirmation],
                  &unit->runs_to_first_confirmation) ||
      !ParseInt64(values[kFirstTrialCandidates], &candidates) ||
      !ParseInt64(values[kFilteredByHypothesis], &filtered) ||
      !ParseInt64(values[kCacheHits], &unit->cache_hits) ||
      !ParseInt64(values[kCacheMisses], &unit->cache_misses) ||
      !ParseInt64(values[kCacheEvictions], &unit->cache_evictions)) {
    return false;
  }
  unit->first_trial_candidates = static_cast<int>(candidates);
  unit->filtered_by_hypothesis = static_cast<int>(filtered);
  unit->any_conf_usage = values[kAnyConfUsage] == "1";
  unit->conf_sharing_detected = values[kConfSharingDetected] == "1";
  unit->started_any_node = values[kStartedAnyNode] == "1";
  // Absent in pre-coupling serializations: the add-on did not exist.
  ParseInt64(values[kCouplingRuns], &unit->coupling_runs);
  ParseInt64(values[kCouplingConfirmations], &unit->coupling_confirmations);
  unit->dynamic_phase_skipped = values[kDynamicPhaseSkipped] == "1";

  ForEachListPiece(values[kParamsTested], [&](std::string_view param) {
    unit->params_tested.emplace_back(param);
    return true;
  });

  int64_t confirmations = 0;
  if (!ParseInt64(values[kConfirmations], &confirmations) || confirmations < 0 ||
      static_cast<uint64_t>(confirmations) > confirmation_entries.size()) {
    // Past the entry count some index has no param line.
    return false;
  }
  std::vector<std::array<std::string_view, 3>> fields(
      static_cast<size_t>(confirmations));
  for (const ConfirmationEntry& entry : confirmation_entries) {
    if (entry.index < fields.size()) {
      fields[entry.index][entry.field] = entry.value;  // last one wins
    }
  }
  unit->confirmations.reserve(fields.size());
  for (const std::array<std::string_view, 3>& entry : fields) {
    UnitConfirmation confirmation;
    if (entry[kParam].empty() ||
        !ParseDouble(entry[kPValue], &confirmation.p_value)) {
      return false;
    }
    confirmation.param = entry[kParam];
    confirmation.witness_failure = UnescapeReportText(entry[kFailure]);
    unit->confirmations.push_back(std::move(confirmation));
  }

  return ForEachListPiece(values[kDurations], [&](std::string_view piece) {
    double duration = 0;
    if (!ParseDouble(piece, &duration)) {
      return false;
    }
    unit->run_durations.push_back(duration);
    return true;
  });
}

std::string SerializeReport(const CampaignReport& report) {
  std::map<std::string, std::string> properties;
  std::vector<std::string> apps;
  for (const auto& [app, counts] : report.per_app) {
    apps.push_back(app);
    std::string prefix = "app." + app + ".";
    properties[prefix + "original"] = Int64ToString(counts.original);
    properties[prefix + "after_static"] = Int64ToString(counts.after_static);
    properties[prefix + "after_prerun"] = Int64ToString(counts.after_prerun);
    properties[prefix + "after_uncertainty"] = Int64ToString(counts.after_uncertainty);
    properties[prefix + "executed_runs"] = Int64ToString(counts.executed_runs);
    properties[prefix + "tests_total"] = Int64ToString(counts.tests_total);
    properties[prefix + "tests_with_nodes"] = Int64ToString(counts.tests_with_nodes);
  }
  properties["apps"] = StrJoin(apps, ",");

  for (const auto& [app, sharing] : report.sharing) {
    std::string prefix = "sharing." + app + ".";
    properties[prefix + "with_conf_usage"] = Int64ToString(sharing.tests_with_conf_usage);
    properties[prefix + "with_sharing"] = Int64ToString(sharing.tests_with_sharing);
  }

  std::vector<std::string> params;
  for (const auto& [param, finding] : report.findings) {
    params.push_back(param);
    std::string prefix = "finding." + param + ".";
    properties[prefix + "app"] = finding.owning_app;
    // Full precision, like the unit-result wire format: the cross-backend
    // determinism gates compare serialized reports, p-values bitwise.
    properties[prefix + "p_value"] = Double17(finding.best_p_value);
    properties[prefix + "witnesses"] =
        StrJoin(std::vector<std::string>(finding.witness_tests.begin(),
                                         finding.witness_tests.end()),
                ",");
    properties[prefix + "failure"] = EscapeReportText(finding.example_failure);
  }
  properties["findings"] = StrJoin(params, ",");

  properties["first_trial_candidates"] = Int64ToString(report.first_trial_candidates);
  properties["filtered_by_hypothesis"] = Int64ToString(report.filtered_by_hypothesis);
  properties["total_unit_test_runs"] = Int64ToString(report.total_unit_test_runs);
  properties["wall_seconds"] = DoubleToString(report.wall_seconds);
  properties["cache_hits"] = Int64ToString(report.cache_hits);
  properties["cache_misses"] = Int64ToString(report.cache_misses);
  properties["cache_evictions"] = Int64ToString(report.cache_evictions);
  properties["coupling_runs"] = Int64ToString(report.coupling_runs);
  properties["coupling_confirmations"] =
      Int64ToString(report.coupling_confirmations);
  properties["units_skipped"] = Int64ToString(report.units_skipped);
  properties["hung_workers"] = Int64ToString(report.hung_workers);
  properties["requeued_units"] = Int64ToString(report.requeued_units);
  properties["resumed_units"] = Int64ToString(report.resumed_units);
  properties["cache_load_failures"] = Int64ToString(report.cache_load_failures);
  properties["journal_append_failures"] =
      Int64ToString(report.journal_append_failures);
  properties["agent_disconnects"] = Int64ToString(report.agent_disconnects);
  properties["expired_leases"] = Int64ToString(report.expired_leases);
  properties["duplicate_results"] = Int64ToString(report.duplicate_results);
  if (!report.poisoned_units.empty()) {
    properties["poisoned_units"] = StrJoin(report.poisoned_units, ",");
  }
  properties["runs_to_first_detection"] = Int64ToString(report.runs_to_first_detection);
  if (!report.first_detection_param.empty()) {
    properties["first_detection_param"] = report.first_detection_param;
  }
  properties["run_count"] = Int64ToString(
      static_cast<int64_t>(report.run_durations_seconds.size()));
  double total_run_seconds = 0;
  for (double duration : report.run_durations_seconds) {
    total_run_seconds += duration;
  }
  properties["run_seconds_total"] = DoubleToString(total_run_seconds);
  return RenderProperties(properties);
}

CampaignReport DeserializeReport(const std::string& text) {
  std::map<std::string, std::string> properties = ParseProperties(text);
  CampaignReport report;

  for (const std::string& app : StrSplit(GetOr(properties, "apps", ""), ',')) {
    if (app.empty()) {
      continue;
    }
    std::string prefix = "app." + app + ".";
    AppStageCounts counts;
    counts.original = RequireInt(properties, prefix + "original");
    counts.after_prerun = RequireInt(properties, prefix + "after_prerun");
    counts.after_uncertainty = RequireInt(properties, prefix + "after_uncertainty");
    counts.executed_runs = RequireInt(properties, prefix + "executed_runs");
    counts.tests_total = static_cast<int>(RequireInt(properties, prefix + "tests_total"));
    counts.tests_with_nodes =
        static_cast<int>(RequireInt(properties, prefix + "tests_with_nodes"));
    // Absent in pre-zebralint serializations: no static prior means the
    // static stage equals the original enumeration.
    int64_t after_static = counts.original;
    ParseInt64(GetOr(properties, prefix + "after_static",
                     Int64ToString(counts.original)),
               &after_static);
    counts.after_static = after_static;
    report.per_app[app] = counts;

    std::string sharing_prefix = "sharing." + app + ".";
    if (properties.count(sharing_prefix + "with_conf_usage") > 0) {
      SharingStats sharing;
      sharing.tests_with_conf_usage = static_cast<int>(
          RequireInt(properties, sharing_prefix + "with_conf_usage"));
      sharing.tests_with_sharing = static_cast<int>(
          RequireInt(properties, sharing_prefix + "with_sharing"));
      report.sharing[app] = sharing;
    }
  }

  for (const std::string& param : StrSplit(GetOr(properties, "findings", ""), ',')) {
    if (param.empty()) {
      continue;
    }
    std::string prefix = "finding." + param + ".";
    ParamFinding finding;
    finding.param = param;
    finding.owning_app = GetOr(properties, prefix + "app", "unknown");
    double p_value = 1.0;
    ParseDouble(GetOr(properties, prefix + "p_value", "1"), &p_value);
    finding.best_p_value = p_value;
    for (const std::string& witness :
         StrSplit(GetOr(properties, prefix + "witnesses", ""), ',')) {
      if (!witness.empty()) {
        finding.witness_tests.insert(witness);
      }
    }
    finding.example_failure =
        UnescapeReportText(GetOr(properties, prefix + "failure", ""));
    report.findings[param] = std::move(finding);
  }

  report.first_trial_candidates =
      static_cast<int>(RequireInt(properties, "first_trial_candidates"));
  report.filtered_by_hypothesis =
      static_cast<int>(RequireInt(properties, "filtered_by_hypothesis"));
  report.total_unit_test_runs = RequireInt(properties, "total_unit_test_runs");
  double wall = 0;
  ParseDouble(GetOr(properties, "wall_seconds", "0"), &wall);
  report.wall_seconds = wall;
  ParseInt64(GetOr(properties, "cache_hits", "0"), &report.cache_hits);
  ParseInt64(GetOr(properties, "cache_misses", "0"), &report.cache_misses);
  ParseInt64(GetOr(properties, "cache_evictions", "0"), &report.cache_evictions);
  // Absent in pre-coupling serializations.
  ParseInt64(GetOr(properties, "coupling_runs", "0"), &report.coupling_runs);
  ParseInt64(GetOr(properties, "coupling_confirmations", "0"),
             &report.coupling_confirmations);
  ParseInt64(GetOr(properties, "units_skipped", "0"), &report.units_skipped);
  // Absent in pre-fault-tolerance serializations.
  ParseInt64(GetOr(properties, "hung_workers", "0"), &report.hung_workers);
  ParseInt64(GetOr(properties, "requeued_units", "0"), &report.requeued_units);
  ParseInt64(GetOr(properties, "resumed_units", "0"), &report.resumed_units);
  ParseInt64(GetOr(properties, "cache_load_failures", "0"),
             &report.cache_load_failures);
  ParseInt64(GetOr(properties, "journal_append_failures", "0"),
             &report.journal_append_failures);
  // Absent in pre-fabric serializations.
  ParseInt64(GetOr(properties, "agent_disconnects", "0"),
             &report.agent_disconnects);
  ParseInt64(GetOr(properties, "expired_leases", "0"), &report.expired_leases);
  ParseInt64(GetOr(properties, "duplicate_results", "0"),
             &report.duplicate_results);
  for (const std::string& unit :
       StrSplit(GetOr(properties, "poisoned_units", ""), ',')) {
    if (!unit.empty()) {
      report.poisoned_units.push_back(unit);
    }
  }
  ParseInt64(GetOr(properties, "runs_to_first_detection", "0"),
             &report.runs_to_first_detection);
  report.first_detection_param = GetOr(properties, "first_detection_param", "");

  // Run durations are summarized: reconstruct a flat profile so downstream
  // fleet estimates stay usable.
  int64_t run_count = RequireInt(properties, "run_count");
  double run_seconds_total = 0;
  ParseDouble(GetOr(properties, "run_seconds_total", "0"), &run_seconds_total);
  if (run_count > 0) {
    report.run_durations_seconds.assign(
        static_cast<size_t>(run_count),
        run_seconds_total / static_cast<double>(run_count));
  }
  return report;
}

}  // namespace zebra
