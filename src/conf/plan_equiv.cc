#include "src/conf/plan_equiv.h"

#include <algorithm>

#include "src/conf/conf_agent.h"

namespace zebra {

namespace {

// Joiner between trace elements. '\x1e' (record separator) cannot appear in
// entity names, parameter names, or schema values, so joining is injective.
constexpr char kTraceJoin = '\x1e';

std::string FormatObservation(const char* prefix, std::string_view entity,
                              int node_index, std::string_view param,
                              const std::string* assigned) {
  std::string element = prefix;
  element += entity;
  element += '#';
  element += std::to_string(node_index);
  element += ':';
  element += param;
  if (assigned != nullptr) {
    element += '=';
    element += *assigned;
  } else {
    element += '!';
  }
  return element;
}

}  // namespace

std::string TraceReadElement(std::string_view entity, int node_index,
                             std::string_view param, const std::string* assigned) {
  return FormatObservation("", entity, node_index, param, assigned);
}

std::string TraceHasElement(std::string_view entity, int node_index,
                            std::string_view param, const std::string* assigned) {
  return FormatObservation("@h:", entity, node_index, param, assigned);
}

std::string TraceUncertainElement(std::string_view param) {
  std::string element = "@u:";
  element += param;
  return element;
}

namespace {

// Shared element parser (inverse of FormatObservation). Entity names never
// contain '#', the node index is digits, and parameter names never contain
// '=' — so the first '#', the first ':' after it, and the first '=' after
// that are unambiguous separators even when the served value contains any of
// those characters.
struct ParsedElement {
  enum class Kind { kRead, kHas, kUncertain } kind = Kind::kRead;
  std::string_view entity;
  int node_index = 0;
  std::string_view param;
};

bool ParseTraceElement(std::string_view element, ParsedElement* parsed) {
  if (element.rfind("@u:", 0) == 0) {
    parsed->kind = ParsedElement::Kind::kUncertain;
    parsed->param = element.substr(3);
    return true;
  }
  if (element.rfind("@h:", 0) == 0) {
    parsed->kind = ParsedElement::Kind::kHas;
    element.remove_prefix(3);
  } else {
    parsed->kind = ParsedElement::Kind::kRead;
  }
  size_t hash = element.find('#');
  if (hash == std::string_view::npos) {
    return false;
  }
  size_t colon = element.find(':', hash);
  if (colon == std::string_view::npos) {
    return false;
  }
  parsed->entity = element.substr(0, hash);
  parsed->node_index =
      std::atoi(std::string(element.substr(hash + 1, colon - hash - 1)).c_str());
  std::string_view rest = element.substr(colon + 1);
  size_t eq = rest.find('=');
  if (eq != std::string_view::npos) {
    parsed->param = rest.substr(0, eq);
  } else {
    if (rest.empty() || rest.back() != '!') {
      return false;
    }
    parsed->param = rest.substr(0, rest.size() - 1);
  }
  return true;
}

}  // namespace

bool PlanMatchesElement(const TestPlan& plan, std::string_view element) {
  ParsedElement parsed;
  if (!ParseTraceElement(element, &parsed)) {
    return false;  // unparseable = unknown observation; never collapse
  }
  if (parsed.kind == ParsedElement::Kind::kUncertain) {
    return true;  // uncertain confs never receive overrides: plan-invariant
  }
  const std::string* assigned =
      plan.Lookup(parsed.param, parsed.entity, parsed.node_index);
  std::string expected =
      parsed.kind == ParsedElement::Kind::kHas
          ? TraceHasElement(parsed.entity, parsed.node_index, parsed.param, assigned)
          : TraceReadElement(parsed.entity, parsed.node_index, parsed.param, assigned);
  return expected == element;
}

bool PlanMatchesTrace(const TestPlan& plan, const std::set<std::string>& elements) {
  for (const std::string& element : elements) {
    if (!PlanMatchesElement(plan, element)) {
      return false;
    }
  }
  return true;
}

bool PlanReproducesObservedTrace(const TestPlan& plan,
                                 std::string_view observed_trace,
                                 std::string_view predicted_trace) {
  // Both traces are sorted element lists, so a single merge scan finds each
  // observed element's verbatim twin in the promise when it has one.
  size_t predicted_pos = 0;
  size_t observed_pos = 0;
  while (observed_pos < observed_trace.size()) {
    size_t observed_end = observed_trace.find(kTraceJoin, observed_pos);
    if (observed_end == std::string_view::npos) {
      observed_end = observed_trace.size();
    }
    std::string_view element =
        observed_trace.substr(observed_pos, observed_end - observed_pos);
    bool found = false;
    while (predicted_pos < predicted_trace.size()) {
      size_t predicted_end = predicted_trace.find(kTraceJoin, predicted_pos);
      if (predicted_end == std::string_view::npos) {
        predicted_end = predicted_trace.size();
      }
      std::string_view candidate =
          predicted_trace.substr(predicted_pos, predicted_end - predicted_pos);
      if (candidate < element) {
        predicted_pos = predicted_end + 1;
        continue;
      }
      if (candidate == element) {
        found = true;
        predicted_pos = predicted_end + 1;
      }
      break;
    }
    if (!found && !PlanMatchesElement(plan, element)) {
      return false;
    }
    observed_pos = observed_end + 1;
  }
  return true;
}

std::string ObservedTraceText(const SessionReport& report) {
  std::string text;
  for (const std::string& element : report.trace_elements) {
    if (!text.empty()) {
      text += kTraceJoin;
    }
    text += element;
  }
  return text;
}

// ---------------------------------------------------------------------------
// ReadSurface
// ---------------------------------------------------------------------------

ReadSurface::ReadSurface(const SessionReport& prerun) {
  for (const std::string& element : prerun.trace_elements) {
    ParsedElement parsed;
    if (!ParseTraceElement(element, &parsed)) {
      continue;  // malformed element; ignore (surface stays conservative)
    }
    Observation obs;
    obs.entity = std::string(parsed.entity);
    obs.node_index = parsed.node_index;
    obs.param = std::string(parsed.param);
    switch (parsed.kind) {
      case ParsedElement::Kind::kUncertain:
        obs.kind = Observation::Kind::kUncertain;
        break;
      case ParsedElement::Kind::kHas:
        obs.kind = Observation::Kind::kHas;
        presence_params_.insert(obs.param);
        break;
      case ParsedElement::Kind::kRead:
        obs.kind = Observation::Kind::kRead;
        break;
    }
    observed_params_.insert(obs.param);
    observations_.push_back(std::move(obs));
  }
  usable_ = !observations_.empty();
}

CanonicalPlan ReadSurface::Canonicalize(const TestPlan& plan) const {
  CanonicalPlan canonical;
  std::vector<ParamPlan> kept;
  for (const ParamPlan& entry : plan.params()) {
    ParamPlan filtered = entry;
    filtered.extra_overrides.clear();
    for (const auto& override_pair : entry.extra_overrides) {
      if (ParamObserved(override_pair.first)) {
        filtered.extra_overrides.push_back(override_pair);
      } else {
        ++canonical.dropped_overrides;
      }
    }
    // An entry survives if any targeted conf observes its parameter — or any
    // surviving dependency override still needs a carrier.
    if (ParamObserved(entry.param) || !filtered.extra_overrides.empty()) {
      kept.push_back(std::move(filtered));
    } else {
      ++canonical.dropped_entries;
    }
  }
  // Canonical order: plans differing only in entry order collapse. The sort
  // compares precomputed fingerprints — ParamPlan::Fingerprint() renders
  // through an ostringstream, and letting the comparator recompute it turns
  // every comparison into two allocations (O(n log n) renders per sort).
  std::vector<std::string> sort_keys;
  sort_keys.reserve(kept.size());
  for (const ParamPlan& entry : kept) {
    sort_keys.push_back(entry.Fingerprint());
  }
  std::vector<size_t> order(kept.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (kept[a].param != kept[b].param) {
      return kept[a].param < kept[b].param;
    }
    return sort_keys[a] < sort_keys[b];
  });
  TestPlan canonical_plan;
  for (size_t index : order) {
    canonical_plan.Add(std::move(kept[index]));
  }
  canonical.fingerprint = canonical_plan.Fingerprint();
  canonical.changed = canonical.fingerprint != plan.Fingerprint();
  return canonical;
}

bool ReadSurface::PredictTrace(const TestPlan& plan, std::string* trace) const {
  // Sort + unique reproduces exactly the ordering + dedup the recorder's
  // SessionReport::trace_elements set applies, without per-element tree nodes
  // (this runs on every cache miss past the exact keys).
  std::vector<std::string> elements;
  elements.reserve(observations_.size());
  for (const Observation& obs : observations_) {
    switch (obs.kind) {
      case Observation::Kind::kUncertain:
        // Unmappable confs never receive overrides: plan-invariant marker.
        elements.push_back(TraceUncertainElement(obs.param));
        break;
      case Observation::Kind::kRead: {
        elements.push_back(
            TraceReadElement(obs.entity, obs.node_index, obs.param,
                             plan.Lookup(obs.param, obs.entity, obs.node_index)));
        break;
      }
      case Observation::Kind::kHas: {
        // Has() ignores overrides, but the trace is poisoned with the plan's
        // assignment so a plan targeting a presence-checked parameter never
        // aliases one that assigns it differently (conservative by design).
        elements.push_back(
            TraceHasElement(obs.entity, obs.node_index, obs.param,
                            plan.Lookup(obs.param, obs.entity, obs.node_index)));
        break;
      }
    }
  }
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()), elements.end());
  std::string text;
  for (const std::string& element : elements) {
    if (!text.empty()) {
      text += kTraceJoin;
    }
    text += element;
  }
  *trace = std::move(text);
  return true;
}

// ---------------------------------------------------------------------------
// Scoped global surface
// ---------------------------------------------------------------------------

namespace {
thread_local const ReadSurface* g_read_surface = nullptr;
}  // namespace

void SetGlobalReadSurface(const ReadSurface* surface) { g_read_surface = surface; }

const ReadSurface* GlobalReadSurface() { return g_read_surface; }

}  // namespace zebra
