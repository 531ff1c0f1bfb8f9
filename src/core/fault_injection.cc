#include "src/core/fault_injection.h"

#include "src/common/strings.h"

namespace zebra {

namespace {

bool SpecMatches(const FaultSpec& spec, int worker, const std::string& test_id,
                 int attempt) {
  if (!spec.test_id.empty() && spec.test_id != test_id) {
    return false;
  }
  if (spec.worker >= 0 && spec.worker != worker) {
    return false;
  }
  if (spec.attempt >= 0 && spec.attempt != attempt) {
    return false;
  }
  return true;
}

// Stable coin flip in [0, 1): folds the coordinate into the plan seed. The
// worker index is deliberately excluded so the flip replays identically
// under any unit-to-worker assignment.
double Coin(uint64_t seed, FaultKind kind, const std::string& test_id,
            int attempt) {
  uint64_t digest = HashFnv64(test_id, seed ^ 0x9e3779b97f4a7c15ull);
  digest = HashFnv64(Int64ToString(static_cast<int64_t>(kind)), digest);
  digest = HashFnv64(Int64ToString(attempt), digest);
  // Top 53 bits -> exactly representable double in [0, 1).
  return static_cast<double>(digest >> 11) / 9007199254740992.0;
}

// Random mode for one kind: fires with the kind's rate at this coordinate.
bool DecideRandom(const FaultPlan& plan, FaultKind kind, int worker,
                  const std::string& test_id, int attempt, FaultSpec* out) {
  double rate = 0.0;
  switch (kind) {
    case FaultKind::kCrash:
      rate = plan.crash_rate;
      break;
    case FaultKind::kHang:
      rate = plan.hang_rate;
      break;
    case FaultKind::kGarbledFrame:
      rate = plan.garble_rate;
      break;
    case FaultKind::kSlowWorker:
      rate = 0.0;  // random mode never slows; use an explicit spec
      break;
  }
  if (rate > 0.0 && Coin(plan.seed, kind, test_id, attempt) < rate) {
    out->kind = kind;
    out->test_id = test_id;
    out->worker = worker;
    out->attempt = attempt;
    return true;
  }
  return false;
}

}  // namespace

bool FaultPlan::Decide(int worker, const std::string& test_id, int attempt,
                       FaultSpec* out) const {
  // Explicit specs first, in plan order (most specific wins by convention).
  for (const FaultSpec& spec : specs) {
    if (SpecMatches(spec, worker, test_id, attempt)) {
      *out = spec;
      return true;
    }
  }
  for (FaultKind kind :
       {FaultKind::kCrash, FaultKind::kHang, FaultKind::kGarbledFrame}) {
    if (DecideRandom(*this, kind, worker, test_id, attempt, out)) {
      return true;
    }
  }
  return false;
}

namespace {

bool NetSpecMatches(const NetFaultSpec& spec, int agent,
                    const std::string& test_id, int attempt) {
  if (!spec.test_id.empty() && spec.test_id != test_id) {
    return false;
  }
  if (spec.agent >= 0 && spec.agent != agent) {
    return false;
  }
  if (spec.attempt >= 0 && spec.attempt != attempt) {
    return false;
  }
  return true;
}

// Same construction as Coin() above, but folded from a distinct salt so a
// FaultPlan and a NetFaultPlan sharing a seed draw independent flips. The
// agent index is excluded for the same replay-identity reason.
double NetCoin(uint64_t seed, NetFaultKind kind, const std::string& test_id,
               int attempt) {
  uint64_t digest = HashFnv64(test_id, seed ^ 0xc2b2ae3d27d4eb4full);
  digest = HashFnv64(Int64ToString(static_cast<int64_t>(kind)), digest);
  digest = HashFnv64(Int64ToString(attempt), digest);
  return static_cast<double>(digest >> 11) / 9007199254740992.0;
}

}  // namespace

bool NetFaultPlan::Decide(int agent, const std::string& test_id, int attempt,
                          NetFaultSpec* out) const {
  for (const NetFaultSpec& spec : specs) {
    if (NetSpecMatches(spec, agent, test_id, attempt)) {
      *out = spec;
      return true;
    }
  }
  struct RatedKind {
    NetFaultKind kind;
    double rate;
  };
  const RatedKind rated[] = {
      {NetFaultKind::kAgentCrash, agent_crash_rate},
      {NetFaultKind::kConnectionDrop, connection_drop_rate},
      {NetFaultKind::kGarbledFrame, garble_rate},
      {NetFaultKind::kStaleDuplicateResult, duplicate_rate},
  };
  for (const RatedKind& entry : rated) {
    if (entry.rate > 0.0 &&
        NetCoin(seed, entry.kind, test_id, attempt) < entry.rate) {
      out->kind = entry.kind;
      out->test_id = test_id;
      out->agent = agent;
      out->attempt = attempt;
      return true;
    }
  }
  return false;
}

}  // namespace zebra
