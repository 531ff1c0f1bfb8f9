// CampaignExecutor: one interface over the campaign execution backends.
//
// Three backends run the same fold — sequential (Campaign::Run, the
// oracle), the in-process thread pool (thread_pool_scheduler.h, the
// single-box engine), and the distributed fabric (distributed_campaign.h,
// process isolation and multi-host runs). They share one contract:
// findings, Table-5 stage counts, and runs_to_first_detection are
// bitwise-identical across backends and worker counts; only wall-clock and
// the robustness surface differ. Callers (CLI, benches, tests) are written
// once against `CampaignExecutor` instead of once per backend.
//
// Run() throws Error when handed an ExecutorOptions it cannot honor — a
// campaign that quietly dropped its journal would be worse than one that
// refused to start.

#ifndef SRC_CORE_CAMPAIGN_EXECUTOR_H_
#define SRC_CORE_CAMPAIGN_EXECUTOR_H_

#include <memory>
#include <optional>
#include <string>

#include "src/core/campaign.h"
#include "src/core/fault_injection.h"

namespace zebra {

enum class ExecutorKind {
  kSequential,   // Campaign::Run on the calling thread
  kThreadPool,   // in-process thread pool (thread_pool_scheduler.h)
  kDistributed,  // TCP coordinator/agent fabric (distributed_campaign.h)
};

// Backend-independent execution controls. Each backend honors the subset it
// can and throws on the rest.
struct ExecutorOptions {
  // Parallel workers: threads for the thread pool, agents for the fabric.
  // Sequential requires 1.
  int workers = 1;

  // Deterministic fault-injection plan (fault_injection.h). The fabric's
  // agents inject real process faults; the thread pool maps them to failed
  // attempts (see thread_pool_scheduler.h); sequential rejects any
  // non-empty plan.
  FaultPlan faults;

  // Crash-safe journal + resume (campaign_journal.h). Honored by the thread
  // pool and the fabric; sequential rejects it.
  std::string journal_path;
  bool resume = false;

  // Journal durability: records per fdatasync (group commit). 1 syncs every
  // append; N trades at most the last N-1 unsynced records of resume
  // coverage for fewer disk barriers. Never affects findings.
  int journal_sync_batch = 1;

  // Test hook: stop after this many live folds (thread pool and fabric).
  int abort_after_folds = 0;

  // Distributed fabric only (distributed_campaign.h). `workers` is the agent
  // count there; agent_threads is each agent's local thread pool. Every
  // other backend rejects non-default values — a silently ignored fleet
  // shape or fault plan would be worse than a refusal.
  int agent_threads = 1;
  NetFaultPlan net_faults;
  // Fork local agent processes (single-box default). false = listen on
  // listen_address and wait for remote `--connect` agents.
  bool spawn_agents = true;
  std::string listen_address;
  // Leases kept in flight per agent, as a multiple of its thread count.
  // 0 = the fabric's default (2); any other value is fabric-only.
  int pipeline_depth = 0;
  // Directory for per-agent persistent run caches ("" = none); see
  // campaign_agent.h, "Warm starts".
  std::string agent_cache_dir;
};

class CampaignExecutor {
 public:
  virtual ~CampaignExecutor() = default;

  // Stable lowercase identifier ("sequential", "threadpool",
  // "distributed") — what ParseExecutorKind accepts and benches/CLIs print.
  virtual const char* name() const = 0;

  // Runs the campaign. The determinism contract: for a fixed (schema,
  // corpus, options), findings, stage counts, and runs_to_first_detection
  // are identical across every backend and every `exec.workers` value.
  // Throws Error on options the backend cannot honor.
  virtual CampaignReport Run(const ConfSchema& schema,
                             const UnitTestRegistry& corpus,
                             CampaignOptions options,
                             const ExecutorOptions& exec) = 0;
};

// Factory over the three backends.
std::unique_ptr<CampaignExecutor> MakeExecutor(ExecutorKind kind);

// Name -> kind ("sequential", "threadpool", "distributed"); nullopt for
// anything else.
std::optional<ExecutorKind> ParseExecutorKind(const std::string& name);

const char* ExecutorKindName(ExecutorKind kind);

}  // namespace zebra

#endif  // SRC_CORE_CAMPAIGN_EXECUTOR_H_
