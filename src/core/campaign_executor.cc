#include "src/core/campaign_executor.h"

#include <utility>

#include "src/common/error.h"
#include "src/core/distributed_campaign.h"
#include "src/core/thread_pool_scheduler.h"

namespace zebra {

namespace {

// Option validation for the single-box backends: reject what the backend
// would otherwise silently drop. The thread pool honors the journal and
// fault plan; sequential honors neither.
void RequireHonorable(const char* name, const ExecutorOptions& exec,
                      bool journal_and_faults_ok) {
  if (!journal_and_faults_ok &&
      (!exec.journal_path.empty() || exec.resume || exec.abort_after_folds > 0)) {
    throw Error(std::string(name) +
                " executor does not support journal/resume options");
  }
  if (!journal_and_faults_ok && !exec.faults.empty()) {
    throw Error(std::string(name) + " executor does not support fault injection");
  }
  if (exec.agent_threads != 1 || !exec.net_faults.empty() ||
      !exec.listen_address.empty() || exec.pipeline_depth != 0 ||
      !exec.agent_cache_dir.empty()) {
    throw Error(std::string(name) +
                " executor does not support distributed-fabric options");
  }
}

class SequentialExecutor : public CampaignExecutor {
 public:
  const char* name() const override { return "sequential"; }

  CampaignReport Run(const ConfSchema& schema, const UnitTestRegistry& corpus,
                     CampaignOptions options,
                     const ExecutorOptions& exec) override {
    RequireHonorable(name(), exec, /*journal_and_faults_ok=*/false);
    if (exec.workers != 1) {
      throw Error("sequential executor requires workers == 1");
    }
    return Campaign(schema, corpus, std::move(options)).Run();
  }
};

class ThreadPoolExecutor : public CampaignExecutor {
 public:
  const char* name() const override { return "threadpool"; }

  CampaignReport Run(const ConfSchema& schema, const UnitTestRegistry& corpus,
                     CampaignOptions options,
                     const ExecutorOptions& exec) override {
    RequireHonorable(name(), exec, /*journal_and_faults_ok=*/true);
    ThreadPoolCampaignOptions pool;
    pool.workers = exec.workers;
    pool.faults = exec.faults;
    pool.journal_path = exec.journal_path;
    pool.resume = exec.resume;
    pool.journal_sync_batch = exec.journal_sync_batch;
    pool.abort_after_folds = exec.abort_after_folds;
    return RunThreadPoolCampaign(schema, corpus, std::move(options), pool);
  }
};

class DistributedExecutor : public CampaignExecutor {
 public:
  const char* name() const override { return "distributed"; }

  CampaignReport Run(const ConfSchema& schema, const UnitTestRegistry& corpus,
                     CampaignOptions options,
                     const ExecutorOptions& exec) override {
    DistributedCampaignOptions fabric;
    fabric.agents = exec.workers;
    fabric.agent_threads = exec.agent_threads;
    fabric.spawn_agents = exec.spawn_agents;
    fabric.listen_address = exec.listen_address;
    if (exec.pipeline_depth > 0) {
      fabric.pipeline_depth = exec.pipeline_depth;
    }
    fabric.agent_cache_dir = exec.agent_cache_dir;
    fabric.faults = exec.faults;
    fabric.net_faults = exec.net_faults;
    fabric.journal_path = exec.journal_path;
    fabric.resume = exec.resume;
    fabric.journal_sync_batch = exec.journal_sync_batch;
    fabric.abort_after_folds = exec.abort_after_folds;
    return RunDistributedCampaign(schema, corpus, std::move(options), fabric);
  }
};

}  // namespace

std::unique_ptr<CampaignExecutor> MakeExecutor(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kSequential:
      return std::make_unique<SequentialExecutor>();
    case ExecutorKind::kThreadPool:
      return std::make_unique<ThreadPoolExecutor>();
    case ExecutorKind::kDistributed:
      return std::make_unique<DistributedExecutor>();
  }
  throw Error("unknown executor kind");
}

std::optional<ExecutorKind> ParseExecutorKind(const std::string& name) {
  for (ExecutorKind kind : {ExecutorKind::kSequential, ExecutorKind::kThreadPool,
                            ExecutorKind::kDistributed}) {
    if (name == ExecutorKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

const char* ExecutorKindName(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kSequential:
      return "sequential";
    case ExecutorKind::kThreadPool:
      return "threadpool";
    case ExecutorKind::kDistributed:
      return "distributed";
  }
  return "unknown";
}

}  // namespace zebra
