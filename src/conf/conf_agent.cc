#include "src/conf/conf_agent.h"

#include <iterator>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/common/logging.h"
#include "src/conf/configuration.h"

namespace zebra {

namespace {
constexpr char kUncertainEntity[] = "@uncertain";

// Conf ids are allocated process-wide so they never collide across worker
// agents (a conf created under one agent may be observed — as uncertain
// usage — under another).
std::atomic<uint64_t> g_next_conf_id{0};

// The agent installed on this thread by ScopedThreadConfAgent, if any.
thread_local ConfAgent* t_current_agent = nullptr;

// Who owns one conf object. Ownership is exclusive: a conf is node-owned,
// unit-test-owned or uncertain, never two at once.
struct ConfRecord {
  enum class Kind : uint8_t { kNode, kUnitTest, kUncertain };
  Kind kind = Kind::kUncertain;
  uint64_t node_id = 0;  // kNode: the owning node's id
  uint64_t parent = 0;   // the original this conf was cloned from (0: none)
};

struct NodeInfo {
  std::string_view node_type;   // interned in the agent's arena
  int node_index = 0;           // i-th node of this type in this session
  uint64_t parent_conf_id = 0;  // conf passed into the init function, if any
};

// Memo key: (conf id, interned parameter-name id).
struct ReadKey {
  uint64_t conf_id = 0;
  uint32_t name_id = 0;
  bool operator==(const ReadKey& other) const {
    return conf_id == other.conf_id && name_id == other.name_id;
  }
};

struct ReadKeyHash {
  uint64_t operator()(const ReadKey& key) const {
    return MixBits(key.conf_id * 0x9E3779B97F4A7C15ULL + key.name_id);
  }
};

// Memoized outcome of one (conf object, parameter) pair. Valid until the next
// promotion (which clears the memo).
struct ReadMemo {
  bool read_seen = false;  // a Get was decided (and, in kRecord, recorded)
  const std::string* assigned = nullptr;  // the Get's override; null: none
};

}  // namespace

// A conf's resolved owner: what plan lookups key on.
struct ConfAgent::Owner {
  enum class Kind { kUnknown, kUncertain, kUnitTest, kNode } kind = Kind::kUnknown;
  std::string_view entity;  // node type or kClientEntity (mapped kinds only)
  int node_index = -1;      // kNode only

  bool mapped() const { return kind == Kind::kUnitTest || kind == Kind::kNode; }
  // The index plan values are assigned by: the unit test is client node 0.
  int plan_index() const { return kind == Kind::kUnitTest ? 0 : node_index; }
};

// The paper's tables — nodeTable, unitTestConfIDs and uncertainConfIDs (as one
// exclusive owner per conf), parentToChild, threadContext — plus the read
// memo. All flat: Reset() empties them in O(1) and keeps their capacity, so a
// warmed-up agent runs sessions without allocating for its bookkeeping.
struct ConfAgent::Session {
  struct InitFrame {
    std::thread::id thread;
    uint64_t node_id = 0;
  };

  // The plan in force: `plan` points at either a caller-owned plan
  // (BeginSessionBorrowed) or `owned_plan` (BeginSession). Never null while
  // the session is active.
  TestPlan owned_plan;
  const TestPlan* plan = nullptr;
  SessionMode mode = SessionMode::kRecord;
  FlatHashMap<uint64_t, ConfRecord, U64Hash> confs;  // conf id -> owner
  FlatHashMap<uint64_t, NodeInfo, U64Hash> nodes;    // node id -> info
  FlatHashMap<uint64_t, int, U64Hash> type_counts;   // type name id -> started
  // Open StartInit frames of every thread, innermost last.
  std::vector<InitFrame> init_stack;
  // Hot-path memo; cleared on every promotion.
  FlatHashMap<ReadKey, ReadMemo, ReadKeyHash> memo;
  SessionReport report;

  bool recording() const { return mode == SessionMode::kRecord; }

  // The node whose init function is innermost on the calling thread (0: none).
  uint64_t CurrentInitNode() const {
    const std::thread::id self = std::this_thread::get_id();
    for (auto it = init_stack.rbegin(); it != init_stack.rend(); ++it) {
      if (it->thread == self) {
        return it->node_id;
      }
    }
    return 0;
  }

  void Reset() {
    owned_plan = TestPlan();
    plan = nullptr;
    confs.Clear();
    nodes.Clear();
    type_counts.Clear();
    init_stack.clear();
    memo.Clear();
    report = SessionReport();
  }
};

int SessionReport::TotalNodes() const {
  int total = 0;
  for (const auto& [type, count] : node_counts) {
    total += count;
  }
  return total;
}

std::set<std::string> SessionReport::ParamsReadBy(const std::string& entity) const {
  auto it = reads.find(entity);
  if (it == reads.end()) {
    return {};
  }
  return it->second;
}

std::set<std::string> SessionReport::AllParamsRead() const {
  std::set<std::string> all;
  for (const auto& [entity, params] : reads) {
    all.insert(params.begin(), params.end());
  }
  all.insert(uncertain_params.begin(), uncertain_params.end());
  return all;
}

ConfAgent::ConfAgent() : storage_(std::make_unique<Session>()) {}

ConfAgent::~ConfAgent() = default;

ConfAgent& ConfAgent::Instance() {
  static ConfAgent* agent = new ConfAgent();
  return *agent;
}

ConfAgent& ConfAgent::Current() {
  return t_current_agent != nullptr ? *t_current_agent : Instance();
}

uint64_t ConfAgent::NextConfId() { return g_next_conf_id.fetch_add(1) + 1; }

ScopedThreadConfAgent::ScopedThreadConfAgent() : previous_(t_current_agent) {
  t_current_agent = &agent_;
}

ScopedThreadConfAgent::~ScopedThreadConfAgent() { t_current_agent = previous_; }

void ConfAgent::BeginLocked(const TestPlan* plan, SessionMode mode) {
  if (session_ != nullptr) {
    throw InternalError("ConfAgent session already active; sessions must be serialized");
  }
  session_ = storage_.get();
  session_->plan = plan;
  session_->mode = mode;
  in_session_.store(true, std::memory_order_release);
}

void ConfAgent::BeginSession(TestPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    storage_->owned_plan = std::move(plan);
  }
  BeginLocked(&storage_->owned_plan, SessionMode::kRecord);
}

void ConfAgent::BeginSessionBorrowed(const TestPlan* plan, SessionMode mode) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Reset() leaves owned_plan empty, so it doubles as the empty plan.
  BeginLocked(plan != nullptr ? plan : &storage_->owned_plan, mode);
}

SessionReport ConfAgent::EndSession() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    throw InternalError("ConfAgent::EndSession without an active session");
  }
  SessionReport report = std::move(session_->report);
  session_->confs.ForEach([&](uint64_t, const ConfRecord& record) {
    if (record.kind == ConfRecord::Kind::kUncertain) {
      ++report.uncertain_conf_count;
    }
  });
  session_->type_counts.ForEach([&](uint64_t type_id, int count) {
    report.node_counts[std::string(intern_.Text(static_cast<uint32_t>(type_id)))] =
        count;
  });
  session_->Reset();
  session_ = nullptr;
  in_session_.store(false, std::memory_order_release);
  return report;
}

void ConfAgent::StartInit(uint64_t node_ptr, const std::string& node_type) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  const InternArena::Interned type = intern_.Intern(node_type);
  NodeInfo info;
  info.node_type = type.text;
  info.node_index = session_->type_counts[type.id]++;
  session_->nodes[node_ptr] = info;
  session_->init_stack.push_back(Session::InitFrame{std::this_thread::get_id(), node_ptr});
}

void ConfAgent::StopInit() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  std::vector<Session::InitFrame>& stack = session_->init_stack;
  const std::thread::id self = std::this_thread::get_id();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->thread == self) {
      stack.erase(std::next(it).base());
      return;
    }
  }
  ZLOG_WARN << "ConfAgent::StopInit without a matching StartInit on this thread";
}

void ConfAgent::NewConf(uint64_t conf_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  ++session_->report.conf_objects_created;
  ConfRecord& record = session_->confs[conf_id];
  // Rule 1.1: created while a node's init function is executing on this thread.
  if (uint64_t node_id = session_->CurrentInitNode(); node_id != 0) {
    record.kind = ConfRecord::Kind::kNode;
    record.node_id = node_id;
    return;
  }
  // Rule 1.2: created before any node has initialized. Otherwise we cannot
  // map it.
  record.kind = session_->nodes.empty() ? ConfRecord::Kind::kUnitTest
                                        : ConfRecord::Kind::kUncertain;
}

void ConfAgent::CloneConf(uint64_t orig_id, uint64_t clone_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  ++session_->report.conf_objects_created;
  ++session_->report.clones;
  // Rule 3: the clone belongs to the same entity as the original. An
  // original the session never saw gets a fresh record, which is uncertain
  // (it was created outside the session or is itself unmapped) — and so is
  // its clone.
  ConfRecord clone = session_->confs[orig_id];
  clone.parent = orig_id;
  session_->confs[clone_id] = clone;
}

void ConfAgent::PromoteToUnitTestLocked(uint64_t conf_id) {
  // Promotion changes the resolution of already-read confs: their memoized
  // decisions (and recorded-presence markers) are stale. Promotions are a
  // handful per run; dropping the memo wholesale is O(1) and obviously
  // correct.
  session_->memo.Clear();
  uint64_t current = conf_id;
  // Walk the clone chain upward, promoting any uncertain ancestor.
  for (int depth = 0; depth < 64 && current != 0; ++depth) {
    ConfRecord& record = session_->confs[current];
    if (record.kind != ConfRecord::Kind::kNode) {
      record.kind = ConfRecord::Kind::kUnitTest;
    }
    current = record.parent;
  }
}

void ConfAgent::RefToCloneConf(uint64_t orig_id, uint64_t clone_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return;
  }
  ++session_->report.conf_objects_created;
  ++session_->report.ref_to_clones;

  // Rule 2: the clone belongs to the node whose init function is executing.
  ConfRecord clone;
  clone.parent = orig_id;
  if (uint64_t node_id = session_->CurrentInitNode(); node_id == 0) {
    ZLOG_WARN << "refToCloneConf called outside a node initialization function";
  } else {
    clone.kind = ConfRecord::Kind::kNode;
    clone.node_id = node_id;
    session_->nodes[node_id].parent_conf_id = orig_id;
  }
  session_->confs[clone_id] = clone;

  // Rule 2 + Rule 3 back-propagation: the original (and its uncertain
  // ancestors) belong to the unit test.
  const ConfRecord* orig = session_->confs.Find(orig_id);
  if (orig == nullptr || orig->kind != ConfRecord::Kind::kNode) {
    PromoteToUnitTestLocked(orig_id);
    session_->report.conf_sharing_detected = true;
  } else {
    ZLOG_WARN << "refToCloneConf original already belongs to a node; leaving mapping";
  }
}

ConfAgent::Owner ConfAgent::ResolveLocked(uint64_t conf_id) const {
  Owner owner;
  const ConfRecord* record = session_->confs.Find(conf_id);
  if (record == nullptr) {
    return owner;
  }
  switch (record->kind) {
    case ConfRecord::Kind::kNode:
      if (const NodeInfo* node = session_->nodes.Find(record->node_id)) {
        owner.kind = Owner::Kind::kNode;
        owner.entity = node->node_type;
        owner.node_index = node->node_index;
      }
      break;
    case ConfRecord::Kind::kUnitTest:
      owner.kind = Owner::Kind::kUnitTest;
      owner.entity = kClientEntity;
      break;
    case ConfRecord::Kind::kUncertain:
      owner.kind = Owner::Kind::kUncertain;
      break;
  }
  return owner;
}

const std::string* ConfAgent::InterceptGet(uint64_t conf_id, std::string_view name) {
  if (!InSession()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return nullptr;
  }
  Session& session = *session_;
  session.report.any_conf_usage = true;

  // One hash of the name bytes and one intern probe give the name's id; one
  // memo probe on (conf, id) finds or makes the pair's entry. Every read
  // after the first of a pair stops there: no entity resolution, no plan
  // lookup, no recording.
  const InternArena::Interned interned = intern_.Intern(name);
  ReadMemo& memo = session.memo[ReadKey{conf_id, interned.id}];
  if (!memo.read_seen) {
    memo.read_seen = true;
    const Owner owner = ResolveLocked(conf_id);
    if (!owner.mapped()) {
      // Either a conf created outside the session (e.g. a process-global
      // default) or one we could not map — both are uncertain usage.
      // Uncertain confs never receive overrides, so the memoized decision is
      // stable.
      if (session.recording()) {
        session.report.uncertain_params.emplace(interned.text);
      }
    } else {
      // Only node-owned and unit-test-owned confs receive plan values.
      memo.assigned = session.plan->Lookup(interned.text, owner.entity,
                                           owner.plan_index());
      if (session.recording()) {
        session.report.reads[std::string(owner.entity)].emplace(interned.text);
      }
    }
  }
  if (memo.assigned != nullptr) {
    ++session.report.override_hits;
  }
  return memo.assigned;
}

void ConfAgent::InterceptSet(uint64_t conf_id, std::string_view name,
                             std::string_view value) {
  if (!InSession()) {
    return;
  }
  Configuration* parent = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (session_ == nullptr) {
      return;
    }
    const ConfRecord* record = session_->confs.Find(conf_id);
    if (record == nullptr || record->kind != ConfRecord::Kind::kNode) {
      return;
    }
    const NodeInfo* node = session_->nodes.Find(record->node_id);
    if (node == nullptr || node->parent_conf_id == 0) {
      return;
    }
    Configuration* const* registered = conf_registry_.Find(node->parent_conf_id);
    if (registered == nullptr) {
      return;
    }
    parent = *registered;
  }
  // Write back into the parent so that unit-test code which expects the node
  // to fill values into the shared conf still observes them (paper §6.3).
  // SetRaw bypasses interception to avoid recursion.
  parent->SetRaw(name, value);
}

void ConfAgent::RegisterConfObject(uint64_t conf_id, Configuration* conf) {
  std::lock_guard<std::mutex> lock(mutex_);
  conf_registry_[conf_id] = conf;
}

void ConfAgent::UnregisterConfObject(uint64_t conf_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  conf_registry_.Erase(conf_id);
}

std::optional<std::string> ConfAgent::EntityOf(uint64_t conf_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return std::nullopt;
  }
  const Owner owner = ResolveLocked(conf_id);
  switch (owner.kind) {
    case Owner::Kind::kUnknown:
      return std::nullopt;
    case Owner::Kind::kUncertain:
      return std::string(kUncertainEntity);
    case Owner::Kind::kUnitTest:
    case Owner::Kind::kNode:
      break;
  }
  return std::string(owner.entity);
}

int ConfAgent::NodeIndexOf(uint64_t conf_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (session_ == nullptr) {
    return -1;
  }
  return ResolveLocked(conf_id).node_index;
}

}  // namespace zebra
