// ConfAgent — the bottom layer of ZebraConf (paper §6).
//
// ConfAgent runs a given unit test with a given (possibly heterogeneous)
// configuration. Its task is to map every Configuration object created during
// the test to the entity that owns it — a node, the unit test itself, or
// "uncertain" — and to intercept get/set so that different nodes observe
// different values for the parameters under test.
//
// The implementation follows §6.2/§6.3 exactly:
//
//   Rule 1.1  A configuration object created on a thread that is currently
//             executing a node initialization function belongs to that node.
//   Rule 1.2  A configuration object created before any node has initialized
//             belongs to the unit test.
//   Rule 2    refToCloneConf: the clone belongs to the node whose init
//             function is executing; the original belongs to the unit test.
//   Rule 3    A clone belongs to the same entity as its original.
//
// Data structures mirror the paper: nodeTable, unitTestConfIDs,
// uncertainConfIDs, parentToChild, threadContext.
//
// Agent routing. The Configuration constructors must reach an agent without
// being handed one, so resolution is ambient: ConfAgent::Current() returns
// the agent installed on the calling thread (ScopedThreadConfAgent), falling
// back to the process-wide singleton. The in-process thread-pool scheduler
// and every fabric agent install one agent per worker thread, giving every
// worker the isolation a separate process would — sessions on different
// workers never share tables.
// Outside an active session every hook is a no-op, so the mini-applications
// remain usable as ordinary libraries.
//
// Hot path. InterceptGet is called for every configuration read a unit test
// makes — millions per campaign. Every read hashes the name bytes once
// (word-at-a-time) and probes the agent-lifetime intern table
// (common/intern_arena.h) for the name's dense id; the per-session read memo
// is a flat table keyed by (conf id, name id), so the first read of a pair
// costs one more probe and no allocation, and every later read returns the
// memoized plan decision — no entity resolution, no plan walk, no recording.
// Overrides come back as pointers into the plan, never as string copies.
// Ownership-mutating promotions (a handful per run) clear the memo in O(1).
//
// Recording is paid only where it is consumed. A kRecord session fills the
// per-read parts of the SessionReport (reads, uncertain_params) that test
// generation and the run cache need; a kVerdict
// session — every dynamic-phase execution when no run cache is installed —
// makes the same override decisions and skips that bookkeeping. Session
// state is reused across sessions: its tables are cleared, not freed.

#ifndef SRC_CONF_CONF_AGENT_H_
#define SRC_CONF_CONF_AGENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "src/common/flat_hash_map.h"
#include "src/common/intern_arena.h"
#include "src/conf/test_plan.h"

namespace zebra {

class Configuration;

// What one ConfAgent session observed. TestGenerator's pre-run consumes this
// to decide which (test, parameter, node type) combinations are effective.
struct SessionReport {
  // Node type -> number of node instances that ran startInit.
  std::map<std::string, int> node_counts;

  // Entity key ("DataNode", "Client", ...) -> parameters read through
  // configuration objects belonging to that entity.
  std::map<std::string, std::set<std::string>> reads;

  // Parameters read through configuration objects that could not be mapped to
  // any entity. Test instances combining this unit test with these parameters
  // must be excluded (Observation 3).
  std::set<std::string> uncertain_params;

  int conf_objects_created = 0;
  int clones = 0;
  int ref_to_clones = 0;
  int uncertain_conf_count = 0;

  // A unit-test-owned configuration object was handed to at least one node
  // initialization function (the paper's "configuration object sharing").
  bool conf_sharing_detected = false;

  // Any parameter read happened at all ("tests that involve configuration
  // usage" in §6.1).
  bool any_conf_usage = false;

  // How many interceptGet calls returned a plan-assigned value.
  int override_hits = 0;

  bool StartedAnyNode() const { return !node_counts.empty(); }
  int TotalNodes() const;
  std::set<std::string> ParamsReadBy(const std::string& entity) const;
  std::set<std::string> AllParamsRead() const;
};

// What a session records (see "Hot path" above). Both modes make identical
// override decisions and count override_hits, conf objects and nodes.
enum class SessionMode {
  // Full report, including the per-read reads/uncertain_params. Pre-runs,
  // dependency mining and every execution whose result enters the run cache.
  kRecord,
  // Those two fields stay empty. For executions whose only consumer is the
  // pass/fail verdict.
  kVerdict,
};

class ConfAgent {
 public:
  // The process-wide default agent (what Current() resolves to on threads
  // with no scoped agent installed).
  static ConfAgent& Instance();

  // The agent ambient on this thread: the ScopedThreadConfAgent installed
  // here, else Instance(). All Configuration hooks route through this.
  static ConfAgent& Current();

  // Instantiable for per-worker isolation (see ScopedThreadConfAgent). Most
  // code should use Current()/Instance() rather than constructing agents.
  ConfAgent();
  ~ConfAgent();

  ConfAgent(const ConfAgent&) = delete;
  ConfAgent& operator=(const ConfAgent&) = delete;

  // ---- Session control (harness side) --------------------------------------

  // Starts a kRecord session that owns `plan` (which may be empty: pre-run /
  // record-only). Only one session may be active at a time; test executions
  // are serialized.
  void BeginSession(TestPlan plan);

  // Starts a session that *borrows* `plan` — the caller keeps ownership and
  // must keep the plan alive (and unmutated) until EndSession; nullptr means
  // the empty plan. This is the hot-path entry: RunUnitTest already holds the
  // plan for the whole execution.
  void BeginSessionBorrowed(const TestPlan* plan, SessionMode mode);

  // Ends the session and returns everything it observed (in kVerdict mode,
  // without the per-read fields).
  SessionReport EndSession();

  bool InSession() const { return in_session_.load(std::memory_order_acquire); }

  // ---- Annotation API (application side, paper §6.3) ------------------------

  // Brackets a node initialization function. `node_ptr` identifies the node
  // object (its address), `node_type` is e.g. "DataNode".
  void StartInit(uint64_t node_ptr, const std::string& node_type);
  void StopInit();

  // Configuration-class hooks.
  void NewConf(uint64_t conf_id);
  void CloneConf(uint64_t orig_id, uint64_t clone_id);
  void RefToCloneConf(uint64_t orig_id, uint64_t clone_id);

  // Interception of Configuration::Get: returns the value the plan assigns
  // to the conf's owning entity, or nullptr when the stored value (or the
  // caller's default) is to be served. The pointee lives in the session's
  // plan and stays valid until the session ends.
  const std::string* InterceptGet(uint64_t conf_id, std::string_view name);

  // Interception of Configuration::Set: propagates the write to the parent
  // configuration object when the conf belongs to a node that was initialized
  // from a unit-test conf (paper: interceptSet parent write-back).
  void InterceptSet(uint64_t conf_id, std::string_view name, std::string_view value);

  // ---- Configuration-object registry ----------------------------------------

  // Configuration registers/unregisters itself so interceptSet can write back
  // into parent objects. Safe to call outside a session.
  void RegisterConfObject(uint64_t conf_id, Configuration* conf);
  void UnregisterConfObject(uint64_t conf_id);

  // Allocates a process-unique configuration-object id. Process-wide (not
  // per-agent) so ids never collide across worker agents, whichever agent a
  // conf object later reaches.
  static uint64_t NextConfId();

  // ---- Introspection (used by tests and the reporting layer) ----------------

  // Entity key the conf currently maps to: node type, kClientEntity,
  // "@uncertain", or nullopt if unknown. Only valid during a session.
  std::optional<std::string> EntityOf(uint64_t conf_id) const;

  // Node index of the node owning this conf (-1 if not node-owned).
  int NodeIndexOf(uint64_t conf_id) const;

 private:
  // Session state; defined in conf_agent.cc. One instance per agent, reused
  // by every session it runs.
  struct Session;
  struct Owner;

  // Resolves a conf id to its owner; records nothing. Caller holds mutex.
  Owner ResolveLocked(uint64_t conf_id) const;

  // Moves `conf_id` and its transitive parents from uncertain to unit-test
  // ownership (used by Rule 2 + Rule 3 back-propagation). Caller holds mutex.
  void PromoteToUnitTestLocked(uint64_t conf_id);

  // Starts a session over `plan` (never null). Caller holds mutex.
  void BeginLocked(const TestPlan* plan, SessionMode mode);

  mutable std::mutex mutex_;
  std::unique_ptr<Session> storage_;  // allocated once, reused
  Session* session_ = nullptr;        // storage_ while a session is active
  std::atomic<bool> in_session_{false};
  // Agent-lifetime intern table for parameter names and node types: ids and
  // views outlive every session.
  InternArena intern_;
  FlatHashMap<uint64_t, Configuration*, U64Hash> conf_registry_;
};

// RAII session guard used by the harness. Binds to the thread-current agent
// at construction so Begin and End always address the same agent, even if
// the body migrates work across threads.
class ConfAgentSession {
 public:
  explicit ConfAgentSession(TestPlan plan) : agent_(&ConfAgent::Current()) {
    agent_->BeginSession(std::move(plan));
  }
  // Borrowing form: `plan` must outlive the session (RunUnitTest owns the
  // plan for the whole execution, so the session need not copy it).
  ConfAgentSession(const TestPlan* plan, SessionMode mode)
      : agent_(&ConfAgent::Current()) {
    agent_->BeginSessionBorrowed(plan, mode);
  }
  ~ConfAgentSession() {
    if (!ended_) {
      agent_->EndSession();
    }
  }
  ConfAgentSession(const ConfAgentSession&) = delete;
  ConfAgentSession& operator=(const ConfAgentSession&) = delete;

  SessionReport End() {
    ended_ = true;
    return agent_->EndSession();
  }

 private:
  ConfAgent* agent_;
  bool ended_ = false;
};

// Installs a fresh agent as this thread's Current() for the scope — the
// per-worker-thread isolation of the thread pool and the fabric agents (the
// in-process analog of a separate address space). Nesting restores the
// previous agent on destruction. The agent must outlive every Configuration
// object registered with it; worker threads guarantee this by construction
// (all conf objects are created and destroyed inside unit-test bodies that
// run within the scope).
class ScopedThreadConfAgent {
 public:
  ScopedThreadConfAgent();
  ~ScopedThreadConfAgent();
  ScopedThreadConfAgent(const ScopedThreadConfAgent&) = delete;
  ScopedThreadConfAgent& operator=(const ScopedThreadConfAgent&) = delete;

  ConfAgent& agent() { return agent_; }

 private:
  ConfAgent agent_;
  ConfAgent* previous_;
};

}  // namespace zebra

#endif  // SRC_CONF_CONF_AGENT_H_
