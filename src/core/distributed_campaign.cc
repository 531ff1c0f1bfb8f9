#include "src/core/distributed_campaign.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim before forking the fleet
#endif

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/error.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/conf/conf_agent.h"
#include "src/core/campaign_agent.h"
#include "src/core/campaign_journal.h"
#include "src/core/canonical_fold.h"
#include "src/core/fabric_wire.h"
#include "src/core/report_io.h"
#include "src/core/watchdog.h"
#include "src/core/worker_ipc.h"

namespace zebra {

namespace {

// One unit of in-flight ownership. The lease — not the connection, not the
// agent — is what folding waits on; everything the requeue path needs to
// redo the work travels with it.
struct Lease {
  int attempt = 0;
  uint64_t sequence = 0;  // campaign-wide dispatch order
  int64_t epoch = 0;      // ladder epoch its dispatch batch carried
  double dispatch_seconds = 0.0;
  double deadline_seconds = 0.0;  // watchdog budget (0 = no deadline)
};

struct AgentConn {
  int fd = -1;
  pid_t pid = -1;  // spawned agents only; -1 for remote --connect agents
  int index = -1;
  int threads = 1;  // from the agent's kHello; capacity = threads x depth
  double last_heartbeat = 0.0;
  bool alive = false;
  std::map<size_t, Lease> leases;

  // Snapshot-delta bookkeeping: the ladder epoch (and its base rung) this
  // agent holds, as far as the coordinator knows. -1 = holds nothing (fresh
  // connection, or a nack told us its state is unprovable) — the next
  // dispatch is a full send. Updated optimistically after a successful
  // batch write; a wrong guess is harmless because the agent nacks anything
  // it cannot apply.
  int64_t snap_epoch = -1;
  UnsafeSnapshot snap_base;
};

// RAII over the whole fleet: every exit path (including exceptions mid-
// handshake) closes every fd and kills + reaps every spawned agent still
// owned here. Graceful shutdown hands pids over (sets them -1) before this
// runs, so the destructor is a no-op on the happy path.
struct Fleet {
  int listen_fd = -1;
  std::vector<pid_t> spawned;  // not yet adopted into an AgentConn
  std::vector<AgentConn> agents;

  ~Fleet() {
    if (listen_fd >= 0) {
      ::close(listen_fd);
    }
    std::vector<pid_t> pending;
    for (AgentConn& agent : agents) {
      if (agent.fd >= 0) {
        ::close(agent.fd);
      }
      if (agent.pid > 0) {
        ::kill(agent.pid, SIGKILL);
        pending.push_back(agent.pid);
      }
    }
    for (pid_t pid : spawned) {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        pending.push_back(pid);
      }
    }
    ReapAll(pending);  // best effort; exit status no longer matters here
  }
};

// Parses the three integers "<unit> <attempt> <epoch>" a result record's
// first line starts with (as StrSplit on ' ' and ParseInt64 each would:
// later fields are ignored).
bool ParseRecordHead(std::string_view line, int64_t (&head)[3]) {
  for (size_t i = 0; i < 3; ++i) {
    const size_t space = line.find(' ');
    if (!ParseInt64(line.substr(0, space), &head[i]) ||
        (space == std::string_view::npos && i < 2)) {
      return false;
    }
    line.remove_prefix(space == std::string_view::npos ? line.size()
                                                        : space + 1);
  }
  return true;
}

int64_t ParseStatLine(const std::string& line, const char* key) {
  std::string prefix = std::string(key) + "=";
  if (line.rfind(prefix, 0) != 0) {
    return -1;
  }
  int64_t value = 0;
  return ParseInt64(line.substr(prefix.size()), &value) ? value : -1;
}

}  // namespace

CampaignReport RunDistributedCampaign(
    const ConfSchema& schema, const UnitTestRegistry& corpus,
    CampaignOptions options, const DistributedCampaignOptions& fabric) {
  if (fabric.agents < 1 || fabric.agent_threads < 1) {
    throw Error("distributed campaign requires agents >= 1 and threads >= 1");
  }
  if (fabric.pipeline_depth < 1) {
    throw Error("distributed campaign requires pipeline_depth >= 1");
  }

  // The canonical fold replays any journal prefix before the fleet exists,
  // so the remaining dispatch is exactly the uninterrupted campaign's
  // suffix. No unit executes in this process except the exact re-runs below.
  CanonicalFold fold("distributed campaign", schema, corpus, std::move(options),
                     FoldControls{fabric.journal_path, fabric.resume,
                                  fabric.journal_sync_batch,
                                  fabric.abort_after_folds});
  const CampaignOptions& resolved = fold.options();
  const std::vector<FoldUnit>& units = fold.units();
  const std::string schema_hash =
      HashToHex(HashFnv64(CampaignJournal::Fingerprint(resolved, corpus)));

  int64_t hung_workers = 0;
  int64_t agent_disconnects = 0;
  int64_t expired_leases = 0;
  int64_t duplicate_results = 0;
  size_t remaining = fold.remaining();

  // Per-agent cache stats summed from kStats farewells (shared-cache mode
  // skips per-unit deltas, exactly like the thread-pool scheduler).
  int64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  int64_t cache_load_failures = 0;

  ScopedIgnoreSigPipe sigpipe_guard;
  Fleet fleet;

  if (remaining > 0) {
    int agent_count =
        std::min<int>(fabric.agents, static_cast<int>(remaining));

    std::string listen_host = "127.0.0.1";
    uint16_t listen_port = 0;
    if (!fabric.listen_address.empty() &&
        !ParseHostPort(fabric.listen_address, &listen_host, &listen_port)) {
      throw Error("distributed campaign: malformed --listen address '" +
                  fabric.listen_address + "'");
    }
    uint16_t bound_port = 0;
    fleet.listen_fd = ListenTcp(listen_host, listen_port, &bound_port);
    if (fleet.listen_fd < 0) {
      throw Error("distributed campaign: cannot listen on " + listen_host +
                  ":" + Int64ToString(listen_port));
    }

    if (fabric.spawn_agents) {
#if defined(__GLIBC__)
      // Return free heap pages to the OS before forking. A long-lived
      // coordinator process accumulates freed-but-dirty allocator pages;
      // every agent child that reuses them pays a copy-on-write fault per
      // page, a per-agent tax that scales with the parent's heap history,
      // not with the campaign. Trimming makes the fork cost depend only on
      // live state.
      ::malloc_trim(0);
#endif
      // Fork before any coordinator thread or poll state exists; each child
      // becomes a full agent process and never returns here.
      fleet.spawned.assign(static_cast<size_t>(agent_count), -1);
      for (int i = 0; i < agent_count; ++i) {
        pid_t pid = ::fork();
        if (pid < 0) {
          throw Error("distributed campaign: fork() failed");
        }
        if (pid == 0) {
          ::close(fleet.listen_fd);
          fleet.listen_fd = -1;
          fleet.spawned.clear();  // the child owns no siblings
          CampaignAgentOptions agent_options;
          agent_options.host = "127.0.0.1";
          agent_options.port = bound_port;
          agent_options.agent_index = i;
          agent_options.threads = fabric.agent_threads;
          agent_options.faults = fabric.faults;
          agent_options.net_faults = fabric.net_faults;
          agent_options.cache_dir = fabric.agent_cache_dir;
          std::_Exit(
              RunCampaignAgent(schema, corpus, resolved, agent_options));
        }
        fleet.spawned[static_cast<size_t>(i)] = pid;
      }
    }

    // ---- Handshake: assemble the fleet --------------------------------------
    double handshake_deadline =
        CanonicalFold::Now() + fabric.handshake_timeout_seconds;
    std::set<int> seen_indices;
    while (static_cast<int>(fleet.agents.size()) < agent_count) {
      double left = handshake_deadline - CanonicalFold::Now();
      if (left <= 0) {
        throw Error("distributed campaign: only " +
                    Int64ToString(static_cast<int64_t>(fleet.agents.size())) +
                    " of " + Int64ToString(agent_count) +
                    " agents completed the handshake in time");
      }
      struct pollfd listen_poll = {fleet.listen_fd, POLLIN, 0};
      int ready;
      do {
        ready = ::poll(&listen_poll, 1,
                       static_cast<int>(std::ceil(left * 1000.0)));
      } while (ready < 0 && errno == EINTR);
      if (ready <= 0) {
        continue;  // loop re-checks the deadline
      }
      int fd = AcceptTcp(fleet.listen_fd);
      if (fd < 0) {
        continue;
      }
      // One frame of patience for the hello; a connector that stalls or
      // garbles it is dropped, not waited on.
      struct pollfd hello_poll = {fd, POLLIN, 0};
      do {
        ready = ::poll(&hello_poll, 1, 5000);
      } while (ready < 0 && errno == EINTR);
      FabricMsg type;
      std::string payload;
      FabricRead hello_status =
          ready <= 0 ? FabricRead::kError
                     : ReadFabricFrame(fd, &type, &payload);
      if (hello_status == FabricRead::kVersionMismatch) {
        // An intact frame from another protocol era — refuse it by name. An
        // older peer cannot parse a v3 reject frame, but it does see the
        // close and gives up; a future peer reads the reason verbatim.
        ZLOG_WARN << "distributed campaign: connector speaks a different "
                     "wire protocol version; rejecting";
        WriteFabricFrame(fd, FabricMsg::kReject, "protocol version mismatch");
        ::close(fd);
        continue;
      }
      if (hello_status != FabricRead::kOk || type != FabricMsg::kHello) {
        ::close(fd);
        continue;
      }
      std::vector<std::string> hello = StrSplit(payload, '\n');
      int64_t threads = 0;
      int64_t index = -1;
      if (hello.size() < 3 || !ParseInt64(hello[1], &threads) ||
          !ParseInt64(hello[2], &index) || threads < 1 || index < 0) {
        WriteFabricFrame(fd, FabricMsg::kReject, "malformed hello");
        ::close(fd);
        continue;
      }
      if (hello[0] != schema_hash) {
        // An agent over a different corpus/options would return results that
        // parse but corrupt the fold — refuse at the door.
        ZLOG_WARN << "distributed campaign: agent " << index
                  << " schema hash mismatch; rejecting";
        WriteFabricFrame(fd, FabricMsg::kReject, "schema hash mismatch");
        ::close(fd);
        continue;
      }
      if (!seen_indices.insert(static_cast<int>(index)).second) {
        WriteFabricFrame(fd, FabricMsg::kReject, "duplicate agent index");
        ::close(fd);
        continue;
      }
      if (!WriteFabricFrame(fd, FabricMsg::kWelcome,
                            Int64ToString(index) + "\n" +
                                DoubleToString(
                                    fabric.heartbeat_interval_seconds))) {
        ::close(fd);
        continue;
      }
      AgentConn conn;
      conn.fd = fd;
      conn.index = static_cast<int>(index);
      conn.threads = static_cast<int>(threads);
      conn.last_heartbeat = CanonicalFold::Now();
      conn.alive = true;
      if (fabric.spawn_agents && index >= 0 &&
          static_cast<size_t>(index) < fleet.spawned.size()) {
        conn.pid = fleet.spawned[static_cast<size_t>(index)];
        fleet.spawned[static_cast<size_t>(index)] = -1;  // adopted
      }
      fleet.agents.push_back(conn);
    }
    ZLOG_INFO << "distributed campaign: fleet assembled — " << agent_count
              << " agents x " << fabric.agent_threads << " threads on port "
              << bound_port;

    // ---- Dispatch / fold loop -----------------------------------------------

    std::deque<size_t> queue;
    for (size_t i = fold.cursor(); i < units.size(); ++i) {
      queue.push_back(i);
    }
    uint64_t next_lease_sequence = 0;

    // Ladder epochs. The coordinator dispatches under the fold's predicted
    // ladder (CanonicalFold::UpdateLadder), as the thread pool does, and the
    // epoch ticks whenever the ladder changes for some unit at or after the
    // cursor — a growth the ladder predicted changes nothing and sends
    // nothing. Each AgentConn remembers the epoch it last successfully
    // sent, so steady-state dispatches carry a few bytes
    // (EncodeSnapshotSection). Every result arrives stamped with the epoch of the ladder it actually
    // executed under (the agent takes its rung at execution start, not at
    // dispatch), and is buffered with that ladder's rung for its unit. An
    // epoch stays in epoch_ladders while a live lease can still report it:
    // a lease's result carries at least the epoch its dispatch batch
    // carried, so every epoch below the oldest live lease's is pruned.
    int64_t coord_epoch = -1;
    std::map<int64_t, std::vector<Rung>> epoch_ladders;
    StreamingPercentile95 completion_p95;

    auto alive_agents = [&]() {
      int alive = 0;
      for (const AgentConn& agent : fleet.agents) {
        alive += agent.alive ? 1 : 0;
      }
      return alive;
    };

    // Requeue one expired lease through the canonical fold's attempt
    // policy: head-queue behind a backoff, or quarantine past the limit.
    auto requeue_lease = [&](size_t unit_index) {
      ++expired_leases;
      if (fold.RecordFailure(unit_index)) {
        queue.push_front(unit_index);
      }
    };

    // The leases a watchdog may blame on `agent` at `now`: past their
    // deadline and among the agent's `threads` oldest. The agent runs its
    // leases in dispatch order, so those are the only ones it can have
    // started; a lease queued behind a hung one shares its dispatch time and
    // deadline but never ran.
    auto overdue_leases = [](const AgentConn& agent, double now) {
      std::vector<std::pair<uint64_t, size_t>> by_dispatch;
      for (const auto& [unit_index, lease] : agent.leases) {
        by_dispatch.emplace_back(lease.sequence, unit_index);
      }
      std::sort(by_dispatch.begin(), by_dispatch.end());
      by_dispatch.resize(
          std::min(by_dispatch.size(), static_cast<size_t>(agent.threads)));
      std::set<size_t> overdue;
      for (const auto& [sequence, unit_index] : by_dispatch) {
        const Lease& lease = agent.leases.at(unit_index);
        if (lease.deadline_seconds > 0 &&
            now - lease.dispatch_seconds >= lease.deadline_seconds) {
          overdue.insert(unit_index);
        }
      }
      return overdue;
    };

    // Retiring an agent expires every lease it held, closes the connection,
    // and SIGKILLs a spawned process (it may be merely silent, not dead — a
    // kill on an already-dead pid is free) and reaps it so nothing zombies.
    // Which leases are charged a failed attempt depends on what is known. A
    // crash, disconnect, garbled frame or silence names no culprit, so every
    // lease is charged (`charged` null). The watchdog names its culprits in
    // `charged`; the agent's other leases return to the head of the queue
    // with no attempt charged and no backoff, so a unit pipelined behind a
    // hanging one is never quarantined for it.
    auto retire_agent = [&](AgentConn& agent, const char* reason,
                            const std::set<size_t>* charged = nullptr) {
      ++agent_disconnects;
      std::vector<size_t> held;
      for (const auto& [unit_index, lease] : agent.leases) {
        held.push_back(unit_index);
      }
      agent.leases.clear();
      // Descending push_front keeps the expired wave in canonical order at
      // the head of the queue (the fold waits on the smallest index).
      std::sort(held.rbegin(), held.rend());
      for (size_t unit_index : held) {
        if (charged == nullptr || charged->count(unit_index) > 0) {
          requeue_lease(unit_index);
        } else {
          ++expired_leases;
          queue.push_front(unit_index);
        }
      }
      if (agent.fd >= 0) {
        ::close(agent.fd);
        agent.fd = -1;
      }
      if (agent.pid > 0) {
        ::kill(agent.pid, SIGKILL);
        ReapAll({agent.pid});
        agent.pid = -1;
      }
      agent.alive = false;
      ZLOG_INFO << "distributed campaign: agent " << agent.index << " "
                << reason << ", " << alive_agents() << " remaining";
    };

    // Local exact re-run for stale cursor units. The fold and staleness
    // contract is the thread pool's (canonical_fold.h) — a stale buffered
    // result never folds — but the remedy differs: stale results stay
    // buffered until the cursor reaches them, and at the cursor the fold has
    // already folded every predecessor, so fold.globally_unsafe() IS the
    // exact set a sequential campaign would hand this unit. Re-running it
    // right here, in-process, under that set is therefore final (never stale
    // again) and skips the redispatch round-trip that would otherwise stall
    // the fold — the dominant tax of speculative execution over a real wire.
    // The engine is built lazily (most campaigns at depth 1 never need it)
    // and uncached, so the folded cache counters stay zero as under the
    // thread pool's shared cache (the agents' farewells own those totals).
    std::unique_ptr<ScopedThreadConfAgent> local_scope;
    std::unique_ptr<Campaign> local_engine;
    const CanonicalFold::Rerun rerun_exact = [&](size_t unit_index) {
      if (!local_engine) {
        CampaignOptions local_options = resolved;
        local_options.enable_run_cache = false;
        local_scope = std::make_unique<ScopedThreadConfAgent>();
        local_engine =
            std::make_unique<Campaign>(schema, corpus, local_options);
      }
      return local_engine->RunUnit(*units[unit_index].test,
                                   fold.globally_unsafe());
    };

    while (fold.KeepGoing()) {
      if (alive_agents() == 0) {
        throw Error("distributed campaign: all agents died");
      }

      // Refresh the ladder before dispatching. An agent applies whatever
      // ladder it last received and its workers take their rung at
      // execution start, so a result may have run under an older ladder
      // than its dispatch carried, or a newer one; either way the epoch it
      // reports names the exact snapshot, and the two-sided check in
      // Advance re-runs anything whose snapshot disagrees with the exact
      // set on a tested parameter — too small or, when a prediction
      // overshot, too large — so findings stay bitwise-identical while far
      // fewer units *are* stale.
      if (fold.UpdateLadder() || epoch_ladders.empty()) {
        epoch_ladders.emplace(++coord_epoch, fold.ladder());
      }
      const std::vector<Rung>& coord_ladder = epoch_ladders.rbegin()->second;
      // A pipelined unit legitimately waits behind up to depth-1 queued
      // units per thread before it starts; its watchdog budget scales to
      // match. (Completion samples include that wait, so the p95 term is
      // self-correcting; the scale protects the floor-dominated regime.)
      const double deadline =
          WatchdogDeadlineFromP95(resolved.watchdog_floor_seconds,
                                  resolved.watchdog_multiplier,
                                  completion_p95.Value()) *
          fabric.pipeline_depth;

      // Dispatch: fill every agent up to its pipelined lease capacity
      // (pipeline_depth x threads — the prefetch window that keeps workers
      // busy while results fly back) with the first dispatchable units
      // (queue order preserved, backoff-held units skipped) — all in ONE
      // kDispatchBatch frame per agent: a snapshot section (full, delta, or
      // keep against the agent's last applied epoch), then the unit records.
      for (AgentConn& agent : fleet.agents) {
        if (!agent.alive) {
          continue;
        }
        const int capacity = agent.threads * fabric.pipeline_depth;
        std::vector<size_t> picked;
        while (static_cast<int>(agent.leases.size() + picked.size()) <
               capacity) {
          std::optional<size_t> next =
              fold.TakeDispatchable(&queue, CanonicalFold::Now());
          if (!next) {
            break;  // empty, or every queued unit is backing off
          }
          picked.push_back(*next);
        }
        if (picked.empty() &&
            (agent.snap_epoch == coord_epoch || agent.leases.empty())) {
          // Nothing to send and nothing in flight that an epoch bump could
          // freshen — an idle agent learns the new ladder with its next unit.
          continue;
        }
        // picked may be empty here: a full agent whose ladder fell behind
        // gets a unit-less broadcast batch, so the leases already queued on
        // it execute under the newer ladder instead of re-running as stale.
        std::string batch;
        AppendBatchRecord(&batch,
                          EncodeSnapshotSection(agent.snap_epoch, agent.snap_base,
                                                coord_epoch, coord_ladder));
        double t = CanonicalFold::Now();
        for (size_t unit_index : picked) {
          AppendBatchRecord(
              &batch, Int64ToString(static_cast<int64_t>(unit_index)) + " " +
                          Int64ToString(fold.attempt(unit_index)));
          Lease lease;
          lease.attempt = fold.attempt(unit_index);
          lease.sequence = next_lease_sequence++;
          lease.epoch = coord_epoch;
          lease.dispatch_seconds = t;
          lease.deadline_seconds = deadline;
          agent.leases[unit_index] = lease;
        }
        if (!WriteFabricFrame(agent.fd, FabricMsg::kDispatchBatch, batch)) {
          // None of the leases took effect; retirement expires every one of
          // them into the requeue path.
          retire_agent(agent, "died at dispatch");
          continue;
        }
        agent.snap_epoch = coord_epoch;
        agent.snap_base = coord_ladder.front().unsafe;
      }
      if (alive_agents() == 0) {
        continue;  // top of loop throws with the precise error
      }

      // Bounded poll keeps the cancel flag, watchdog, and heartbeat checks
      // responsive even when no frame arrives.
      std::vector<struct pollfd> poll_fds;
      std::vector<size_t> poll_agents;
      for (size_t i = 0; i < fleet.agents.size(); ++i) {
        if (fleet.agents[i].alive) {
          poll_fds.push_back({fleet.agents[i].fd, POLLIN, 0});
          poll_agents.push_back(i);
        }
      }
      int ready;
      do {
        ready = ::poll(poll_fds.data(), poll_fds.size(), 100);
      } while (ready < 0 && errno == EINTR);
      if (ready < 0) {
        throw Error("distributed campaign: poll() failed");
      }

      for (size_t i = 0; i < poll_fds.size(); ++i) {
        if (poll_fds[i].revents == 0) {
          continue;
        }
        AgentConn& agent = fleet.agents[poll_agents[i]];
        if (!agent.alive) {
          continue;  // retired earlier in this very pass
        }
        FabricMsg type;
        std::string payload;
        FabricRead status = ReadFabricFrame(agent.fd, &type, &payload);
        if (status == FabricRead::kEof) {
          retire_agent(agent, "disconnected");
          continue;
        }
        if (status != FabricRead::kOk) {
          retire_agent(agent, "sent a garbled frame");
          continue;
        }
        if (type == FabricMsg::kHeartbeat) {
          agent.last_heartbeat = CanonicalFold::Now();
          continue;
        }
        if (type == FabricMsg::kSnapshotNack) {
          // The agent refused units it could not prove a current snapshot
          // for (epoch mismatch — injected or real). Each refused lease
          // re-enters the queue through the requeue/backoff policy (the
          // bump-an-attempt economics every fault path shares), and the
          // agent's snapshot state is voided so its next dispatch is a full
          // resend — after which deltas resume. Line 0 is the agent's
          // epoch (log flavor only); matching is by live lease, so a stale
          // nack is as idempotent as a stale result.
          std::vector<std::string> lines = StrSplit(payload, '\n');
          std::vector<size_t> refused;
          for (size_t line = 1; line < lines.size(); ++line) {
            std::vector<std::string> head = StrSplit(lines[line], ' ');
            int64_t unit_index = -1;
            int64_t attempt = -1;
            if (head.size() < 2 || !ParseInt64(head[0], &unit_index) ||
                !ParseInt64(head[1], &attempt) || unit_index < 0) {
              continue;
            }
            auto lease_it = agent.leases.find(static_cast<size_t>(unit_index));
            if (lease_it == agent.leases.end() ||
                lease_it->second.attempt != static_cast<int>(attempt)) {
              continue;
            }
            agent.leases.erase(lease_it);
            refused.push_back(static_cast<size_t>(unit_index));
          }
          agent.snap_epoch = -1;
          // Descending push_front keeps the refused wave in canonical order
          // at the head of the queue, as in retirement.
          std::sort(refused.rbegin(), refused.rend());
          for (size_t unit_index : refused) {
            requeue_lease(unit_index);
          }
          continue;
        }
        if (type != FabricMsg::kResultBatch) {
          continue;  // stats before shutdown etc. — ignore
        }
        std::vector<std::string> batch_records;
        if (!DecodeBatchRecords(payload, &batch_records)) {
          retire_agent(agent, "sent a malformed result batch");
          continue;
        }
        for (const std::string& record : batch_records) {
          const std::string_view text = record;
          const size_t newline = text.find('\n');
          int64_t head[3];  // unit, attempt, epoch
          if (newline == std::string_view::npos ||
              !ParseRecordHead(text.substr(0, newline), head)) {
            // Retirement clears the lease map; break so the remaining
            // records of this batch cannot miscount as duplicates.
            retire_agent(agent, "sent a malformed result");
            break;
          }
          const auto [unit_index, attempt, result_epoch] = head;
          auto lease_it = agent.leases.find(static_cast<size_t>(unit_index));
          if (lease_it == agent.leases.end() ||
              lease_it->second.attempt != static_cast<int>(attempt)) {
            // No live lease behind this completion: the stale duplicate a
            // re-sent or reassigned unit produces. Folding is driven only by
            // live leases, so dropping it here is what makes completion
            // idempotent.
            ++duplicate_results;
            continue;
          }
          size_t parsed_index = 0;
          UnitWorkResult unit;
          if (!ParseUnitResult(text.substr(newline + 1), &parsed_index, &unit) ||
              parsed_index != static_cast<size_t>(unit_index)) {
            retire_agent(agent, "sent an unparseable result");
            break;
          }
          auto epoch_it = epoch_ladders.find(result_epoch);
          if (epoch_it == epoch_ladders.end()) {
            // An epoch this coordinator never issued (or pruned: none below
            // the lease's own dispatch epoch is reportable) cannot name a
            // valid snapshot — the peer is provably broken, not merely stale.
            retire_agent(agent, "reported an unknown snapshot epoch");
            break;
          }
          completion_p95.Add(CanonicalFold::Now() -
                             lease_it->second.dispatch_seconds);
          fold.Buffer(parsed_index, std::move(unit),
                      CanonicalFold::RungFor(epoch_it->second, parsed_index));
          agent.leases.erase(lease_it);
        }
      }

      // Watchdog: a started lease past its deadline means a unit is stuck on
      // a live, heartbeating host (an in-agent hang blocks one worker thread,
      // not the heartbeat thread) — the whole agent is retired and its
      // process SIGKILLed.
      double now = CanonicalFold::Now();
      for (AgentConn& agent : fleet.agents) {
        if (!agent.alive) {
          continue;
        }
        const std::set<size_t> hung = overdue_leases(agent, now);
        if (!hung.empty()) {
          for (size_t unit_index : hung) {
            const Lease& lease = agent.leases.at(unit_index);
            ZLOG_WARN << "distributed campaign: watchdog — agent "
                      << agent.index << " exceeded "
                      << DoubleToString(lease.deadline_seconds)
                      << "s deadline on unit " << units[unit_index].test->id;
          }
          ++hung_workers;
          retire_agent(agent, "hung (watchdog)", &hung);
          continue;
        }
        if (fabric.heartbeat_timeout_seconds > 0 &&
            now - agent.last_heartbeat > fabric.heartbeat_timeout_seconds) {
          retire_agent(agent, "went silent (heartbeat timeout)");
        }
      }

      fold.Advance(rerun_exact);

      // Prune the ladders no live lease can report.
      int64_t oldest_reportable = coord_epoch;
      for (const AgentConn& agent : fleet.agents) {
        for (const auto& [unit_index, lease] : agent.leases) {
          oldest_reportable = std::min(oldest_reportable, lease.epoch);
        }
      }
      epoch_ladders.erase(epoch_ladders.begin(),
                          epoch_ladders.lower_bound(oldest_reportable));
    }

    // ---- Graceful shutdown --------------------------------------------------
    for (AgentConn& agent : fleet.agents) {
      if (agent.alive) {
        WriteFabricFrame(agent.fd, FabricMsg::kShutdown, std::string());
      }
    }
    // Drain each surviving agent to its kStats farewell (skipping any
    // results its workers finished after the stop) and reap it cleanly.
    for (AgentConn& agent : fleet.agents) {
      if (!agent.alive) {
        continue;
      }
      bool got_farewell = false;
      double drain_deadline = CanonicalFold::Now() + 10.0;
      while (CanonicalFold::Now() < drain_deadline) {
        struct pollfd pfd = {agent.fd, POLLIN, 0};
        int ready;
        do {
          ready = ::poll(&pfd, 1, 200);
        } while (ready < 0 && errno == EINTR);
        if (ready <= 0) {
          continue;
        }
        FabricMsg type;
        std::string payload;
        if (ReadFabricFrame(agent.fd, &type, &payload) != FabricRead::kOk) {
          break;
        }
        if (type != FabricMsg::kStats) {
          continue;
        }
        for (const std::string& line : StrSplit(payload, '\n')) {
          int64_t value;
          if ((value = ParseStatLine(line, "cache_hits")) >= 0) {
            cache_hits += value;
          } else if ((value = ParseStatLine(line, "cache_misses")) >= 0) {
            cache_misses += value;
          } else if ((value = ParseStatLine(line, "cache_evictions")) >= 0) {
            cache_evictions += value;
          } else if ((value = ParseStatLine(line, "cache_load_failures")) >=
                     0) {
            cache_load_failures += value;
          }
        }
        got_farewell = true;
        break;
      }
      ::close(agent.fd);
      agent.fd = -1;
      if (agent.pid > 0) {
        if (!got_farewell) {
          // The agent never said goodbye (a wedged worker thread blocks its
          // clean exit); reaping an immortal child would block forever.
          ::kill(agent.pid, SIGKILL);
        }
        ReapAll({agent.pid});
        agent.pid = -1;
      }
      agent.alive = false;
    }
  }

  CampaignReport& report = fold.report();
  report.hung_workers = hung_workers;
  report.agent_disconnects = agent_disconnects;
  report.expired_leases = expired_leases;
  report.duplicate_results = duplicate_results;
  if (resolved.enable_run_cache) {
    // Shared-cache mode skips per-unit deltas, so the folded counters are
    // zero; fill totals from the agents' farewells. Agents that died before
    // shutdown never reported — accounting, not a determinism surface.
    report.cache_hits = cache_hits;
    report.cache_misses = cache_misses;
    report.cache_evictions = cache_evictions;
    report.cache_load_failures = cache_load_failures;
  }
  return fold.Finish();
}

}  // namespace zebra
