// In-process thread-pool campaign scheduler: the single-box engine.
//
// Worker threads pull (app, unit-test) work units from a queue, run them
// speculatively, and hand results to a coordinator that folds them in
// canonical unit order through CanonicalFold (canonical_fold.h). Compared
// with forked workers there is no fork per worker, no pipe round-trip per
// unit, and no serialize/parse of every UnitWorkResult — on the native
// corpus (tens of microseconds per unit-test run) that overhead would be
// comparable to the work itself.
//
// Isolation without processes. Everything a forked worker would get from
// its address-space copy is per-thread here:
//
//   * ConfAgent — each worker installs a ScopedThreadConfAgent, so
//     ConfAgent::Current() resolves to a private agent (own sessions, own
//     intern arena, own conf registry) for the whole worker lifetime.
//   * Campaign engine — each worker owns a private Campaign (generator,
//     runner, options copy); RunUnit never touches another worker's engine.
//   * Harness globals — the run-cache installation pointer and the duration
//     collector are thread_local, so a worker's installation windows never
//     leak across threads.
//   * SimClock/Cluster — already per-TestContext; nothing to do.
//
// What *is* shared is chosen, not accidental: when the campaign enables a
// run cache, one internally synchronized RunCache serves all workers, so a
// result computed by one worker is a hit for every other.
//
// Determinism: workers run units under a predicted snapshot of the
// globally-unsafe set, the coordinator folds in canonical order, and any
// buffered result whose snapshot disagrees with the exact set on a tested
// parameter is discarded; every stale result is re-queued at once
// (canonical_fold.h has the two-sided staleness argument). Findings, Table-5
// stage counts, and runs_to_first_detection are bitwise-identical to
// Campaign(...).Run() at every thread count.
//
// Exact speculation. The coordinator publishes CanonicalFold's predicted
// ladder: U(cursor), then the set that folding the confirmations already
// buffered ahead of the cursor would produce, rung by rung. A dispatch of
// unit i hands the worker the rung covering i by pointer — never a copy —
// so a unit whose predecessors have all reported runs under exactly U(i).
// The ladder is republished only when it changed. Separately, every growth
// of the fold's set bumps an atomic epoch; between pooled rounds a worker
// compares epochs, and when the set grew and now holds a parameter the unit
// tests but its snapshot lacks, it abandons the unit — its result could
// never fold — and puts it back at the queue head to run under a fresh rung.
// A cancellation is not a failed attempt (counted in cancelled_units, never
// in requeued_units).
//
// Result delivery: one pre-sized slot per unit; a worker writes the result
// into its unit's slot, publishes with a release store on the slot's ready
// flag, and appends the unit index to a ready list under the coordinator's
// wakeup mutex. The coordinator swaps the list out and consumes exactly those
// slots, so a wakeup costs O(deliveries), not O(units). The only mutexes are
// the dispatch queue (workers pull units, the coordinator pushes requeues)
// and that wakeup mutex — neither is held during unit execution (a worker
// takes the dispatch lock mid-unit only after the epoch moved).
//
// Fault tolerance. The fault-injection vocabulary (fault_injection.h) maps to
// threads as follows: kCrash terminates the worker *thread* after reporting a
// failed attempt (the thread analog of a dead process — remaining workers
// absorb the queue; all workers dead throws); kGarbledFrame reports a failed
// attempt (there is no frame to garble — the delivery path is typed);
// kHang reports a failed attempt immediately and is counted in
// hung_workers. There is no watchdog: a thread cannot be SIGKILLed without
// taking down the process, so a *real* runaway unit is the distributed
// fabric's territory — its forked agents and lease watchdog are the
// process-fault testbed (distributed_campaign.h, docs/ROBUSTNESS.md).
// Failed attempts go through CanonicalFold's requeue/backoff/quarantine
// policy: a unit failing unit_attempt_limit attempts is quarantined into
// poisoned_units and folds as an empty stub.
//
// Crash safety: with journal_path set, every folded result is appended at
// fold time and resume replays the valid prefix through the same fold
// (campaign_journal.h).

#ifndef SRC_CORE_THREAD_POOL_SCHEDULER_H_
#define SRC_CORE_THREAD_POOL_SCHEDULER_H_

#include <string>

#include "src/core/campaign.h"
#include "src/core/fault_injection.h"

namespace zebra {

struct ThreadPoolCampaignOptions {
  // Worker threads to spawn (clamped to the unit count).
  int workers = 1;

  // Deterministic fault-injection plan evaluated at (worker, test id,
  // attempt) coordinates — see fault_injection.h and the thread mapping
  // above. Empty = no injected faults.
  FaultPlan faults;

  // Crash-safe journal (campaign_journal.h): non-empty appends every folded
  // unit result; resume=true replays an existing journal's valid prefix
  // instead of re-executing. A fingerprint mismatch (different apps, corpus,
  // or result-affecting options) throws.
  std::string journal_path;
  bool resume = false;

  // Journal durability: records per fdatasync (group commit). 1 = sync every
  // append (the default); N trades at most the last N-1 unsynced records of
  // resume coverage for fewer disk barriers. Never affects findings.
  int journal_sync_batch = 1;

  // Test hook simulating a coordinator crash: stop dispatching and return
  // after this many *live* folds (journal replay does not count).
  int abort_after_folds = 0;
};

// Runs the campaign over `workers` in-process threads pulling (app,
// unit-test) work units dynamically. Findings, stage counts, and
// runs_to_first_detection are bitwise-identical to Campaign(...).Run() for
// every thread count. Throws Error on invalid worker counts or when every
// worker thread has died (injected crashes).
CampaignReport RunThreadPoolCampaign(const ConfSchema& schema,
                                     const UnitTestRegistry& corpus,
                                     CampaignOptions options, int workers);

// Full-control variant (fault injection, journal/resume, abort hooks).
CampaignReport RunThreadPoolCampaign(const ConfSchema& schema,
                                     const UnitTestRegistry& corpus,
                                     CampaignOptions options,
                                     const ThreadPoolCampaignOptions& pool);

}  // namespace zebra

#endif  // SRC_CORE_THREAD_POOL_SCHEDULER_H_
