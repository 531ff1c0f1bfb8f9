#include "src/core/thread_pool_scheduler.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/common/logging.h"
#include "src/core/canonical_fold.h"

namespace zebra {

namespace {

// One pre-sized slot per unit: the lock-free delivery channel. A unit is
// in flight on at most one worker at a time (the queue hands it out once,
// and a requeue happens only after the coordinator consumed the previous
// delivery), so a plain-write-then-release-store publication is race-free:
// the worker writes the payload fields, then stores `ready`; the coordinator
// observes `ready` with an acquire load before touching the payload.
struct ResultSlot {
  UnitWorkResult unit;
  UnsafeSnapshot snapshot;  // globally-unsafe set the unit ran under
  bool failed = false;      // injected fault or escaped exception
  bool hang = false;        // kHang specifically (hung_workers count)
  std::atomic<bool> ready{false};
};

}  // namespace

CampaignReport RunThreadPoolCampaign(const ConfSchema& schema,
                                     const UnitTestRegistry& corpus,
                                     CampaignOptions options, int workers) {
  ThreadPoolCampaignOptions pool;
  pool.workers = workers;
  return RunThreadPoolCampaign(schema, corpus, std::move(options), pool);
}

CampaignReport RunThreadPoolCampaign(const ConfSchema& schema,
                                     const UnitTestRegistry& corpus,
                                     CampaignOptions options,
                                     const ThreadPoolCampaignOptions& pool) {
  if (pool.workers < 1) {
    throw Error("thread-pool campaign requires at least one worker");
  }

  // The canonical fold replays any journal prefix before a worker starts,
  // so the remaining dispatch is exactly the uninterrupted campaign's
  // suffix. No unit-test executions happen on the coordinator thread.
  CanonicalFold fold("thread-pool campaign", schema, corpus, std::move(options),
                     FoldControls{pool.journal_path, pool.resume,
                                  pool.journal_sync_batch,
                                  pool.abort_after_folds});
  const CampaignOptions& resolved = fold.options();
  const std::vector<FoldUnit>& units = fold.units();

  size_t remaining = fold.remaining();
  int worker_count =
      std::min<int>(pool.workers, std::max<size_t>(remaining, 1));
  int64_t hung_workers = 0;

  // The shared cross-worker cache. Workers route executions through it via
  // Campaign::UseSharedRunCache; RunCache is internally synchronized.
  std::unique_ptr<RunCache> shared_cache;
  if (resolved.enable_run_cache) {
    shared_cache = std::make_unique<RunCache>(
        RunCache::Limits{resolved.cache_max_entries, resolved.cache_max_bytes});
  }

  // ---- Shared dispatch state (guarded by queue_mutex) -----------------------
  std::mutex queue_mutex;
  std::condition_variable queue_cv;  // workers wait here for work / stop
  std::deque<size_t> queue;
  // The predicted ladder (CanonicalFold::UpdateLadder): a dispatch of unit i
  // takes the rung covering i, by pointer. Republished only when the ladder
  // changed for some unit at or after the cursor.
  fold.UpdateLadder();
  std::vector<Rung> published_ladder = fold.ladder();
  // The fold's exact current set, for cancelling doomed units in flight.
  // unsafe_epoch counts its growths; a worker compares epochs before taking
  // the lock to look at the set itself.
  UnsafeSnapshot published_unsafe = fold.current_unsafe();
  size_t published_unsafe_size = published_unsafe->size();
  std::atomic<uint64_t> unsafe_epoch{0};
  std::atomic<int64_t> cancelled_units{0};
  bool stop = false;

  for (size_t i = fold.cursor(); i < units.size(); ++i) {
    queue.push_back(i);
  }

  // ---- Result delivery (lock-free slots + a wakeup cv) ----------------------
  std::vector<ResultSlot> slots(units.size());
  std::mutex results_mutex;
  std::condition_variable results_cv;  // coordinator waits here
  std::vector<size_t> ready_units;     // guarded by results_mutex

  std::atomic<int> alive_workers{worker_count};

  const FaultPlan& faults = pool.faults;

  // Worker body. Everything session-scoped lives on this thread: a private
  // ConfAgent (installed as Current() for the whole lifetime), a private
  // Campaign engine, and thread-local installation windows for the run cache
  // and duration collector inside RunUnit.
  auto worker_main = [&](int worker_index) {
    ScopedThreadConfAgent agent_scope;
    Campaign engine(schema, corpus, resolved);
    if (shared_cache != nullptr) {
      engine.UseSharedRunCache(shared_cache.get());
    }

    UnsafeSnapshot snapshot;
    uint64_t seen_epoch = 0;
    // Between pooled rounds: abandon the unit once the fold's set holds a
    // tested parameter its snapshot lacks. By the monotone side of the
    // staleness check its result could never fold. Costs one atomic load
    // while the set has not grown.
    const Campaign::AbandonCheck doomed =
        [&](const std::vector<std::string>& params_tested) {
          if (unsafe_epoch.load(std::memory_order_acquire) == seen_epoch) {
            return false;
          }
          UnsafeSnapshot unsafe_now;
          {
            std::lock_guard<std::mutex> lock(queue_mutex);
            unsafe_now = published_unsafe;
            seen_epoch = unsafe_epoch.load(std::memory_order_relaxed);
          }
          return CanonicalFold::MissesUnsafe(params_tested, *snapshot,
                                             *unsafe_now);
        };

    for (;;) {
      size_t unit_index = 0;
      int attempt = 0;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        for (;;) {
          if (stop) {
            return;
          }
          double now = CanonicalFold::Now();
          double earliest_release = -1.0;
          std::optional<size_t> next =
              fold.TakeDispatchable(&queue, now, &earliest_release);
          if (next) {
            unit_index = *next;
            break;
          }
          if (earliest_release < 0) {
            queue_cv.wait(lock);  // empty queue: wait for requeue or stop
          } else {
            // Every queued unit is backing off: sleep until the earliest
            // release (or an earlier requeue/stop notification).
            queue_cv.wait_for(lock, std::chrono::duration<double>(
                                        earliest_release - now));
          }
        }
        attempt = fold.attempt(unit_index);
        // Every rung contains the fold's current set, so nothing published
        // so far dooms this dispatch.
        snapshot = CanonicalFold::RungFor(published_ladder, unit_index);
        seen_epoch = unsafe_epoch.load(std::memory_order_relaxed);
      }

      const FoldUnit& work = units[unit_index];
      ResultSlot& slot = slots[unit_index];
      slot.failed = false;
      slot.hang = false;

      bool skip_execution = false;
      bool die_after_publish = false;
      FaultSpec fault;
      if (!faults.empty() &&
          faults.Decide(worker_index, work.test->id, attempt, &fault)) {
        switch (fault.kind) {
          case FaultKind::kCrash:
            // Thread analog of a dead worker process: report the failed
            // attempt, then this worker exits for good.
            slot.failed = true;
            skip_execution = true;
            die_after_publish = true;
            break;
          case FaultKind::kHang:
            // No watchdog in-process (a thread cannot be SIGKILLed), so a
            // hang injects as an immediately-detected failed attempt; the
            // fabric's lease watchdog is the real-hang testbed.
            slot.failed = true;
            slot.hang = true;
            skip_execution = true;
            break;
          case FaultKind::kGarbledFrame:
            // Typed in-process delivery has no frame to garble; the injected
            // effect (a worker's result is unusable) maps to a failed
            // attempt.
            slot.failed = true;
            skip_execution = true;
            break;
          case FaultKind::kSlowWorker: {
            struct timespec delay;
            delay.tv_sec = static_cast<time_t>(fault.slow_seconds);
            delay.tv_nsec = static_cast<long>(
                (fault.slow_seconds - static_cast<double>(delay.tv_sec)) * 1e9);
            ::nanosleep(&delay, nullptr);
            break;  // then execute normally
          }
        }
      }

      if (!skip_execution) {
        try {
          std::optional<UnitWorkResult> result =
              engine.TryRunUnit(*work.test, *snapshot, doomed);
          if (!result) {
            // Cancelled: straight back to the queue head, to run again under
            // a fresh rung. Not a failed attempt — no attempt is charged and
            // nothing is delivered.
            cancelled_units.fetch_add(1, std::memory_order_relaxed);
            {
              std::lock_guard<std::mutex> lock(queue_mutex);
              queue.push_front(unit_index);
            }
            queue_cv.notify_one();
            continue;
          }
          slot.unit = std::move(*result);
          slot.snapshot = std::move(snapshot);
        } catch (const std::exception& e) {
          // An exception escaping RunUnit is the in-process analog of a
          // worker dying mid-unit: the attempt failed, the worker survives.
          ZLOG_WARN << "thread-pool campaign: unit " << work.test->id
                    << " attempt failed (" << e.what() << ")";
          slot.failed = true;
        }
      }

      // Publish: payload writes above happen-before the release store;
      // the coordinator pairs it with an acquire load.
      slot.ready.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(results_mutex);
        ready_units.push_back(unit_index);
      }
      results_cv.notify_one();

      if (die_after_publish) {
        alive_workers.fetch_sub(1, std::memory_order_acq_rel);
        results_cv.notify_one();  // wake the coordinator to observe the death
        return;
      }
    }
  };

  // RAII shutdown: every exit path (including exceptions) stops and joins
  // the pool, so no worker thread outlives this frame.
  std::vector<std::thread> threads;
  struct PoolJoiner {
    std::vector<std::thread>& threads;
    std::mutex& queue_mutex;
    std::condition_variable& queue_cv;
    bool& stop;
    ~PoolJoiner() {
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        stop = true;
      }
      queue_cv.notify_all();
      for (std::thread& thread : threads) {
        if (thread.joinable()) {
          thread.join();
        }
      }
    }
  } joiner{threads, queue_mutex, queue_cv, stop};

  threads.reserve(static_cast<size_t>(worker_count));
  if (remaining > 0) {
    for (int i = 0; i < worker_count; ++i) {
      threads.emplace_back(worker_main, i);
    }
  }

  // ---- Coordinator: consume deliveries, fold canonically --------------------

  // Folds every result the canonical order allows, then eagerly re-queues
  // EVERY stale buffered result (staleness ahead of the cursor is monotone,
  // so each is provably stale at its own fold turn). Republishes the ladder
  // when it changed and the current set when it grew; an advance that
  // changes nothing takes no lock and allocates nothing.
  auto advance_fold = [&]() {
    fold.Advance();
    std::vector<size_t> stale_units = fold.TakeStale();
    const bool ladder_changed = fold.UpdateLadder();
    const bool grew = fold.globally_unsafe().size() != published_unsafe_size;
    if (stale_units.empty() && !ladder_changed && !grew) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      // push_front in descending order keeps the re-queued wave in canonical
      // order at the head (the fold is waiting on the smallest index).
      for (auto it = stale_units.rbegin(); it != stale_units.rend(); ++it) {
        slots[*it].ready.store(false, std::memory_order_relaxed);
        queue.push_front(*it);
      }
      if (ladder_changed) {
        published_ladder = fold.ladder();
      }
      if (grew) {
        published_unsafe = fold.current_unsafe();
        published_unsafe_size = published_unsafe->size();
        unsafe_epoch.fetch_add(1, std::memory_order_release);
      }
    }
    if (!stale_units.empty()) {
      queue_cv.notify_all();
    }
  };

  std::vector<size_t> delivered;
  while (fold.KeepGoing()) {
    if (alive_workers.load(std::memory_order_acquire) == 0) {
      // Drain any deliveries the dying workers published first; if the fold
      // still cannot complete, the campaign is stuck.
      bool drained;
      {
        std::lock_guard<std::mutex> lock(results_mutex);
        drained = ready_units.empty();
      }
      if (drained) {
        throw Error("thread-pool campaign: all workers died");
      }
    }

    // Sleep until a delivery arrives, then take the whole ready list (the
    // swap hands the workers back the previous batch's buffer). The bounded
    // wait keeps the cancel flag responsive even when every worker is
    // grinding on a long unit.
    delivered.clear();
    {
      std::unique_lock<std::mutex> lock(results_mutex);
      results_cv.wait_for(lock, std::chrono::milliseconds(100),
                          [&] { return !ready_units.empty(); });
      delivered.swap(ready_units);
    }
    if (delivered.empty()) {
      continue;
    }

    // Consume exactly the delivered slots, in unit order. The acquire load
    // pairs with the worker's release store; consuming resets the flag
    // before any possible requeue.
    std::sort(delivered.begin(), delivered.end());
    for (size_t i : delivered) {
      ResultSlot& slot = slots[i];
      if (!slot.ready.load(std::memory_order_acquire)) {
        continue;  // unreachable: an index is listed only after publication
      }
      slot.ready.store(false, std::memory_order_relaxed);
      if (!slot.failed) {
        fold.Buffer(i, std::move(slot.unit), std::move(slot.snapshot));
        continue;
      }
      if (slot.hang) {
        ++hung_workers;
      }
      // A failed attempt (injected crash/hang/garble, escaped exception)
      // goes back to the head of the queue behind its backoff, or is
      // quarantined at the attempt limit.
      if (fold.RecordFailure(i)) {
        {
          std::lock_guard<std::mutex> lock(queue_mutex);
          queue.push_front(i);
        }
        queue_cv.notify_one();
      }
    }

    advance_fold();
  }

  fold.report().hung_workers = hung_workers;
  fold.report().cancelled_units =
      cancelled_units.load(std::memory_order_relaxed);
  if (shared_cache != nullptr) {
    // Under a shared cache the per-unit deltas are skipped (see
    // Campaign::RunUnit), so the folded counters are zero; fill the totals
    // once from the one cache all workers used. These are accounting, not
    // part of the determinism contract — hit/miss splits depend on
    // scheduling.
    RunCache::Stats stats = shared_cache->stats();
    fold.report().cache_hits = stats.hits;
    fold.report().cache_misses = stats.misses;
    fold.report().cache_evictions = stats.evictions;
    fold.report().cache_load_failures = stats.load_failures;
  }
  return fold.Finish();
}

}  // namespace zebra
