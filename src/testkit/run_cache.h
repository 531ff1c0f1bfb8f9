// RunCache: memoized unit-test execution results.
//
// RunUnitTest is a pure function of the (test id, TestPlan, trial) triple —
// all nondeterminism is injected through the RNG seeded from exactly that
// triple (see test_context.h). The campaign nevertheless re-executes
// bitwise-identical runs all the time:
//
//   * bisection re-probes: a failing pool half of size one is re-run by
//     TestRunner::Verify with the very same single-parameter plan,
//   * homogeneous controls: instances of the same parameter share distinct
//     values, so Verify issues the same homogeneous control plan repeatedly,
//   * first_trials repeats and hypothesis-testing rounds of *deterministic*
//     tests: different trial numbers, provably identical results (the body
//     never consumed the per-trial RNG),
//   * pre-run baselines: every re-dispatch or repeated campaign pre-runs the
//     test with the same empty plan.
//
// The cache keys results by a canonical fingerprint of the triple and serves
// repeats without executing. Executions that provably never observed the
// trial number are additionally stored under a trial-wildcard key, so later
// trials of the same (test, plan) hit as well.
//
// Keys are 128-bit FNV-1a digests (common/strings.h Digest128) of the legacy
// string keys — test id, plan fingerprint, and trial joined with '\x1f'. The
// digest is derived by folding the key *components* (the digest of a
// concatenation is the fold of its pieces), so the hot path never
// materializes a key string; the string form survives only in the
// checksummed persistence format. 128 bits makes an accidental collision
// negligible, and the insert path still compares the stored legacy string
// against the incoming one, so even the negligible case is detected
// (Stats::key_collisions), evicted, and re-executed — never served wrong.
// LoadFromFile gates every persisted key on the hashed and legacy derivations
// agreeing, proving the two lookups stay interchangeable.
//
// Serving from cache never changes campaign results: the stored TestResult is
// exactly what a real run would return. Stage counters (executed_runs and
// friends) are incremented by the call sites *before* RunUnitTest, so Table-5
// accounting is identical with the cache on or off; only wall-clock (and the
// run-duration profile) shrinks.
//
// Growth is bounded: Limits sets an entry and/or byte budget enforced by LRU
// eviction. Evicting can only turn future hits into misses (re-executions),
// never change a served result, so findings are budget-invariant.
//
// Ownership: one cache per thread of execution, installed via
// SetGlobalRunCache (RAII: ScopedRunCache; the installed pointer is
// thread-local). Campaign owns a cache when CampaignOptions.enable_run_cache
// is set; the thread-pool scheduler (and each fabric agent) installs one
// *shared* cache on every worker thread, so a result computed by one worker
// is served to all. All public methods are internally
// synchronized (a single mutex — the cache is consulted once per unit-test
// execution, so contention is negligible next to a run). The
// pointer-returning Lookup is only safe when the caller serializes all
// access (single-threaded harnesses and tests); concurrent callers use
// LookupShared, whose returned shared_ptr stays valid past any other
// thread's insert-triggered eviction without copying the result.

#ifndef SRC_TESTKIT_RUN_CACHE_H_
#define SRC_TESTKIT_RUN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/strings.h"
#include "src/testkit/test_execution.h"

namespace zebra {

class RunCache {
 public:
  struct Limits {
    int64_t max_entries = 0;  // 0 = unbounded
    int64_t max_bytes = 0;    // 0 = unbounded (approximate resident bytes)
  };

  struct Stats {
    int64_t hits = 0;    // exact (test, plan, trial) or trial-wildcard serves
    int64_t misses = 0;
    int64_t entries = 0;
    int64_t bytes = 0;   // approximate resident bytes across all entries
    int64_t evictions = 0;  // LRU evictions under Limits

    // Two distinct legacy keys digesting to the same 128-bit key (insert- or
    // load-time cross-check). The colliding entry is dropped — a future miss
    // and re-execution, never a wrong serve. Expected to stay 0 forever; the
    // counter exists so "forever" is observable.
    int64_t key_collisions = 0;

    // Corrupt/truncated cache files rejected by LoadFromFile. Deliberately
    // NOT cleared by ResetStats: load failures are a per-process health
    // signal (surfaced as CampaignReport::cache_load_failures), not a
    // per-campaign counter.
    int64_t load_failures = 0;

    double HitRate() const {
      return hits + misses == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
  };

  RunCache() = default;
  explicit RunCache(Limits limits) : limits_(limits) {}

  // Returns the cached result for the triple, or nullptr. A trial-wildcard
  // entry (stored by a trial-insensitive execution) matches any trial. Counts
  // a hit or a miss. Single-threaded callers only (see file comment).
  const TestResult* Lookup(const std::string& test_id, const std::string& plan_text,
                           uint64_t trial);

  // Copy-out variant, safe under concurrent mutation: the result is copied
  // into `out` while the lock is held, so no pointer into the LRU escapes.
  // Returns true on a hit.
  bool Lookup(const std::string& test_id, const std::string& plan_text,
              uint64_t trial, TestResult* out);

  // Shared-ownership variant, safe under concurrent mutation *without* the
  // deep copy: the returned pointer shares ownership of the immutable cache
  // payload, so it stays valid even if another thread's insert evicts the
  // entry right after the lock is released. This is what RunUnitTest uses.
  std::shared_ptr<const TestResult> LookupShared(const std::string& test_id,
                                                 const std::string& plan_text,
                                                 uint64_t trial);

  // Stores the result of a real execution. `trial_insensitive` executions are
  // stored under the wildcard key as well, so every future trial hits. The
  // shared-pointer overload stores the caller's result without copying it
  // (both key aliases share one payload); the by-value overload is a
  // convenience that wraps its argument.
  void Insert(const std::string& test_id, const std::string& plan_text,
              uint64_t trial, bool trial_insensitive,
              std::shared_ptr<const TestResult> result);
  void Insert(const std::string& test_id, const std::string& plan_text,
              uint64_t trial, bool trial_insensitive, const TestResult& result);

  // Test-only: inserts `result` under a forced 128-bit key with the given
  // legacy string, bypassing key derivation. Returns false when the insert
  // was rejected (same digest already present with a different legacy key —
  // the collision path under test).
  bool InsertAliasForTesting(Digest128 key, std::string legacy_key,
                             const TestResult& result);

  // By value: a reference into the struct would race with concurrent
  // updates. The copy is a consistent snapshot taken under the lock.
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.hits = stats_.misses = 0;
  }

  Limits limits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return limits_;
  }
  void set_limits(Limits limits) {
    std::lock_guard<std::mutex> lock(mutex_);
    limits_ = limits;
    EnforceLimits();
  }

  // Persistence, for warm-starting repeated campaign invocations. The file
  // round-trips every entry (including the full SessionReport — warm-started
  // pre-runs feed test generation) in recency order under its legacy string
  // key, and ends with a whole-file checksum line so a torn write (crash
  // mid-save, disk full) cannot masquerade as a valid cache. Load replaces
  // the current contents and re-derives each 128-bit key twice — from the
  // whole string and from its parsed components (the hot path's derivation) —
  // rejecting the file if they ever disagree: the gate that proves hashed
  // and legacy lookups stay interchangeable. Stats are not persisted. Save
  // returns false on I/O failure. Load says why it did not warm-start: a
  // missing file is the normal cold start; a file from another format
  // version (an older zebra-run-cache-vN) and a corrupt file both leave the
  // cache empty — never half-loaded, never throwing — log a warning, and
  // increment Stats::load_failures. A warm start is an optimization, so
  // either degrades to a cold start, not a crash.
  enum class LoadStatus { kLoaded, kMissing, kUnsupportedVersion, kCorrupt };
  struct LoadResult {
    LoadStatus status = LoadStatus::kMissing;
    explicit operator bool() const { return status == LoadStatus::kLoaded; }
    // "loaded", "missing", "unsupported version" or "corrupt".
    const char* reason() const;
  };
  bool SaveToFile(const std::string& path) const;
  LoadResult LoadFromFile(const std::string& path);

  // Legacy string keys: the persistence format, and the ground truth the
  // digests are defined over. Public so tests can prove the hashed/legacy
  // equivalence directly; campaign code never builds these on the hot path.
  static std::string ExactKey(const std::string& test_id, const std::string& plan_text,
                              uint64_t trial);
  static std::string WildcardKey(const std::string& test_id,
                                 const std::string& plan_text);

  // Component-folded digests of exactly the strings above, no allocation.
  static Digest128 ExactRunKey(const std::string& test_id,
                               const std::string& plan_text, uint64_t trial);
  static Digest128 WildcardRunKey(const std::string& test_id,
                                  const std::string& plan_text);

  // Re-derives a persisted key's digest through the component folds above by
  // parsing the legacy shape. Returns false for a shape SaveToFile never
  // emits. LoadFromFile's hashed/legacy agreement gate.
  static bool DeriveComponentDigest(const std::string& key, Digest128* out);

 private:
  // One stored execution. Exact and wildcard aliases share one immutable
  // payload: inserting under both keys costs one allocation, and
  // LookupShared serves by refcount bump instead of deep copy. That
  // immutability is what makes sharing across worker threads safe.
  struct Node {
    Digest128 key;
    std::string legacy_key;  // persistence form; also the collision check
    std::shared_ptr<const TestResult> result;
  };
  using LruList = std::list<Node>;

  struct KeyHash {
    size_t operator()(const Digest128& key) const {
      return static_cast<size_t>(key.lo);
    }
  };

  static int64_t EntryBytes(const std::string& legacy_key, const TestResult& result);

  // Returns the node for `key` and marks it most-recently-used.
  Node* Touch(Digest128 key);

  // `legacy_key` is built lazily by `make_legacy` only when the key is
  // actually inserted (the common duplicate-alias case pays nothing).
  template <typename MakeLegacy>
  bool InsertEntry(Digest128 key, MakeLegacy&& make_legacy,
                   const std::shared_ptr<const TestResult>& result);
  bool InsertEntryWithLegacy(Digest128 key, std::string legacy_key,
                             const std::shared_ptr<const TestResult>& result);
  void EnforceLimits();

  // The lookup sequence (wildcard, then exact). Caller holds mutex_; the
  // returned node is valid only until release (share the payload before
  // unlocking).
  const Node* LookupLocked(const std::string& test_id,
                           const std::string& plan_text, uint64_t trial);

  LruList lru_;  // front = most recently used
  std::unordered_map<Digest128, LruList::iterator, KeyHash> index_;
  Limits limits_;
  Stats stats_;
  // Guards every member above. Held for whole operations (lookup + LRU splice,
  // insert + eviction), so invariants like stats_.bytes == sum(EntryBytes)
  // hold at every release point.
  mutable std::mutex mutex_;
};

// The text form a persisted cache entry stores its SessionReport in: every
// field, in a canonical order, so two reports serialize identically exactly
// when they are equal.
std::string SerializeSessionReport(const SessionReport& report);

// Ambient cache consulted by RunUnitTest; nullptr disables memoization (the
// default). The installed pointer is thread-local, so each worker thread
// chooses its own cache — which may be the same shared RunCache object on
// every worker (the thread-pool scheduler does exactly that). The cache
// outlives the installation window; the installer retains ownership.
void SetGlobalRunCache(RunCache* cache);
RunCache* GlobalRunCache();

// RAII installation, exception-safe around a campaign run.
class ScopedRunCache {
 public:
  explicit ScopedRunCache(RunCache* cache) : previous_(GlobalRunCache()) {
    SetGlobalRunCache(cache);
  }
  ~ScopedRunCache() { SetGlobalRunCache(previous_); }
  ScopedRunCache(const ScopedRunCache&) = delete;
  ScopedRunCache& operator=(const ScopedRunCache&) = delete;

 private:
  RunCache* previous_;
};

}  // namespace zebra

#endif  // SRC_TESTKIT_RUN_CACHE_H_
