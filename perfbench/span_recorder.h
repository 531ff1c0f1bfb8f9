// The benchmark's execution ledger: exact unit-test execution counts and,
// in the traced run only, timed spans — kept in one MAP_SHARED anonymous
// mapping made before any campaign runs, so the increments and spans of the
// fabric's forked agents land in the coordinator's view just like those of
// the thread pool's worker threads.
//
// The measured (untraced) run only counts: one relaxed atomic add per
// unit-test body, no clock reads. Spans are recorded only while tracing is
// switched on, and are read back and written out after the campaign.

#ifndef PERFBENCH_SPAN_RECORDER_H_
#define PERFBENCH_SPAN_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace zebra::perfbench {

int64_t MonotonicNs();

enum class SpanKind : uint8_t { kRun = 0, kUnit = 1, kExec = 2 };

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;    // 0 = reserved but never closed
  uint32_t id = 0;       // 1-based; 0 means "none"
  uint32_t parent = 0;
  int32_t pid = 0;
  int32_t tid = 0;
  uint32_t test = 0;     // corpus slot of a kUnit / kExec span
  SpanKind kind = SpanKind::kExec;
  bool failed = false;   // kExec: the body threw
};

class Ledger {
 public:
  // Room for `test_slots` per-test execution counters and `span_capacity`
  // spans. Throws Error when the mapping fails.
  Ledger(size_t test_slots, size_t span_capacity);
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  // ---- Counting (every run) -------------------------------------------------

  void ResetCounts();
  void CountExec(uint32_t test);
  // Per-test execution counts of the first `n` slots.
  std::vector<int64_t> ExecCounts(size_t n) const;
  // Executions that ran in the process that built the ledger (the fabric
  // coordinator's local re-runs; every execution under the thread pool).
  int64_t CoordinatorExecs() const;

  // ---- Tracing (traced run only) --------------------------------------------

  // Set only between campaigns: forked agents inherit the value at fork.
  void set_tracing(bool on) { tracing_ = on; }
  bool tracing() const { return tracing_; }

  // Reserves a span slot and returns its id (0 when the buffer is full; the
  // span is then dropped and counted in dropped()).
  uint32_t Reserve();
  // Writes a closed span into its reserved slot (no-op for id 0).
  void Close(const Span& span);
  // Spans reserved so far, in reservation order (unclosed ones skipped).
  std::vector<Span> Spans(uint32_t first_id = 1) const;
  uint32_t next_id() const;
  void ResetSpans();
  uint64_t dropped() const;

  // Body spans on threads with no enclosing span of their own (the engines'
  // worker threads) parent to this span.
  void set_root_span(uint32_t id);
  uint32_t root_span() const;

  // Allocation counters for the operator-new interposer: {count, bytes}.
  std::atomic<uint64_t>* alloc_counters();

 private:
  struct Header;

  Header* header_ = nullptr;
  std::atomic<int64_t>* counts_ = nullptr;
  Span* spans_ = nullptr;
  size_t test_slots_ = 0;
  size_t span_capacity_ = 0;
  size_t mapped_bytes_ = 0;
  bool tracing_ = false;
};

// RAII span around a Run() call or a unit; records nothing unless tracing.
class ScopedSpan {
 public:
  ScopedSpan(Ledger& ledger, SpanKind kind, uint32_t test = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return span_.id; }

 private:
  Ledger& ledger_;
  Span span_;
  uint32_t saved_parent_ = 0;
};

// RAII scope around one unit-test body. The count happens in the destructor
// so bodies that throw (failing runs) are counted too.
class ExecScope {
 public:
  ExecScope(Ledger& ledger, uint32_t test);
  ~ExecScope();
  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  Ledger& ledger_;
  uint32_t test_;
  int uncaught_at_entry_;
  uint32_t span_id_ = 0;
  int64_t start_ns_ = 0;
};

// One labelled group of spans in a trace file (e.g. the engine's campaign
// and the sequential unit driver's).
struct TracePhase {
  std::string label;
  std::vector<Span> spans;
};

// Chrome trace-event JSON ("ph":"X" complete events, one track per
// pid/tid): each span carries its id, its parent id and its test id.
// `names[slot]` is the test id of corpus slot `slot`. Returns false when
// the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<TracePhase>& phases,
                      const std::vector<std::string>& names);

}  // namespace zebra::perfbench

#endif  // PERFBENCH_SPAN_RECORDER_H_
