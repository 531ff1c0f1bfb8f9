#include "perfbench/span_recorder.h"

#include <pthread.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <set>
#include <new>

#include "src/common/error.h"

namespace zebra::perfbench {

namespace {

// Set in every process forked after the ledger exists (the fabric's agents),
// so the execution counter can tell coordinator-side runs apart without a
// getpid() per execution.
bool g_in_forked_child = false;

thread_local uint32_t t_current_span = 0;

constexpr size_t kAlign = 64;

size_t RoundUp(size_t bytes) { return (bytes + kAlign - 1) / kAlign * kAlign; }

int32_t ThreadId() { return static_cast<int32_t>(::syscall(SYS_gettid)); }

}  // namespace

struct Ledger::Header {
  std::atomic<uint64_t> spans_reserved{0};
  std::atomic<uint64_t> spans_dropped{0};
  std::atomic<uint32_t> root_span{0};
  std::atomic<int64_t> coordinator_execs{0};
  std::atomic<uint64_t> alloc[2] = {0, 0};  // count, bytes
};

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Ledger::Ledger(size_t test_slots, size_t span_capacity)
    : test_slots_(test_slots), span_capacity_(span_capacity) {
  const size_t counts_offset = RoundUp(sizeof(Header));
  const size_t spans_offset =
      counts_offset + RoundUp(test_slots * sizeof(std::atomic<int64_t>));
  mapped_bytes_ = spans_offset + span_capacity * sizeof(Span);
  void* base = ::mmap(nullptr, mapped_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    throw Error("perfbench: cannot map the shared execution ledger");
  }
  auto* bytes = static_cast<unsigned char*>(base);
  header_ = new (bytes) Header();
  counts_ = reinterpret_cast<std::atomic<int64_t>*>(bytes + counts_offset);
  for (size_t i = 0; i < test_slots; ++i) {
    new (&counts_[i]) std::atomic<int64_t>(0);
  }
  spans_ = reinterpret_cast<Span*>(bytes + spans_offset);
  static const int registered = ::pthread_atfork(
      nullptr, nullptr, [] { g_in_forked_child = true; });
  (void)registered;
}

Ledger::~Ledger() {
  if (header_ != nullptr) {
    ::munmap(header_, mapped_bytes_);
  }
}

void Ledger::ResetCounts() {
  for (size_t i = 0; i < test_slots_; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  header_->coordinator_execs.store(0, std::memory_order_relaxed);
}

void Ledger::CountExec(uint32_t test) {
  counts_[test].fetch_add(1, std::memory_order_relaxed);
  if (!g_in_forked_child) {
    header_->coordinator_execs.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<int64_t> Ledger::ExecCounts(size_t n) const {
  std::vector<int64_t> out(std::min(n, test_slots_));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

int64_t Ledger::CoordinatorExecs() const {
  return header_->coordinator_execs.load(std::memory_order_relaxed);
}

uint32_t Ledger::Reserve() {
  uint64_t slot = header_->spans_reserved.fetch_add(1, std::memory_order_relaxed);
  if (slot >= span_capacity_) {
    header_->spans_dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return static_cast<uint32_t>(slot + 1);
}

void Ledger::Close(const Span& span) {
  if (span.id != 0) {
    spans_[span.id - 1] = span;
  }
}

std::vector<Span> Ledger::Spans(uint32_t first_id) const {
  std::vector<Span> out;
  const uint32_t end = next_id();
  for (uint32_t id = std::max<uint32_t>(first_id, 1); id < end; ++id) {
    if (spans_[id - 1].end_ns != 0) {
      out.push_back(spans_[id - 1]);
    }
  }
  return out;
}

uint32_t Ledger::next_id() const {
  uint64_t reserved = header_->spans_reserved.load(std::memory_order_relaxed);
  return static_cast<uint32_t>(std::min<uint64_t>(reserved, span_capacity_) + 1);
}

void Ledger::ResetSpans() {
  const uint32_t end = next_id();
  for (uint32_t id = 1; id < end; ++id) {
    spans_[id - 1] = Span{};
  }
  header_->spans_reserved.store(0, std::memory_order_relaxed);
  header_->spans_dropped.store(0, std::memory_order_relaxed);
  header_->root_span.store(0, std::memory_order_relaxed);
}

uint64_t Ledger::dropped() const {
  return header_->spans_dropped.load(std::memory_order_relaxed);
}

void Ledger::set_root_span(uint32_t id) {
  header_->root_span.store(id, std::memory_order_relaxed);
}

uint32_t Ledger::root_span() const {
  return header_->root_span.load(std::memory_order_relaxed);
}

std::atomic<uint64_t>* Ledger::alloc_counters() { return header_->alloc; }

ScopedSpan::ScopedSpan(Ledger& ledger, SpanKind kind, uint32_t test)
    : ledger_(ledger) {
  if (!ledger_.tracing()) {
    return;
  }
  span_.kind = kind;
  span_.test = test;
  span_.id = ledger_.Reserve();
  span_.parent = t_current_span;
  span_.pid = static_cast<int32_t>(::getpid());
  span_.tid = ThreadId();
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = MonotonicNs();
}

ScopedSpan::~ScopedSpan() {
  if (span_.start_ns == 0) {
    return;
  }
  span_.end_ns = MonotonicNs();
  ledger_.Close(span_);
  t_current_span = saved_parent_;
}

ExecScope::ExecScope(Ledger& ledger, uint32_t test)
    : ledger_(ledger), test_(test), uncaught_at_entry_(std::uncaught_exceptions()) {
  if (ledger_.tracing()) {
    span_id_ = ledger_.Reserve();
    start_ns_ = MonotonicNs();
  }
}

ExecScope::~ExecScope() {
  ledger_.CountExec(test_);
  if (start_ns_ == 0) {
    return;
  }
  Span span;
  span.end_ns = MonotonicNs();
  span.start_ns = start_ns_;
  span.id = span_id_;
  span.parent = t_current_span != 0 ? t_current_span : ledger_.root_span();
  span.pid = static_cast<int32_t>(::getpid());
  span.tid = ThreadId();
  span.test = test_;
  span.kind = SpanKind::kExec;
  span.failed = std::uncaught_exceptions() > uncaught_at_entry_;
  ledger_.Close(span);
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<TracePhase>& phases,
                      const std::vector<std::string>& names) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  int64_t origin = 0;
  for (const TracePhase& phase : phases) {
    for (const Span& span : phase.spans) {
      if (origin == 0 || span.start_ns < origin) {
        origin = span.start_ns;
      }
    }
  }
  static const char* const kKindNames[] = {"run", "unit", "exec"};
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::set<int32_t> processes;
  bool first = true;
  for (const TracePhase& phase : phases) {
    for (const Span& span : phase.spans) {
      processes.insert(span.pid);
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
                   "\"args\":{\"id\":%u,\"parent\":%u",
                   first ? "" : ",\n", kKindNames[static_cast<int>(span.kind)],
                   phase.label.c_str(),
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   span.pid, span.tid, span.id, span.parent);
      if (span.kind != SpanKind::kRun && span.test < names.size()) {
        // Test ids are [A-Za-z0-9._-] by construction; no escaping needed.
        std::fprintf(out, ",\"test\":\"%s\"", names[span.test].c_str());
      }
      if (span.kind == SpanKind::kExec) {
        std::fprintf(out, ",\"failed\":%s", span.failed ? "true" : "false");
      }
      std::fprintf(out, "}}");
      first = false;
    }
  }
  // Name each process track: the writer is the coordinator, every other
  // process a forked fabric agent.
  const int32_t self = static_cast<int32_t>(::getpid());
  for (int32_t pid : processes) {
    std::fprintf(out,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"args\":{\"name\":\"%s %d\"}}",
                 first ? "" : ",\n", pid, pid == self ? "coordinator" : "agent",
                 pid);
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace zebra::perfbench
