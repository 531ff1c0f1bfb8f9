// Watchdog deadline policy shared by the campaign runners (see
// docs/ROBUSTNESS.md).
//
// A worker that hangs — a deadlocked unit test, a stuck syscall, a livelocked
// mini-cluster — produces no EOF, so the crash-recovery path never fires and
// a blocking read would stall the whole campaign forever. Instead the parent
// gives every dispatch a deadline derived from what completions it has
// actually observed:
//
//   deadline = floor + multiplier * p95(observed completion seconds)
//
// The p95 term adapts to the workload (units legitimately vary by orders of
// magnitude across apps); the floor covers the cold start before any
// completion has been observed and absorbs scheduling noise. A worker past
// its deadline is SIGKILLed and its unit re-queued — at most one deadline +
// backoff of delay per hang, never an indefinite stall.

#ifndef SRC_CORE_WATCHDOG_H_
#define SRC_CORE_WATCHDOG_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace zebra {

// 1-based rank of the 95th percentile among n samples: ceil(0.95 * n).
inline size_t Percentile95Rank(size_t n) { return (n * 95 + 99) / 100; }

// 95th percentile of the observed completion times, or 0.0 with no samples.
// Kept separate from the deadline formula so the no-samples case degrades
// through the additive term — the deadline below can never drop under the
// configured floor, no matter what the sample set looks like. (Taken by
// value: selection is destructive.)
inline double Percentile95(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  size_t rank = Percentile95Rank(samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

// The same percentile kept up to date as samples arrive, for a caller that
// asks for it after every completion: O(log n) per Add, O(1) per Value, and
// Value() equals Percentile95(every sample added so far) bit for bit. Two
// heaps split the samples at the rank: `low_` (a max-heap) holds the
// smallest ceil(0.95 * n) of them, so its top is the percentile, and
// `high_` (a min-heap) the rest.
class StreamingPercentile95 {
 public:
  void Add(double sample) {
    if (low_.empty() || sample <= low_.top()) {
      low_.push(sample);
    } else {
      high_.push(sample);
    }
    const size_t rank = Percentile95Rank(low_.size() + high_.size());
    while (low_.size() > rank) {
      high_.push(low_.top());
      low_.pop();
    }
    while (low_.size() < rank) {
      low_.push(high_.top());
      high_.pop();
    }
  }

  double Value() const { return low_.empty() ? 0.0 : low_.top(); }

 private:
  std::priority_queue<double> low_;
  std::priority_queue<double, std::vector<double>, std::greater<double>> high_;
};

// Returns the deadline in seconds for the next dispatch, or 0 when the
// watchdog is disabled (floor_seconds <= 0). With zero completed samples
// (cold start, or every dispatch so far crashed) the p95 term is 0 and the
// deadline is exactly the configured floor — never 0, which would instantly
// expire every lease. `p95_seconds` is the percentile above (0 with no
// samples); the vector form computes it.
inline double WatchdogDeadlineFromP95(double floor_seconds, double multiplier,
                                      double p95_seconds) {
  if (floor_seconds <= 0.0) {
    return 0.0;
  }
  if (multiplier <= 0.0) {
    return floor_seconds;
  }
  return floor_seconds + multiplier * p95_seconds;
}

inline double WatchdogDeadlineSeconds(double floor_seconds, double multiplier,
                                      std::vector<double> samples) {
  return WatchdogDeadlineFromP95(floor_seconds, multiplier,
                                 Percentile95(std::move(samples)));
}

}  // namespace zebra

#endif  // SRC_CORE_WATCHDOG_H_
