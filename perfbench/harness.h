#ifndef LCREC_PERFBENCH_HARNESS_H_
#define LCREC_PERFBENCH_HARNESS_H_

// Measurement machinery of the LC-Rec benchmark, kept free of library
// dependencies so harness_test covers it in isolation: tail quantiles
// with a sample-count floor, the rate-ladder staircase, open-loop schedule
// and lateness accounting, and an in-memory span log with self times.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile as reported: the one asked for, the one actually used
/// (lower when the sample is too small to support the request), its
/// value, and the sample count behind it.
struct Quantile {
  double requested = 0.0;
  double used = 0.0;
  double value = 0.0;
  size_t n = 0;
  size_t beyond = 0;  // samples strictly above the used rank
};

/// Nearest-rank percentile `q` of `samples` (any order). A tail
/// percentile backs off to the highest percentile that still has at
/// least `min_beyond` samples beyond its rank, so a p99 over 300 samples
/// is reported as the p96.7 it really is. Requests at or below the
/// median are never backed off. Empty input yields n == 0, value 0.
Quantile TailQuantile(std::vector<double> samples, double q,
                      size_t min_beyond = 10);

double Median(std::vector<double> samples);

/// Rates lo, lo*r, lo*r^2, ... up to and including the first rung >= hi,
/// with r = 1 + step (step <= 0.10 keeps adjacent rungs within 10%).
std::vector<double> GeometricLadder(double lo, double hi, double step);

/// An up-down staircase over a rate ladder: a binary search for the
/// highest passing rung, then one-rung steps (up after a pass, down after
/// a failure). Probes are asked for one at a time, so a benchmark can
/// spread them over its whole run and the estimate tracks the capacity
/// over that run instead of settling it at one moment. Assumes pass() is
/// monotone over the ladder (passes up to capacity, fails beyond).
class Staircase {
 public:
  explicit Staircase(std::vector<double> rungs);

  /// Rate of the next probe (0 when the ladder is empty).
  double NextRate() const;
  /// Outcome of the probe at NextRate().
  void Record(bool passed);

  /// Geometric mean, over the one-rung-step probes, of the capacity each
  /// implies: its own rung when it passed, the rung below when it failed.
  /// That is the capacity rung itself when pass() is deterministic, and it
  /// follows the capacity when the host's speed moves it during the run.
  /// Before any one-rung step, the highest passing rung; 0 when no probe
  /// passed.
  double Estimate() const;

  const std::vector<int>& probed() const { return probed_; }  // rung indices
  const std::vector<bool>& passed() const { return passed_; }
  int search_probes() const { return search_probes_; }

 private:
  std::vector<double> rungs_;
  // Binary search invariant: every rung <= best_ passed (or best_ == -1),
  // every rung >= fail_at_ failed (or fail_at_ == size).
  int best_ = -1;
  int fail_at_ = 0;
  bool settled_ = false;
  int next_ = 0;
  int highest_ = -1;
  int unit_probes_ = 0;
  double log_sum_ = 0.0;
  int search_probes_ = 0;
  std::vector<int> probed_;
  std::vector<bool> passed_;
};

/// One open-loop request: when it was due, when a sender actually
/// started it, when it finished, and whether it succeeded. Times in
/// microseconds on one monotonic clock.
struct OpenLoopSample {
  double due_us = 0.0;
  double start_us = 0.0;
  double end_us = 0.0;
  bool ok = false;
};

/// Due times of `n` requests at a constant `rate_per_s` from `start_us`.
std::vector<double> UniformSchedule(double start_us, double rate_per_s,
                                    size_t n);

/// Latency from the due time (what a user who arrived on schedule
/// waited), and how late the generator started the request.
double LatencyMs(const OpenLoopSample& s);
double LatenessMs(const OpenLoopSample& s);

struct OpenLoopSummary {
  size_t sent = 0;
  size_t succeeded = 0;
  size_t failed = 0;
  double mean_ms = 0.0;  // over succeeded requests
  Quantile p50_ms;
  Quantile p90_ms;
  Quantile p99_ms;
  Quantile late_p99_ms;
  double late_max_ms = 0.0;
  /// Median latency of the last quarter of requests (by due time) minus
  /// that of the first quarter: a queue that keeps growing shows here.
  double backlog_growth_ms = 0.0;
  bool backlog_growing = false;
  /// p99 within the limit, no failures, no growing backlog.
  bool meets_limit = false;
};

/// Summarizes one open-loop phase against a p99 latency limit. A failed
/// request counts as missing the limit (its latency is +inf), and the
/// backlog counts as growing when backlog_growth_ms exceeds half the
/// limit.
OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples,
                                  double limit_ms);

/// One traced interval. `parent` is the id of the span that caused it
/// (0 = root); spans of one request share `request`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Thread-safe in-memory span store; nothing is written until the
/// benchmark ends. Disabled logs drop every span at the cost of one
/// branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  uint64_t NextId();
  void Add(Span span);
  std::vector<Span> Snapshot() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;  // under mu_
  std::vector<Span> spans_;  // under mu_
};

/// Self time of every span (duration minus the union of its children's
/// intervals, clipped to the span), summed per span name.
std::map<std::string, double> SelfTimeUsByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // LCREC_PERFBENCH_HARNESS_H_
