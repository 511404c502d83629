#include "harness.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace perfbench {

Quantile TailQuantile(std::vector<double> samples, double q,
                      size_t min_beyond) {
  Quantile out;
  out.requested = q;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Nearest rank, 1-based: the smallest k with k/n >= q.
  auto rank_of = [n](double p) {
    size_t k = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    return std::clamp<size_t>(k, 1, n);
  };
  size_t k = rank_of(q);
  if (q > 0.5 && n - k < min_beyond) {
    size_t floor_k = rank_of(0.5);
    k = n > min_beyond ? std::max(floor_k, n - min_beyond) : floor_k;
    k = std::min(k, rank_of(q));
  }
  out.used = static_cast<double>(k) / static_cast<double>(n);
  out.value = samples[k - 1];
  out.beyond = n - k;
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double> GeometricLadder(double lo, double hi, double step) {
  std::vector<double> rungs;
  if (lo <= 0.0 || step <= 0.0) return rungs;
  for (double r = lo;; r *= 1.0 + step) {
    rungs.push_back(r);
    if (r >= hi) break;
  }
  return rungs;
}

Staircase::Staircase(std::vector<double> rungs)
    : rungs_(std::move(rungs)), fail_at_(static_cast<int>(rungs_.size())) {
  next_ = fail_at_ / 2;
}

double Staircase::NextRate() const {
  return rungs_.empty() ? 0.0 : rungs_[static_cast<size_t>(next_)];
}

void Staircase::Record(bool passed) {
  if (rungs_.empty()) return;
  const int n = static_cast<int>(rungs_.size());
  const int idx = next_;
  probed_.push_back(idx);
  passed_.push_back(passed);
  if (passed) highest_ = std::max(highest_, idx);
  if (!settled_) {
    ++search_probes_;
    (passed ? best_ : fail_at_) = idx;
    if (best_ + 1 >= fail_at_) {
      settled_ = true;
      next_ = std::clamp(best_ + 1, 0, n - 1);
    } else {
      next_ = best_ + 1 + (fail_at_ - best_ - 1) / 2;
    }
    return;
  }
  const int implied = passed ? idx : std::max(idx - 1, 0);
  log_sum_ += std::log(rungs_[static_cast<size_t>(implied)]);
  ++unit_probes_;
  next_ = passed ? std::min(idx + 1, n - 1) : std::max(idx - 1, 0);
}

double Staircase::Estimate() const {
  if (highest_ < 0) return 0.0;
  if (unit_probes_ > 0) return std::exp(log_sum_ / unit_probes_);
  return rungs_[static_cast<size_t>(highest_)];
}

std::vector<double> UniformSchedule(double start_us, double rate_per_s,
                                    size_t n) {
  std::vector<double> due(n);
  double gap_us = 1e6 / rate_per_s;
  for (size_t i = 0; i < n; ++i) {
    due[i] = start_us + gap_us * static_cast<double>(i);
  }
  return due;
}

double LatencyMs(const OpenLoopSample& s) {
  return (s.end_us - s.due_us) / 1000.0;
}

double LatenessMs(const OpenLoopSample& s) {
  return std::max(0.0, s.start_us - s.due_us) / 1000.0;
}

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples,
                                  double limit_ms) {
  OpenLoopSummary out;
  out.sent = samples.size();
  std::vector<double> lat, late;
  lat.reserve(samples.size());
  late.reserve(samples.size());
  for (const OpenLoopSample& s : samples) {
    if (s.ok) {
      ++out.succeeded;
      lat.push_back(LatencyMs(s));
    } else {
      ++out.failed;
      lat.push_back(std::numeric_limits<double>::infinity());
    }
    late.push_back(LatenessMs(s));
    out.late_max_ms = std::max(out.late_max_ms, late.back());
  }
  double total = 0.0;
  for (double x : lat) total += std::isinf(x) ? 0.0 : x;
  out.mean_ms = out.succeeded ? total / static_cast<double>(out.succeeded) : 0.0;
  out.p50_ms = TailQuantile(lat, 0.50);
  out.p90_ms = TailQuantile(lat, 0.90);
  out.p99_ms = TailQuantile(lat, 0.99);
  out.late_p99_ms = TailQuantile(late, 0.99);

  std::vector<const OpenLoopSample*> by_due;
  for (const OpenLoopSample& s : samples) by_due.push_back(&s);
  std::stable_sort(by_due.begin(), by_due.end(),
                   [](const OpenLoopSample* a, const OpenLoopSample* b) {
                     return a->due_us < b->due_us;
                   });
  size_t quarter = by_due.size() / 4;
  if (quarter > 0) {
    std::vector<double> first, last;
    for (size_t i = 0; i < quarter; ++i) {
      first.push_back(LatencyMs(*by_due[i]));
      last.push_back(LatencyMs(*by_due[by_due.size() - quarter + i]));
    }
    out.backlog_growth_ms = Median(last) - Median(first);
  }
  out.backlog_growing = out.backlog_growth_ms > 0.5 * limit_ms;
  out.meets_limit = out.failed == 0 && !out.backlog_growing &&
                    out.p99_ms.n > 0 && out.p99_ms.value <= limit_ms;
  return out;
}

uint64_t SpanLog::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::Add(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SelfTimeUsByName(
    const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals clipped to this span.
      std::vector<std::pair<double, double>> iv;
      for (const Span* c : it->second) {
        double a = std::max(c->start_us, s.start_us);
        double b = std::min(c->end_us, s.end_us);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      double cur_a = 0.0, cur_b = -1.0;
      for (const auto& [a, b] : iv) {
        if (cur_b < cur_a || a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    out[s.name] += (s.end_us - s.start_us) - covered;
  }
  return out;
}

}  // namespace perfbench
