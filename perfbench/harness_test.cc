// Tests of the benchmark's own machinery. Build and run:
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build -j4
//   .bench_build/harness_test
#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TailQuantile, LargeSampleUsesRequestedPercentile) {
  Quantile q = TailQuantile(Iota(2000), 0.99);
  EXPECT_DOUBLE_EQ(q.used, 0.99);
  EXPECT_DOUBLE_EQ(q.value, 1980.0);
  EXPECT_EQ(q.n, 2000u);
  EXPECT_EQ(q.beyond, 20u);
}

TEST(TailQuantile, ExactlyTenBeyondIsEnough) {
  Quantile q = TailQuantile(Iota(1000), 0.99);
  EXPECT_DOUBLE_EQ(q.used, 0.99);
  EXPECT_DOUBLE_EQ(q.value, 990.0);
  EXPECT_EQ(q.beyond, 10u);
}

TEST(TailQuantile, BacksOffToHighestPercentileWithTenBeyond) {
  // 300 samples: p99 would leave 3 beyond; the highest supported rank
  // is 290 (10 beyond), i.e. p96.67.
  Quantile q = TailQuantile(Iota(300), 0.99);
  EXPECT_EQ(q.beyond, 10u);
  EXPECT_DOUBLE_EQ(q.value, 290.0);
  EXPECT_NEAR(q.used, 290.0 / 300.0, 1e-12);
  EXPECT_DOUBLE_EQ(q.requested, 0.99);
}

TEST(TailQuantile, OrderDoesNotMatter) {
  std::vector<double> v = Iota(500);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(TailQuantile(v, 0.99).value, 490.0);
}

TEST(TailQuantile, MedianIsNeverBackedOff) {
  Quantile q = TailQuantile(Iota(12), 0.5);
  EXPECT_DOUBLE_EQ(q.used, 0.5);
  EXPECT_DOUBLE_EQ(q.value, 6.0);
  // Too few samples for any tail: falls back to the median rank.
  Quantile t = TailQuantile(Iota(12), 0.99);
  EXPECT_DOUBLE_EQ(t.value, 6.0);
  EXPECT_DOUBLE_EQ(t.used, 0.5);
}

TEST(TailQuantile, EmptyAndInfinite) {
  EXPECT_EQ(TailQuantile({}, 0.99).n, 0u);
  std::vector<double> v = Iota(1000);
  v.back() = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(TailQuantile(v, 0.99).value, 990.0);
  for (int i = 0; i < 11; ++i) v[i] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(TailQuantile(v, 0.99).value));
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Ladder, RungsAreAtMostStepApartAndCoverRange) {
  std::vector<double> r = GeometricLadder(100, 1000, 0.05);
  ASSERT_GE(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.front(), 100.0);
  EXPECT_GE(r.back(), 1000.0);
  EXPECT_LT(r[r.size() - 2], 1000.0);
  for (size_t i = 1; i < r.size(); ++i) {
    EXPECT_LE(r[i] / r[i - 1], 1.05 + 1e-12);
  }
}

/// Runs `probes` probes of `pass` through a staircase over `rungs`.
Staircase Climb(const std::vector<double>& rungs, int probes,
                const std::function<bool(double)>& pass) {
  Staircase st(rungs);
  for (int k = 0; k < probes; ++k) st.Record(pass(st.NextRate()));
  return st;
}

TEST(Ladder, StaircaseFindsHighestPassingRungForEveryCapacity) {
  std::vector<double> rungs = GeometricLadder(10, 200, 0.1);
  const int n = static_cast<int>(rungs.size());
  for (int cap = -1; cap < n; ++cap) {
    Staircase st = Climb(rungs, 20, [&](double rate) {
      return cap >= 0 && rate <= rungs[static_cast<size_t>(cap)];
    });
    ASSERT_EQ(st.probed().size(), 20u);
    if (cap < 0) {
      EXPECT_EQ(st.Estimate(), 0.0);
    } else {
      EXPECT_NEAR(st.Estimate(), rungs[static_cast<size_t>(cap)], 1e-9) << cap;
    }
    // Binary search: ceil(log2(n + 1)) probes at most, then one-rung
    // steps that never leave the capacity rung and the one above it.
    EXPECT_LE(st.search_probes(), static_cast<int>(std::ceil(std::log2(n + 1.0))));
    for (size_t k = static_cast<size_t>(st.search_probes()); k < st.probed().size(); ++k) {
      EXPECT_GE(st.probed()[k], std::max(cap, 0));
      EXPECT_LE(st.probed()[k], std::min(cap + 1, n - 1));
      EXPECT_EQ(st.passed()[k], st.probed()[k] <= cap);
    }
  }
}

TEST(Ladder, OneSpuriousFailureMovesTheEstimateLessThanARung) {
  std::vector<double> rungs = GeometricLadder(100, 1000, 0.05);
  const double cap = rungs[30];
  int calls = 0;
  Staircase st = Climb(rungs, 24, [&](double rate) {
    ++calls;
    return calls != 12 && rate <= cap;  // probe 12 fails whatever its rate
  });
  EXPECT_LT(st.Estimate(), cap);  // the lower rung it stepped down to counts
  EXPECT_GE(st.Estimate(), rungs[29] - 1e-9);
}

TEST(Ladder, StaircaseFollowsACapacityThatDropsMidRun) {
  // Capacity rung 30 for the first 12 probes, rung 20 afterwards. The
  // run ends before the steps reach rung 20, so every late probe fails;
  // the estimate still moves down with them instead of keeping the
  // early passes alone.
  std::vector<double> rungs = GeometricLadder(100, 1000, 0.05);
  int calls = 0;
  Staircase st = Climb(rungs, 20, [&](double rate) {
    return rate <= rungs[++calls <= 12 ? 30 : 20];
  });
  EXPECT_LT(st.Estimate(), rungs[29]);
  EXPECT_GT(st.Estimate(), rungs[20]);
}

TEST(Ladder, TooFewProbesReportTheHighestPassingRung) {
  std::vector<double> rungs = GeometricLadder(10, 200, 0.1);
  Staircase st = Climb(rungs, 2, [](double rate) { return rate <= 50; });
  ASSERT_EQ(st.probed().size(), 2u);
  double expect = 0.0;
  for (size_t k = 0; k < st.probed().size(); ++k) {
    if (st.passed()[k]) {
      expect = std::max(expect, rungs[static_cast<size_t>(st.probed()[k])]);
    }
  }
  EXPECT_EQ(st.Estimate(), expect);
  EXPECT_EQ(Climb({}, 5, [](double) { return true; }).Estimate(), 0.0);
}

TEST(OpenLoop, UniformScheduleSpacing) {
  std::vector<double> d = UniformSchedule(1000, 200, 5);
  ASSERT_EQ(d.size(), 5u);
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(d[i], 1000 + 5000.0 * i);
  }
}

TEST(OpenLoop, OnTimeRequestsAreNotLate) {
  OpenLoopSample s{1000, 1000, 3000, true};
  EXPECT_DOUBLE_EQ(LatencyMs(s), 2.0);
  EXPECT_DOUBLE_EQ(LatenessMs(s), 0.0);
  // Starting early (clock granularity) is not negative lateness.
  OpenLoopSample early{1000, 990, 3000, true};
  EXPECT_DOUBLE_EQ(LatenessMs(early), 0.0);
}

TEST(OpenLoop, StallDelaysLaterRequestsAndIsChargedFromDueTime) {
  // One sender, 1 ms service, due every 1 ms; request 0 stalls 10 ms,
  // so requests 1..9 start late by a shrinking amount.
  std::vector<OpenLoopSample> v;
  double free_at = 0.0;
  for (int i = 0; i < 40; ++i) {
    double due = 1000.0 * i;
    double start = std::max(due, free_at);
    double service = i == 0 ? 10000.0 : 500.0;
    v.push_back({due, start, start + service, true});
    free_at = start + service;
  }
  EXPECT_DOUBLE_EQ(LatenessMs(v[1]), 9.0);
  EXPECT_DOUBLE_EQ(LatencyMs(v[1]), 9.5);
  OpenLoopSummary s = SummarizeOpenLoop(v, 100.0);
  EXPECT_EQ(s.sent, 40u);
  EXPECT_EQ(s.succeeded, 40u);
  EXPECT_DOUBLE_EQ(s.late_max_ms, 9.0);
  EXPECT_FALSE(s.backlog_growing);
  EXPECT_TRUE(s.meets_limit);
}

TEST(OpenLoop, OverloadShowsAsGrowingBacklog) {
  // Service 2 ms per request, arrivals every 1 ms: the queue grows.
  std::vector<OpenLoopSample> v;
  double free_at = 0.0;
  for (int i = 0; i < 400; ++i) {
    double due = 1000.0 * i;
    double start = std::max(due, free_at);
    v.push_back({due, start, start + 2000.0, true});
    free_at = start + 2000.0;
  }
  // p99 (~397 ms) is inside the 500 ms limit; only the growth (~300 ms
  // between the first and last quarter) flags the overload.
  OpenLoopSummary s = SummarizeOpenLoop(v, 500.0);
  EXPECT_LE(s.p99_ms.value, 500.0);
  EXPECT_TRUE(s.backlog_growing);
  EXPECT_FALSE(s.meets_limit);
  EXPECT_GT(s.late_p99_ms.value, 300.0);
}

TEST(OpenLoop, FailuresMissTheLimitAndAreCounted) {
  std::vector<OpenLoopSample> v;
  for (int i = 0; i < 100; ++i) v.push_back({1000.0 * i, 1000.0 * i, 1000.0 * i + 100, i != 7});
  OpenLoopSummary s = SummarizeOpenLoop(v, 50.0);
  EXPECT_EQ(s.sent, 100u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.succeeded + s.failed, s.sent);
  EXPECT_FALSE(s.meets_limit);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  std::vector<Span> spans = {
      {1, 0, 7, "client", 0, 100},
      {2, 1, 7, "server", 10, 60},
      {3, 1, 7, "codec", 50, 70},    // overlaps server: union is 10..70
      {4, 2, 7, "decode", 20, 40},
      {5, 1, 7, "stray", 90, 130},   // clipped to the parent's end
  };
  std::map<std::string, double> self = SelfTimeUsByName(spans);
  EXPECT_DOUBLE_EQ(self["client"], 100 - 60 - 10);
  EXPECT_DOUBLE_EQ(self["server"], 50 - 20);
  EXPECT_DOUBLE_EQ(self["decode"], 20);
  EXPECT_DOUBLE_EQ(self["codec"], 20);
}

TEST(Spans, DisabledLogDropsSpans) {
  SpanLog off(false), on(true);
  off.Add({off.NextId(), 0, 1, "x", 0, 1});
  on.Add({on.NextId(), 0, 1, "x", 0, 1});
  EXPECT_TRUE(off.Snapshot().empty());
  EXPECT_EQ(on.Snapshot().size(), 1u);
}

}  // namespace
}  // namespace perfbench
