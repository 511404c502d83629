// Headless probe for the ci.sh chaos gate: embeds a serve::Server with
// the degradation ladder on, drives deadline-bearing client load while
// the chaos injector fires decode delays, decode failures, and queue
// pressure, and asserts the resilience contract end to end:
//
//   availability — every admitted request resolves kOk (some tier of the
//                  ladder answers; nothing errors, nothing hangs);
//   latency      — no response exceeds the bound 2x deadline plus a
//                  small multiple of the injected delay (the server
//                  degrades instead of collapsing);
//   labeling     — every response's degrade_label is consistent with its
//                  DegradeLevel, and the injected faults actually forced
//                  degraded responses (the gate cannot pass vacuously);
//   accounting   — requests == completed (every call reached exactly one
//                  terminal state) and the per-tier counters are sane.
//
// Chaos comes from the LCREC_CHAOS env when set (the gate sets it, so
// the env grammar is exercised end to end); otherwise the probe arms an
// equivalent seeded spec programmatically. `--healthy` instead disarms
// chaos entirely and asserts the zero-degradation healthy-path
// invariant: all-full labels, no fallbacks, no decode faults.
//
// Exits 0 and prints "chaos_probe: PASS" only when every check holds.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/chaos.h"
#include "serve/server.h"
#include "serve/toy_system.h"

namespace {

using namespace lcrec;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "chaos_probe: FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

/// Per-response tallies, merged across client threads at the end.
struct Tally {
  int ok = 0;
  int not_ok = 0;
  int label_mismatch = 0;
  int over_bound = 0;
  int degraded = 0;
  double max_latency_ms = 0.0;
};

bool LabelConsistent(const serve::RecommendResponse& r) {
  using serve::DegradeLevel;
  const std::string label = r.degrade_label;
  switch (r.degrade) {
    case DegradeLevel::kFull:
      return label == "full";
    case DegradeLevel::kBudgetCapped:
      return label == "budget_capped" || label == "partial_decode";
    case DegradeLevel::kStaleCache:
      return label == "stale_cache";
    case DegradeLevel::kPopularity:
      return label == "popularity";
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool healthy = argc > 1 && std::strcmp(argv[1], "--healthy") == 0;

  constexpr double kDeadlineMs = 100.0;
  constexpr double kDelayMs = 25.0;
  // "Degrades instead of collapsing": deadline-expired requests resolve
  // from a fallback tier at admission, so even with injected delay
  // spikes stacking in the queue no response strays far past its budget.
  const double bound_ms = 2.0 * kDeadlineMs + 8.0 * kDelayMs;

  if (healthy) {
    serve::chaos::DisarmChaos();
  } else if (!serve::chaos::ChaosArmed()) {
    // No LCREC_CHAOS in the env: arm the gate's default mix ourselves,
    // seeded, so the probe is self-contained when run by hand.
    std::vector<serve::chaos::ChaosSpec> specs(3);
    specs[0].site = serve::chaos::ChaosSpec::Site::kDecode;
    specs[0].mode = serve::chaos::ChaosSpec::Mode::kDelay;
    specs[0].rate = 0.25;
    specs[0].param_ms = kDelayMs;
    specs[1].site = serve::chaos::ChaosSpec::Site::kDecode;
    specs[1].mode = serve::chaos::ChaosSpec::Mode::kFail;
    specs[1].rate = 0.25;
    specs[2].site = serve::chaos::ChaosSpec::Site::kQueue;
    specs[2].mode = serve::chaos::ChaosSpec::Mode::kFull;
    specs[2].rate = 0.10;
    serve::chaos::ArmChaos(specs, /*seed=*/42);
  }

  serve::ToySystem probe(7);
  serve::ServerOptions opts;
  opts.beam_size = 4;
  opts.degraded_beam = 2;
  opts.cache_ttl_ms = 50.0;  // lets repeated histories age into the
                             // stale tier mid-run
  opts.slow_request_ms = 0.0;
  serve::Server server(probe.model, probe.trie, probe.token_map,
                       probe.Builder(), opts);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 40;
  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Tally& tally = tallies[static_cast<size_t>(t)];
      for (int i = 0; i < kPerThread; ++i) {
        serve::RecommendRequest req;
        // A small cycling pool of histories: repeats land cache entries
        // that can later be served stale, while distinct ones decode.
        req.history = {t, (i % 16) + 1, 2 * t + 3};
        req.top_n = 5;
        req.deadline_ms = healthy ? 0.0 : kDeadlineMs;
        serve::RecommendResponse resp = server.Recommend(req);
        if (resp.status == serve::Status::kOk) {
          ++tally.ok;
        } else {
          ++tally.not_ok;
        }
        if (!LabelConsistent(resp)) ++tally.label_mismatch;
        if (resp.degrade != serve::DegradeLevel::kFull) ++tally.degraded;
        if (resp.latency_ms > tally.max_latency_ms) {
          tally.max_latency_ms = resp.latency_ms;
        }
        if (!healthy && resp.latency_ms > bound_ms) ++tally.over_bound;
      }
    });
  }
  for (std::thread& c : clients) c.join();

  Tally sum;
  for (const Tally& t : tallies) {
    sum.ok += t.ok;
    sum.not_ok += t.not_ok;
    sum.label_mismatch += t.label_mismatch;
    sum.over_bound += t.over_bound;
    sum.degraded += t.degraded;
    if (t.max_latency_ms > sum.max_latency_ms) {
      sum.max_latency_ms = t.max_latency_ms;
    }
  }
  const int total = kThreads * kPerThread;
  serve::ServerStats stats = server.stats();
  int64_t fires = serve::chaos::ChaosFires();
  server.Stop();

  std::printf(
      "chaos_probe: mode=%s requests=%d ok=%d degraded=%d "
      "(budget_capped=%lld stale_cache=%lld popularity=%lld) "
      "decode_failures=%lld retries=%lld breaker_short_circuits=%lld "
      "max_latency=%.1fms chaos_fires=%lld\n",
      healthy ? "healthy" : "chaos", total, sum.ok, sum.degraded,
      static_cast<long long>(stats.degraded_budget_capped),
      static_cast<long long>(stats.degraded_stale_cache),
      static_cast<long long>(stats.degraded_popularity),
      static_cast<long long>(stats.decode_failures),
      static_cast<long long>(stats.decode_retries),
      static_cast<long long>(stats.breaker_short_circuits),
      sum.max_latency_ms, static_cast<long long>(fires));

  // Availability: with the ladder on, every call ends kOk — the fallback
  // tiers absorb what the injected faults break.
  Expect(sum.ok == total && sum.not_ok == 0,
         "availability: " + std::to_string(sum.not_ok) + "/" +
             std::to_string(total) + " requests did not resolve kOk");
  Expect(sum.label_mismatch == 0,
         std::to_string(sum.label_mismatch) +
             " response(s) with degrade_label inconsistent with their "
             "DegradeLevel");
  // Accounting: every Recommend call reached exactly one terminal state,
  // and (all kOk, no shutdown) that state was completion.
  Expect(stats.requests == total,
         "stats.requests=" + std::to_string(stats.requests) + ", want " +
             std::to_string(total));
  Expect(stats.requests == stats.completed + stats.shed_queue_full +
                               stats.shed_deadline + stats.shed_shutdown,
         "terminal-state accounting does not sum: requests=" +
             std::to_string(stats.requests) +
             " completed=" + std::to_string(stats.completed));
  Expect(stats.shed_queue_full == 0 && stats.shed_deadline == 0,
         "degraded_fallbacks on must convert sheds, not count them");

  if (healthy) {
    // Healthy-path invariance: no chaos, no deadline -> the ladder never
    // engages and nothing below tier 0 is touched.
    Expect(sum.degraded == 0, "healthy run produced degraded responses");
    Expect(stats.degraded_budget_capped == 0 &&
               stats.degraded_stale_cache == 0 &&
               stats.degraded_popularity == 0,
           "healthy run bumped degrade counters");
    Expect(stats.decode_failures == 0 && stats.breaker_short_circuits == 0,
           "healthy run saw decode faults");
    Expect(fires == 0, "chaos fired in healthy mode");
  } else {
    Expect(fires > 0, "chaos armed but never fired");
    Expect(sum.degraded > 0,
           "injected faults forced no degraded responses (vacuous run)");
    Expect(stats.decode_failures > 0,
           "decode-failure injection never landed");
    Expect(sum.over_bound == 0,
           std::to_string(sum.over_bound) + " response(s) over the " +
               std::to_string(bound_ms) + "ms latency bound (max " +
               std::to_string(sum.max_latency_ms) + "ms)");
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "chaos_probe: FAIL (%d check(s))\n", g_failures);
    return 1;
  }
  std::printf("chaos_probe: PASS\n");
  return 0;
}
