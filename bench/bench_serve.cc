// Load-test harness for lcrec::serve::Server (DESIGN.md §10): replays a
// Zipfian request trace against the online server in closed-loop
// (fixed concurrency, back-to-back) and open-loop (target QPS, latency
// measured from the scheduled arrival) modes, and against the
// sequential single-request decoder as the baseline the server must
// beat. Emits a BENCH_<git-sha>.json PerfRecord (serve/req_per_sec,
// serve/p95_ms, ...) compatible with scripts/perf_regress.sh.
//
// Usage:
//   bench_serve [--requests=N] [--concurrency=N] [--qps=X] [--zipf=S]
//               [--catalog=N] [--seed=N] [--out=PATH] [--smoke]
//               [--trace-requests[=PATH]] [--debug-port=N] [--chaos]
//               [--net] [--net-target=HOST:PORT]
//
// --smoke is the CI gate mode: a small trace at low QPS that must
// complete with zero shed requests (exit 1 otherwise).
//
// --net additionally pushes a decode-heavy trace through the lcrec::net
// RPC front (ISSUE 10): in-process clusters of 1, 2, and 4 workers
// (each its own serve::Server + net::RpcServer over the shared model)
// behind a net::Router, driven over real loopback sockets in open loop
// at --net-qps (default 2000 — above single-worker capacity, so the
// measured rate is sustained capacity, not the offered rate). Records
// the wire-level throughput/latency (net/req_per_sec, net/p50_ms,
// net/p95_ms — the gap vs serve/req_per_sec is the codec + TCP
// overhead) and the scaling curve (net/speedup_2w_x, net/speedup_4w_x).
// Zero failed requests is a hard line (exit 1).
//
// --net-target=HOST:PORT is the external-load mode: open-loop socket
// load at --qps against an already-running router or worker, exiting
// non-zero if any request fails or resolves non-kOk. scripts/ci.sh's
// `net` gate uses it as the load generator while it SIGTERMs a worker
// mid-run — the exit code asserts the drain handoff dropped nothing.
// No record is written in this mode.
//
// --chaos additionally replays the closed loop with deadlines against a
// server under seeded chaos injection (decode delays + failures, queue
// pressure) and records how serving degrades rather than how fast it
// goes: availability, the degraded-response rate by ladder tier, and the
// p99 under injected stalls (serve_chaos/* in the record, wide bands —
// the healthy serve/req_per_sec baseline is measured before chaos arms
// and stays the perfgate number).
//
// --debug-port=N (0 = ephemeral) additionally starts the debugz HTTP
// surface and measures the cost of observing the server while it
// serves: a /statusz scrape loop during a timed decode-heavy run
// (serve/statusz_scrape_us) and a /profilez capture during a second
// identical run, which must move the serve p95 by < 5% (plus a small
// absolute slack for cache-hit-fast runs) or the bench exits non-zero
// (serve/profilez_p95_delta_pct in the record).
//
// --trace-requests samples every request (trace_sample_n=1), writes the
// closed-loop run's request-scoped async spans as a Chrome trace (PATH,
// default serve_trace.json — load in chrome://tracing or Perfetto), and
// prints a few per-request stage timelines. Independent of tracing, the
// record always includes tail attribution: the mean per-stage breakdown
// of requests at or above the closed-loop p95 (serve_tail/*_us), which
// names the stage a tail regression lives in.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "llm/generate.h"
#include "net/router.h"
#include "net/rpc.h"
#include "net/service.h"
#include "obs/debugz.h"
#include "obs/export.h"
#include "obs/http.h"
#include "obs/perfgate.h"
#include "obs/sync.h"
#include "obs/trace.h"
#include "serve/chaos.h"
#include "serve/server.h"
#include "serve/toy_system.h"

namespace {

using namespace lcrec;
using serve::ToySystem;

/// Beam width of every benched server and of the sequential baseline.
constexpr int kBeamSize = 8;

struct ServeFlags {
  int requests = 400;
  int concurrency = 8;
  double qps = 60.0;
  double zipf = 1.1;     // history-reuse skew (0 = uniform)
  int catalog = 64;      // distinct histories in the trace
  uint64_t seed = 19;
  std::string out;
  bool smoke = false;
  bool chaos = false;
  bool net = false;             // in-process 1/2/4-worker socket curve
  double net_qps = 2000.0;      // offered rate for the --net curve
  std::string net_target;       // "host:port": external open-loop load
  bool trace_requests = false;
  std::string trace_out = "serve_trace.json";
  int debug_port = -1;  // >= 0: start debugz + scrape-under-load runs

  static ServeFlags Parse(int argc, char** argv) {
    ServeFlags f;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--requests=", 11) == 0) {
        f.requests = std::atoi(a + 11);
      } else if (std::strncmp(a, "--concurrency=", 14) == 0) {
        f.concurrency = std::atoi(a + 14);
      } else if (std::strncmp(a, "--qps=", 6) == 0) {
        f.qps = std::atof(a + 6);
      } else if (std::strncmp(a, "--zipf=", 7) == 0) {
        f.zipf = std::atof(a + 7);
      } else if (std::strncmp(a, "--catalog=", 10) == 0) {
        f.catalog = std::atoi(a + 10);
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        f.seed = static_cast<uint64_t>(std::atoll(a + 7));
      } else if (std::strncmp(a, "--out=", 6) == 0) {
        f.out = a + 6;
      } else if (std::strcmp(a, "--trace-requests") == 0) {
        f.trace_requests = true;
      } else if (std::strncmp(a, "--trace-requests=", 17) == 0) {
        f.trace_requests = true;
        f.trace_out = a + 17;
      } else if (std::strncmp(a, "--debug-port=", 13) == 0) {
        f.debug_port = std::atoi(a + 13);
      } else if (std::strcmp(a, "--chaos") == 0) {
        f.chaos = true;
      } else if (std::strcmp(a, "--net") == 0) {
        f.net = true;
      } else if (std::strncmp(a, "--net-qps=", 10) == 0) {
        f.net_qps = std::atof(a + 10);
      } else if (std::strncmp(a, "--net-target=", 13) == 0) {
        f.net_target = a + 13;
      } else if (std::strcmp(a, "--smoke") == 0) {
        f.smoke = true;
        f.requests = 48;
        f.concurrency = 4;
        f.qps = 20.0;
        f.catalog = 16;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", a);
        std::exit(2);
      }
    }
    return f;
  }
};

/// Zipfian trace: request r asks for history rank drawn with
/// P(rank) ~ 1/(rank+1)^s — the head histories repeat (cacheable), the
/// tail stays cold, like production recommendation traffic.
std::vector<std::vector<int>> MakeTrace(const ServeFlags& f) {
  std::vector<std::vector<int>> histories;
  for (int h = 0; h < f.catalog; ++h) {
    histories.push_back({h, 2 * h + 1, 3 * h + 2, h + 7});
  }
  std::vector<double> cdf(histories.size());
  double acc = 0.0;
  for (size_t r = 0; r < histories.size(); ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), f.zipf);
    cdf[r] = acc;
  }
  core::Rng rng(f.seed + 1);
  std::vector<std::vector<int>> trace;
  trace.reserve(static_cast<size_t>(f.requests));
  for (int i = 0; i < f.requests; ++i) {
    double u = rng.Uniform() * acc;
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (rank >= histories.size()) rank = histories.size() - 1;
    trace.push_back(histories[rank]);
  }
  return trace;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

struct LoadResult {
  double wall_s = 0.0;
  double req_per_sec = 0.0;
  std::vector<double> latency_ms;
  serve::ServerStats stats;
  int errors = 0;  // non-kOk responses
  /// Per-request stage breakdowns, aligned with latency_ms (closed loop
  /// only; empty elsewhere).
  std::vector<serve::RequestDebug> debugs;
};

/// Sequential single-request baseline: one thread, one GenerateItems per
/// trace entry, no batching, no caching — the floor the server must
/// beat by >= 3x at concurrency >= 8 (ISSUE acceptance).
LoadResult RunSequential(const ToySystem& bench,
                         const std::vector<std::vector<int>>& trace,
                         int top_n) {
  serve::PromptBuilder builder = bench.Builder();
  LoadResult result;
  auto start = std::chrono::steady_clock::now();
  for (const auto& history : trace) {
    auto t0 = std::chrono::steady_clock::now();
    auto items = llm::GenerateItems(bench.model, builder(history),
                                    bench.trie, bench.token_map,
                                    kBeamSize, top_n);
    if (items.empty()) ++result.errors;
    auto t1 = std::chrono::steady_clock::now();
    result.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  auto end = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(end - start).count();
  result.req_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(trace.size()) / result.wall_s
                          : 0.0;
  return result;
}

/// Closed loop: `concurrency` client threads issue trace entries
/// back-to-back; latency is per-call wall time.
LoadResult RunClosedLoop(const ToySystem& bench,
                         const std::vector<std::vector<int>>& trace,
                         int concurrency, int top_n) {
  serve::ServerOptions opts;
  opts.beam_size = kBeamSize;
  opts.max_batch_lanes = concurrency;
  serve::Server server(bench.model, bench.trie, bench.token_map,
                       bench.Builder(), opts);

  std::atomic<size_t> next{0};
  std::vector<std::vector<double>> lat(static_cast<size_t>(concurrency));
  std::vector<std::vector<serve::RequestDebug>> dbg(
      static_cast<size_t>(concurrency));
  std::atomic<int> errors{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= trace.size()) break;
        serve::RecommendRequest req;
        req.history = trace[i];
        req.top_n = top_n;
        auto t0 = std::chrono::steady_clock::now();
        serve::RecommendResponse resp = server.Recommend(req);
        auto t1 = std::chrono::steady_clock::now();
        if (resp.status != serve::Status::kOk) errors.fetch_add(1);
        lat[static_cast<size_t>(c)].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        dbg[static_cast<size_t>(c)].push_back(std::move(resp.debug));
      }
    });
  }
  for (auto& c : clients) c.join();
  auto end = std::chrono::steady_clock::now();

  LoadResult result;
  result.wall_s = std::chrono::duration<double>(end - start).count();
  result.req_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(trace.size()) / result.wall_s
                          : 0.0;
  for (size_t t = 0; t < lat.size(); ++t) {
    result.latency_ms.insert(result.latency_ms.end(), lat[t].begin(),
                             lat[t].end());
    result.debugs.insert(result.debugs.end(),
                         std::make_move_iterator(dbg[t].begin()),
                         std::make_move_iterator(dbg[t].end()));
  }
  result.errors = errors.load();
  result.stats = server.stats();
  return result;
}

/// Tail attribution: the mean per-stage time of the requests at or above
/// the p95 latency — where did the slow requests actually spend it?
/// Stage durations are gap-free (obs::RequestTimeline), so the returned
/// means sum to roughly the mean tail latency.
std::map<std::string, double> TailStageBreakdownUs(const LoadResult& r) {
  std::map<std::string, double> sum_us;
  if (r.debugs.size() != r.latency_ms.size() || r.debugs.empty()) {
    return sum_us;
  }
  double p95 = Quantile(r.latency_ms, 0.95);
  int tail = 0;
  for (size_t i = 0; i < r.debugs.size(); ++i) {
    if (r.latency_ms[i] < p95) continue;
    ++tail;
    for (const obs::StageSpan& s : r.debugs[i].stages) {
      sum_us[s.stage] += s.dur_us;
    }
  }
  if (tail > 0) {
    for (auto& kv : sum_us) kv.second /= static_cast<double>(tail);
  }
  return sum_us;
}

/// Open loop: arrivals scheduled at `qps`; worker threads pick up each
/// arrival no earlier than its scheduled time, and latency counts from
/// the schedule, so queueing delay under load is visible. (With all
/// workers busy, arrivals are effectively delayed — the usual pooled
/// open-loop caveat.)
LoadResult RunOpenLoop(const ToySystem& bench,
                       const std::vector<std::vector<int>>& trace,
                       int concurrency, double qps, int top_n) {
  serve::ServerOptions opts;
  opts.beam_size = kBeamSize;
  opts.max_batch_lanes = concurrency;
  serve::Server server(bench.model, bench.trie, bench.token_map,
                       bench.Builder(), opts);

  auto start = std::chrono::steady_clock::now();
  std::vector<std::chrono::steady_clock::time_point> arrival(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    arrival[i] = start + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(i) / qps));
  }

  std::atomic<size_t> next{0};
  std::vector<std::vector<double>> lat(static_cast<size_t>(concurrency));
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < concurrency; ++c) {
    workers.emplace_back([&, c] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= trace.size()) break;
        std::this_thread::sleep_until(arrival[i]);
        serve::RecommendRequest req;
        req.history = trace[i];
        req.top_n = top_n;
        serve::RecommendResponse resp = server.Recommend(req);
        auto t1 = std::chrono::steady_clock::now();
        if (resp.status != serve::Status::kOk) errors.fetch_add(1);
        lat[static_cast<size_t>(c)].push_back(
            std::chrono::duration<double, std::milli>(t1 - arrival[i])
                .count());
      }
    });
  }
  for (auto& w : workers) w.join();
  auto end = std::chrono::steady_clock::now();

  LoadResult result;
  result.wall_s = std::chrono::duration<double>(end - start).count();
  result.req_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(trace.size()) / result.wall_s
                          : 0.0;
  for (const auto& per_thread : lat) {
    result.latency_ms.insert(result.latency_ms.end(), per_thread.begin(),
                             per_thread.end());
  }
  result.errors = errors.load();
  result.stats = server.stats();
  return result;
}

/// Timed closed loop against an existing server: `concurrency` clients
/// issue mostly-distinct histories (cycling far past the result-cache
/// capacity, so the server keeps decoding) until the deadline. Used by
/// the debugz scrape-cost measurement, which needs runs long enough to
/// overlap a 1-second /profilez capture — the fixed-size trace replay
/// finishes in milliseconds.
std::vector<double> RunTimedDecodeLoad(serve::Server& server, int concurrency,
                                       double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> lat(static_cast<size_t>(concurrency));
  std::vector<std::thread> clients;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds));
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      int n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() >= deadline) break;
        serve::RecommendRequest req;
        req.history = {c, (n % 2503) + 1, 2 * c + 3, n % 17};
        req.top_n = 10;
        auto t0 = std::chrono::steady_clock::now();
        serve::RecommendResponse resp = server.Recommend(req);
        auto t1 = std::chrono::steady_clock::now();
        if (resp.status == serve::Status::kOk) {
          lat[static_cast<size_t>(c)].push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
        ++n;
      }
    });
  }
  for (auto& c : clients) c.join();
  std::vector<double> all;
  for (const auto& per_thread : lat) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  return all;
}

/// The observer-effect measurement behind --debug-port: how much does
/// watching the server cost the server? Two timed decode-heavy runs on
/// one server: the first with a /statusz scrape loop (mean scrape wall
/// time => serve/statusz_scrape_us), the second with a /profilez
/// capture in flight for ~2/3 of the run. The p95 under profiling must
/// stay within 5% (+ 0.25 ms absolute slack, so microsecond-scale p95s
/// don't fail on jitter) of the scrape-only baseline.
bool RunDebugzMeasurement(const ToySystem& bench, const ServeFlags& flags,
                          obs::PerfRecord* rec) {
  serve::ServerOptions opts;
  opts.beam_size = kBeamSize;
  opts.max_batch_lanes = flags.concurrency;
  opts.debug_port = flags.debug_port;
  serve::Server server(bench.model, bench.trie, bench.token_map,
                       bench.Builder(), opts);
  obs::DebugServer& debugz = obs::DebugServer::Global();
  if (!debugz.running()) {
    std::fprintf(stderr, "bench_serve: debugz failed to start on port %d\n",
                 flags.debug_port);
    return false;
  }
  const int port = debugz.port();
  const double kRunSeconds = 1.5;
  std::printf("debugz: serving on 127.0.0.1:%d, two %.1fs timed runs\n", port,
              kRunSeconds);

  // Run 1: baseline latencies with a continuous /statusz scrape loop.
  std::atomic<bool> stop_scraper{false};
  std::vector<double> scrape_us;
  std::atomic<int> scrape_errors{0};
  std::thread scraper([&] {
    while (!stop_scraper.load(std::memory_order_relaxed)) {
      obs::HttpResponse response;
      auto t0 = std::chrono::steady_clock::now();
      bool ok = obs::HttpGet("127.0.0.1", port, "/statusz", &response);
      auto t1 = std::chrono::steady_clock::now();
      if (ok && response.status == 200) {
        scrape_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      } else {
        scrape_errors.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  std::vector<double> base_lat =
      RunTimedDecodeLoad(server, flags.concurrency, kRunSeconds);
  stop_scraper.store(true);
  scraper.join();
  if (scrape_us.empty() || scrape_errors.load() > 0) {
    std::fprintf(stderr, "bench_serve: /statusz scrape loop failed (%d errors, %zu ok)\n",
                 scrape_errors.load(), scrape_us.size());
    return false;
  }

  // Run 2: identical load with a 1s /profilez capture in flight.
  std::atomic<bool> profilez_ok{false};
  std::thread profiler([&] {
    obs::HttpResponse response;
    if (obs::HttpGet("127.0.0.1", port, "/profilez?seconds=1&hz=197",
                     &response) &&
        response.status == 200 && !response.body.empty()) {
      profilez_ok.store(true);
    }
  });
  std::vector<double> prof_lat =
      RunTimedDecodeLoad(server, flags.concurrency, kRunSeconds);
  profiler.join();
  if (!profilez_ok.load()) {
    std::fprintf(stderr, "bench_serve: /profilez capture failed\n");
    return false;
  }

  double scrape_mean_us = 0.0;
  for (double us : scrape_us) scrape_mean_us += us;
  scrape_mean_us /= static_cast<double>(scrape_us.size());
  double p95_base = Quantile(base_lat, 0.95);
  double p95_prof = Quantile(prof_lat, 0.95);
  double delta_pct =
      p95_base > 0.0 ? (p95_prof - p95_base) / p95_base * 100.0 : 0.0;
  std::printf(
      "debugz: %zu /statusz scrapes, mean %.1f us; p95 %.3f ms -> %.3f ms "
      "under /profilez (%+.1f%%)\n",
      scrape_us.size(), scrape_mean_us, p95_base, p95_prof, delta_pct);

  // Wide tolerance bands: scrape cost and the profiling delta are noise-
  // dominated at this scale; the hard <5% assertion below is the gate.
  rec->metrics["serve/statusz_scrape_us"] = {scrape_mean_us, 1.0};
  rec->metrics["serve/profilez_p95_delta_pct"] = {delta_pct, 1.0};

  if (p95_prof > p95_base * 1.05 + 0.25) {
    std::fprintf(stderr,
                 "bench_serve: /profilez capture moved serve p95 by %.1f%% "
                 "(%.3f ms -> %.3f ms), above the 5%% budget\n",
                 delta_pct, p95_base, p95_prof);
    return false;
  }
  return true;
}

/// The --chaos measurement: how does serving DEGRADE, not how fast does
/// it go. A closed-loop replay with per-request deadlines against a
/// server whose decode path is under seeded injection (latency spikes,
/// failures, queue pressure). What matters is availability (every
/// request still resolves kOk from some ladder tier), which tiers
/// absorbed the faults, and the latency tail under stalls.
struct ChaosResult {
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  serve::ServerStats stats;
  int total = 0;
  int ok = 0;
  int degraded_by_level[4] = {0, 0, 0, 0};  // indexed by DegradeLevel
};

ChaosResult RunChaosLoop(const ToySystem& bench,
                         const std::vector<std::vector<int>>& trace,
                         int concurrency, int top_n, uint64_t seed) {
  constexpr double kDeadlineMs = 100.0;
  constexpr double kDelayMs = 25.0;
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
  serve::chaos::ArmChaos(specs, seed);

  serve::ServerOptions opts;
  opts.beam_size = kBeamSize;
  opts.max_batch_lanes = concurrency;
  opts.cache_ttl_ms = 50.0;  // repeats can age into the stale tier
  opts.slow_request_ms = 0.0;
  serve::Server server(bench.model, bench.trie, bench.token_map,
                       bench.Builder(), opts);

  std::atomic<size_t> next{0};
  std::vector<std::vector<double>> lat(static_cast<size_t>(concurrency));
  std::atomic<int> ok{0};
  std::atomic<int> by_level[4] = {0, 0, 0, 0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= trace.size()) break;
        serve::RecommendRequest req;
        req.history = trace[i];
        req.top_n = top_n;
        req.deadline_ms = kDeadlineMs;
        auto t0 = std::chrono::steady_clock::now();
        serve::RecommendResponse resp = server.Recommend(req);
        auto t1 = std::chrono::steady_clock::now();
        if (resp.status == serve::Status::kOk) ok.fetch_add(1);
        by_level[static_cast<int>(resp.degrade)].fetch_add(1);
        lat[static_cast<size_t>(c)].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (auto& c : clients) c.join();
  auto end = std::chrono::steady_clock::now();
  serve::chaos::DisarmChaos();

  ChaosResult result;
  result.wall_s = std::chrono::duration<double>(end - start).count();
  result.total = static_cast<int>(trace.size());
  result.ok = ok.load();
  for (int l = 0; l < 4; ++l) result.degraded_by_level[l] = by_level[l].load();
  for (const auto& per_thread : lat) {
    result.latency_ms.insert(result.latency_ms.end(), per_thread.begin(),
                             per_thread.end());
  }
  result.stats = server.stats();
  return result;
}

/// One socket-load result: latencies measured at the RPC client, so
/// they include codec, TCP, the router hop, and the worker's serve path.
struct NetLoadResult {
  double wall_s = 0.0;
  double req_per_sec = 0.0;
  std::vector<double> latency_ms;
  int failed = 0;  // calls that failed after every retry/failover
  int errors = 0;  // answered, but status != kOk (sheds)
};

/// Open loop over the wire: arrivals scheduled at `qps`, latency counted
/// from the schedule (same semantics as RunOpenLoop, through sockets).
NetLoadResult RunNetOpenLoop(net::RpcClient* client,
                             const std::vector<std::vector<int>>& trace,
                             int concurrency, double qps, int top_n) {
  auto start = std::chrono::steady_clock::now();
  std::vector<std::chrono::steady_clock::time_point> arrival(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    arrival[i] = start + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(i) / qps));
  }

  std::atomic<size_t> next{0};
  std::vector<std::vector<double>> lat(static_cast<size_t>(concurrency));
  std::atomic<int> failed{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < concurrency; ++c) {
    workers.emplace_back([&, c] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= trace.size()) break;
        std::this_thread::sleep_until(arrival[i]);
        serve::RecommendRequest req;
        req.history = trace[i];
        req.top_n = top_n;
        serve::RecommendResponse resp;
        std::string error;
        bool ok = net::CallRecommend(client, req, &resp, &error);
        auto t1 = std::chrono::steady_clock::now();
        if (!ok) {
          failed.fetch_add(1);
          continue;
        }
        if (resp.status != serve::Status::kOk) errors.fetch_add(1);
        lat[static_cast<size_t>(c)].push_back(
            std::chrono::duration<double, std::milli>(t1 - arrival[i])
                .count());
      }
    });
  }
  for (auto& w : workers) w.join();
  auto end = std::chrono::steady_clock::now();

  NetLoadResult result;
  result.wall_s = std::chrono::duration<double>(end - start).count();
  result.req_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(trace.size()) / result.wall_s
                          : 0.0;
  for (const auto& per_thread : lat) {
    result.latency_ms.insert(result.latency_ms.end(), per_thread.begin(),
                             per_thread.end());
  }
  result.failed = failed.load();
  result.errors = errors.load();
  return result;
}

/// An in-process sharded cluster: W workers (each its own serve::Server
/// + net::RpcServer sharing the benched model read-only) behind one
/// net::Router — the same one-box topology the CI net gate runs with
/// real processes, minus the fork/exec, so the curve is cheap to sweep.
struct NetCluster {
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::unique_ptr<net::RpcServer>> rpcs;
  std::unique_ptr<net::Router> router;

  bool Start(const ToySystem& bench, int workers, int concurrency,
             std::string* error) {
    net::RouterOptions ropts;
    for (int w = 0; w < workers; ++w) {
      serve::ServerOptions sopts;
      sopts.beam_size = kBeamSize;
      sopts.max_batch_lanes = concurrency;
      servers.push_back(std::make_unique<serve::Server>(
          bench.model, bench.trie, bench.token_map, bench.Builder(),
          sopts));
      net::RpcServerOptions wopts;
      wopts.dispatch_threads = concurrency;
      rpcs.push_back(std::make_unique<net::RpcServer>(wopts));
      net::RegisterRecommendService(rpcs.back().get(), servers.back().get());
      if (!rpcs.back()->Start(error)) return false;
      ropts.workers.push_back("127.0.0.1:" +
                              std::to_string(rpcs.back()->port()));
    }
    ropts.server.dispatch_threads = concurrency;
    ropts.client.max_retries = 2;
    ropts.client.backoff_ms = 1.0;
    router = std::make_unique<net::Router>(ropts);
    return router->Start(error);
  }

  void Stop() {
    if (router) router->Stop();
    for (auto& r : rpcs) r->Stop();
  }
};

/// The --net measurement: open-loop socket load pushed through the RPC
/// front at 1, 2, and 4 workers, with arrivals scheduled at --net-qps —
/// above capacity by default, so the measured rate is each cluster
/// size's sustained capacity and the speedup entries are the sharding
/// scaling curve. The 1-worker numbers are the wire overhead (read them
/// against serve/req_per_sec). Zero failed requests is a hard line.
///
/// The curve uses a decode-heavy trace (every history distinct) rather
/// than the Zipfian one: sharding splits a repeat-heavy trace's result
/// cache across workers, so the Zipfian curve would measure cache
/// fragmentation, not serving capacity. What sharding buys is decode
/// throughput — that is what the curve should show, and on a one-core
/// box it honestly shows ~1x.
bool RunNetCurve(const ToySystem& bench, const ServeFlags& flags, int top_n,
                 obs::PerfRecord* rec) {
  constexpr double kNetTolerance = 0.60;
  constexpr int kWorkerCounts[] = {1, 2, 4};
  std::vector<std::vector<int>> trace;
  trace.reserve(static_cast<size_t>(flags.requests));
  for (int i = 0; i < flags.requests; ++i) {
    trace.push_back(
        {(i % 2503) + 1, (i * 7 + 3) % 1709, i % 17, (i * 13 + 5) % 127});
  }
  double rps_1w = 0.0;
  bool ok = true;
  for (int workers : kWorkerCounts) {
    NetCluster cluster;
    std::string error;
    if (!cluster.Start(bench, workers, flags.concurrency, &error)) {
      std::fprintf(stderr,
                   "bench_serve: net cluster (%d workers) failed to start: "
                   "%s\n",
                   workers, error.c_str());
      cluster.Stop();
      return false;
    }
    net::RpcClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = cluster.router->port();
    copts.max_retries = 2;
    copts.backoff_ms = 1.0;
    net::RpcClient client(copts);
    if (!net::CallPing(&client, &error)) {
      std::fprintf(stderr, "bench_serve: net cluster ping failed: %s\n",
                   error.c_str());
      cluster.Stop();
      return false;
    }
    NetLoadResult r = RunNetOpenLoop(&client, trace, flags.concurrency,
                                     flags.net_qps, top_n);
    cluster.Stop();

    char name[32];
    std::snprintf(name, sizeof(name), "net %dw", workers);
    std::printf(
        "%-10s  %7.1f req/s  p50 %7.2f ms  p95 %7.2f ms  failed %d  "
        "non-ok %d\n",
        name, r.req_per_sec, Quantile(r.latency_ms, 0.50),
        Quantile(r.latency_ms, 0.95), r.failed, r.errors);
    if (r.failed != 0) {
      std::fprintf(stderr,
                   "bench_serve: net FAIL (%d of %zu requests failed at %d "
                   "workers)\n",
                   r.failed, trace.size(), workers);
      ok = false;
    }
    if (workers == 1) {
      rps_1w = r.req_per_sec;
      rec->metrics["net/req_per_sec"] = {r.req_per_sec, kNetTolerance};
      rec->metrics["net/p50_ms"] = {Quantile(r.latency_ms, 0.50),
                                    kNetTolerance};
      rec->metrics["net/p95_ms"] = {Quantile(r.latency_ms, 0.95),
                                    kNetTolerance};
    } else {
      // Wide band: multi-worker scaling on a shared box is scheduler-
      // noise-bound; the curve is informative, not a gate.
      double speedup = rps_1w > 0.0 ? r.req_per_sec / rps_1w : 0.0;
      rec->metrics["net/speedup_" + std::to_string(workers) + "w_x"] = {
          speedup, 1.0};
      std::printf("net: %d workers vs 1 = %.2fx\n", workers, speedup);
    }
  }
  return ok;
}

/// The --net-target mode: open-loop load against an externally-running
/// router/worker; exit status is the verdict (0 = every request landed).
int RunNetTarget(const ServeFlags& flags, int top_n) {
  std::string host;
  int port = 0;
  if (!net::ParseEndpoint(flags.net_target, &host, &port)) {
    std::fprintf(stderr,
                 "bench_serve: bad --net-target '%s' (want host:port)\n",
                 flags.net_target.c_str());
    return 2;
  }
  net::RpcClientOptions copts;
  copts.host = host;
  copts.port = port;
  copts.max_retries = 3;
  copts.backoff_ms = 5.0;
  net::RpcClient client(copts);
  std::string error;
  if (!net::CallPing(&client, &error)) {
    std::fprintf(stderr, "bench_serve: cannot reach %s: %s\n",
                 flags.net_target.c_str(), error.c_str());
    return 2;
  }
  std::vector<std::vector<int>> trace = MakeTrace(flags);
  NetLoadResult r = RunNetOpenLoop(&client, trace, flags.concurrency,
                                   flags.qps, top_n);
  std::printf(
      "net-target  %7.1f req/s  p50 %7.2f ms  p95 %7.2f ms  failed %d  "
      "non-ok %d\n",
      r.req_per_sec, Quantile(r.latency_ms, 0.50),
      Quantile(r.latency_ms, 0.95), r.failed, r.errors);
  if (r.failed != 0 || r.errors != 0) {
    std::fprintf(stderr,
                 "bench_serve: net-target FAIL (%d failed, %d non-ok of "
                 "%zu requests)\n",
                 r.failed, r.errors, trace.size());
    return 1;
  }
  std::printf("bench_serve: net-target PASS (%zu requests, zero failures)\n",
              trace.size());
  return 0;
}

void PrintResult(const char* name, const LoadResult& r) {
  std::printf(
      "%-10s  %7.1f req/s  p50 %7.2f ms  p95 %7.2f ms  p99 %7.2f ms\n", name,
      r.req_per_sec, Quantile(r.latency_ms, 0.50), Quantile(r.latency_ms, 0.95),
      Quantile(r.latency_ms, 0.99));
  std::printf(
      "%-10s  decoded %lld  cache_hits %lld  coalesced %lld  inline %lld  "
      "shed %lld  errors %d\n",
      "", static_cast<long long>(r.stats.decoded),
      static_cast<long long>(r.stats.cache_hits),
      static_cast<long long>(r.stats.coalesced),
      static_cast<long long>(r.stats.inline_fast_path),
      static_cast<long long>(r.stats.shed_queue_full +
                             r.stats.shed_deadline),
      r.errors);
}

}  // namespace

int main(int argc, char** argv) {
  ServeFlags flags = ServeFlags::Parse(argc, argv);
  constexpr int kTopN = 10;
  constexpr double kServeTolerance = 0.60;  // match the perfgate bands

  // External-load mode: drive a running router, report, exit. No local
  // model, no record — the target cluster owns its numbers.
  if (!flags.net_target.empty()) {
    return RunNetTarget(flags, kTopN);
  }

  std::printf(
      "bench_serve: %d requests, catalog %d, zipf %.2f, concurrency %d, "
      "qps %.1f%s\n",
      flags.requests, flags.catalog, flags.zipf, flags.concurrency, flags.qps,
      flags.smoke ? " [smoke]" : "");

  // The headline numbers are measured with the deadlock detector in its
  // release default (report) so the record reflects what production
  // pays; an explicit LCREC_DEADLOCK in the environment still wins.
  if (std::getenv("LCREC_DEADLOCK") == nullptr) {
    obs::SetDeadlockMode(obs::DeadlockMode::kReport);
  }

  ToySystem bench(flags.seed);
  std::vector<std::vector<int>> trace = MakeTrace(flags);

  auto mutex_wait_total_us = [] {
    long long total = 0;
    for (const obs::MutexStatsRow& row : obs::MutexStatsSnapshot()) {
      total += row.wait_total_us;
    }
    return total;
  };

  LoadResult seq = RunSequential(bench, trace, kTopN);
  PrintResult("sequential", seq);
  if (flags.trace_requests) obs::TraceRecorder::Global().SetEnabled(true);
  long long wait_before_us = mutex_wait_total_us();
  LoadResult closed = RunClosedLoop(bench, trace, flags.concurrency, kTopN);
  long long mutex_wait_us = mutex_wait_total_us() - wait_before_us;
  if (flags.trace_requests) {
    obs::TraceRecorder::Global().SetEnabled(false);
    obs::TraceRecorder::Global().WriteChromeTraceFile(flags.trace_out);
    std::printf("bench_serve: request trace (%zu events) written to %s\n",
                obs::TraceRecorder::Global().event_count(),
                flags.trace_out.c_str());
    // A few sample timelines so the stage names are visible without
    // opening the trace.
    int shown = 0;
    for (const serve::RequestDebug& d : closed.debugs) {
      if (d.stages.size() < 4 || shown >= 3) continue;
      std::printf("  request %llu:",
                  static_cast<unsigned long long>(d.request_id));
      for (const obs::StageSpan& s : d.stages) {
        std::printf(" %s %.0fus", s.stage, s.dur_us);
      }
      std::printf("\n");
      ++shown;
    }
  }
  PrintResult("closed", closed);

  // Detector cost, measured directly: the same closed-loop replay with
  // lock-discipline tracking off entirely (raw std::mutex cost). The
  // delta is recorded, not gated — serve/req_per_sec above, measured in
  // report mode, is what the perf baseline holds to tolerance.
  obs::DeadlockMode bench_mode = obs::GetDeadlockMode();
  obs::SetDeadlockMode(obs::DeadlockMode::kOff);
  LoadResult closed_off =
      RunClosedLoop(bench, trace, flags.concurrency, kTopN);
  obs::SetDeadlockMode(bench_mode);
  double detector_off_delta_pct =
      closed.req_per_sec > 0.0
          ? (closed_off.req_per_sec - closed.req_per_sec) /
                closed.req_per_sec * 100.0
          : 0.0;
  std::printf(
      "lock discipline: closed-loop mutex wait %lld us; detector %s %.1f "
      "req/s vs off %.1f req/s (off is %+.1f%%)\n",
      mutex_wait_us, obs::DeadlockModeName(bench_mode), closed.req_per_sec,
      closed_off.req_per_sec, detector_off_delta_pct);

  LoadResult open =
      RunOpenLoop(bench, trace, flags.concurrency, flags.qps, kTopN);
  PrintResult("open", open);

  std::map<std::string, double> tail = TailStageBreakdownUs(closed);
  if (!tail.empty()) {
    std::printf("closed-loop tail (>= p95) mean stage breakdown:\n");
    for (const auto& kv : tail) {
      std::printf("  %-14s %9.1f us\n", kv.first.c_str(), kv.second);
    }
  }

  double speedup =
      seq.req_per_sec > 0.0 ? closed.req_per_sec / seq.req_per_sec : 0.0;
  std::printf("speedup: closed-loop vs sequential = %.2fx\n", speedup);

  obs::PerfRecord rec;
  rec.manifest = obs::CollectRunManifest();
  rec.metrics["serve/req_per_sec"] = {closed.req_per_sec, kServeTolerance};
  rec.metrics["serve/p50_ms"] = {Quantile(closed.latency_ms, 0.50),
                                 kServeTolerance};
  rec.metrics["serve/p95_ms"] = {Quantile(closed.latency_ms, 0.95),
                                 kServeTolerance};
  rec.metrics["serve/p99_ms"] = {Quantile(closed.latency_ms, 0.99),
                                 kServeTolerance};
  rec.metrics["serve/speedup_vs_sequential_x"] = {speedup, kServeTolerance};
  rec.metrics["serve_open/req_per_sec"] = {open.req_per_sec, kServeTolerance};
  rec.metrics["serve_open/p95_ms"] = {Quantile(open.latency_ms, 0.95),
                                      kServeTolerance};
  rec.metrics["sequential/req_per_sec"] = {seq.req_per_sec, kServeTolerance};
  // Shed breakdown and serve-path mix. Counts are usually 0 at bench
  // load (the smoke gate demands it); a nonzero baseline would make a
  // shed regression visible in the perf diff.
  double n_closed = static_cast<double>(closed.stats.requests);
  rec.metrics["serve/shed_queue_full"] = {
      static_cast<double>(closed.stats.shed_queue_full), kServeTolerance};
  rec.metrics["serve/shed_deadline"] = {
      static_cast<double>(closed.stats.shed_deadline), kServeTolerance};
  rec.metrics["serve_open/shed_queue_full"] = {
      static_cast<double>(open.stats.shed_queue_full), kServeTolerance};
  rec.metrics["serve_open/shed_deadline"] = {
      static_cast<double>(open.stats.shed_deadline), kServeTolerance};
  if (n_closed > 0.0) {
    rec.metrics["serve/cache_hit_rate"] = {
        static_cast<double>(closed.stats.cache_hits) / n_closed, 1.0};
    rec.metrics["serve/coalesce_rate"] = {
        static_cast<double>(closed.stats.coalesced) / n_closed, 1.0};
    rec.metrics["serve/inline_rate"] = {
        static_cast<double>(closed.stats.inline_fast_path) / n_closed, 1.0};
  }
  // Tail attribution (mean us per stage for closed-loop requests >= p95).
  // Wide band: tail composition is the noisiest thing measured here.
  for (const auto& kv : tail) {
    rec.metrics["serve_tail/" + kv.first + "_us"] = {kv.second, 1.0};
  }
  // Lock discipline: total mutex wait accumulated during the closed
  // loop, and the throughput delta with the detector fully off. Both
  // are wide-band diagnostics — contention is scheduling-noise-bound.
  rec.metrics["serve/mutex_wait_us"] = {static_cast<double>(mutex_wait_us),
                                        1.0};
  rec.metrics["serve/detector_off_delta_pct"] = {detector_off_delta_pct, 1.0};

  // --chaos: degradation under injected faults, measured AFTER the
  // healthy runs above (the injector is process-wide; serve/req_per_sec
  // must stay a chaos-free perfgate number). All serve_chaos/* bands are
  // wide: the mix of tiers is seeded but scheduling-dependent.
  bool chaos_ok = true;
  if (flags.chaos) {
    ChaosResult cr = RunChaosLoop(bench, trace, flags.concurrency, kTopN,
                                  flags.seed);
    double n = static_cast<double>(cr.total);
    double availability = n > 0.0 ? static_cast<double>(cr.ok) / n : 0.0;
    int degraded = cr.degraded_by_level[1] + cr.degraded_by_level[2] +
                   cr.degraded_by_level[3];
    double p99 = Quantile(cr.latency_ms, 0.99);
    std::printf(
        "chaos       availability %.3f  degraded %d/%d (budget_capped %d, "
        "stale_cache %d, popularity %d)  p99 %7.2f ms\n",
        availability, degraded, cr.total, cr.degraded_by_level[1],
        cr.degraded_by_level[2], cr.degraded_by_level[3], p99);
    std::printf(
        "chaos       decode_failures %lld  retries %lld  "
        "breaker_short_circuits %lld  watchdog_fires %lld\n",
        static_cast<long long>(cr.stats.decode_failures),
        static_cast<long long>(cr.stats.decode_retries),
        static_cast<long long>(cr.stats.breaker_short_circuits),
        static_cast<long long>(cr.stats.watchdog_fires));
    rec.metrics["serve_chaos/availability"] = {availability, 1.0};
    rec.metrics["serve_chaos/p50_ms"] = {Quantile(cr.latency_ms, 0.50), 1.0};
    rec.metrics["serve_chaos/p99_ms"] = {p99, 1.0};
    if (n > 0.0) {
      rec.metrics["serve_chaos/degraded_rate"] = {degraded / n, 1.0};
      rec.metrics["serve_chaos/budget_capped_rate"] = {
          cr.degraded_by_level[1] / n, 1.0};
      rec.metrics["serve_chaos/stale_cache_rate"] = {
          cr.degraded_by_level[2] / n, 1.0};
      rec.metrics["serve_chaos/popularity_rate"] = {
          cr.degraded_by_level[3] / n, 1.0};
    }
    // Availability is the one hard line: with the ladder on, injected
    // faults must never surface as client-visible errors.
    if (cr.ok != cr.total) {
      std::fprintf(stderr,
                   "bench_serve: chaos FAIL (%d/%d requests not kOk under "
                   "injection)\n",
                   cr.total - cr.ok, cr.total);
      chaos_ok = false;
    }
  }
  bool debugz_ok = true;
  if (flags.debug_port >= 0) {
    debugz_ok = RunDebugzMeasurement(bench, flags, &rec);
  }
  // --net: the socket-level curve, after the healthy in-process numbers
  // (the clusters would otherwise compete for cores with the runs the
  // perf baseline holds).
  bool net_ok = true;
  if (flags.net) {
    net_ok = RunNetCurve(bench, flags, kTopN, &rec);
  }
  std::string out = flags.out;
  if (out.empty()) out = "BENCH_" + rec.manifest.git_sha + ".json";
  if (obs::WritePerfRecordFile(out, rec)) {
    std::printf("bench_serve: record written to %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", out.c_str());
    return 2;
  }
  if (!debugz_ok || !chaos_ok || !net_ok) {
    return 1;  // record written first: the numbers that failed
  }

  if (flags.smoke) {
    int64_t sheds =
        closed.stats.shed_queue_full + closed.stats.shed_deadline +
        open.stats.shed_queue_full + open.stats.shed_deadline;
    int errors = seq.errors + closed.errors + open.errors;
    if (sheds != 0 || errors != 0) {
      std::fprintf(stderr,
                   "bench_serve: smoke FAIL (%lld sheds, %d errors at low "
                   "QPS)\n",
                   static_cast<long long>(sheds), errors);
      return 1;
    }
    std::printf("bench_serve: smoke PASS (zero sheds, zero errors)\n");
  }
  return 0;
}
