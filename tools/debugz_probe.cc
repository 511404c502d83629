// Headless probe for the ci.sh debugz gate: embeds a serve::Server with
// an ephemeral debug port, drives client load against it, and scrapes
// every debugz endpoint over real HTTP with the repo's raw-socket
// client — validating payloads (Prometheus conformance, JSON/JSONL
// shape, collapsed profiler stacks) and finally forcing a ckpt health
// trip to prove /healthz flips to 503 with the subsystem and step in
// the reason body. Exits 0 and prints "debugz_probe: PASS" only when
// every check holds; any failure prints the reason and exits 1.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/health.h"
#include "obs/debugz.h"
#include "obs/flightrec.h"
#include "obs/http.h"
#include "obs/promcheck.h"
#include "serve/server.h"
#include "serve/toy_system.h"

namespace {

using namespace lcrec;

int g_failures = 0;

void Fail(const std::string& what) {
  std::fprintf(stderr, "debugz_probe: FAIL: %s\n", what.c_str());
  ++g_failures;
}

void Expect(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

void ExpectContains(const std::string& haystack, const std::string& needle,
                    const std::string& where) {
  if (haystack.find(needle) == std::string::npos) {
    Fail(where + " missing \"" + needle + "\"; got: " +
         haystack.substr(0, 200));
  }
}

std::string Get(int port, const std::string& target, int expect_status,
                obs::HttpResponse* out = nullptr) {
  obs::HttpResponse response;
  std::string error;
  if (!obs::HttpGet("127.0.0.1", port, target, &response, &error)) {
    Fail("GET " + target + ": " + error);
    return "";
  }
  if (response.status != expect_status) {
    Fail("GET " + target + ": status " + std::to_string(response.status) +
         ", want " + std::to_string(expect_status));
  }
  if (out != nullptr) *out = response;
  return response.body;
}

}  // namespace

int main() {
  serve::ToySystem probe(7);
  serve::ServerOptions opts;
  opts.debug_port = 0;  // ephemeral: the gate must not collide with anything
  opts.trace_sample_n = 1;
  serve::Server server(probe.model, probe.trie, probe.token_map,
                       probe.Builder(), opts);

  obs::DebugServer& debugz = obs::DebugServer::Global();
  if (!debugz.running()) {
    std::fprintf(stderr, "debugz_probe: FAIL: debug server not running\n");
    return 1;
  }
  const int port = debugz.port();
  std::printf("debugz_probe: serving on 127.0.0.1:%d\n", port);

  // Client load: a few threads cycling a small history set (some cache
  // hits, some misses) for the whole scrape pass, so every endpoint is
  // read while the server is actually working.
  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        serve::RecommendRequest req;
        // Mostly-distinct histories (i cycles past the cache capacity):
        // the load must keep decoding, or /profilez has no spans to
        // attribute and /metricsz counters freeze mid-scrape.
        req.history = {t, (i % 997) + 1, 2 * t + 3, i % 13};
        req.top_n = 5;
        auto resp = server.Recommend(req);
        if (resp.status == serve::Status::kOk) {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }
  // Let some traffic land before the first scrape.
  while (completed.load() < 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // --- index ---
  std::string index = Get(port, "/", 200);
  for (const char* ep : {"/healthz", "/metricsz", "/varz", "/statusz",
                         "/tracez", "/flightrecz", "/timelinez", "/mutexz",
                         "/profilez"}) {
    ExpectContains(index, ep, "/ index");
  }

  // --- /metricsz: Prometheus exposition, validated by the shared checker ---
  obs::HttpResponse metricsz;
  Get(port, "/metricsz", 200, &metricsz);
  ExpectContains(metricsz.content_type, "version=0.0.4", "/metricsz type");
  obs::PromCheckResult prom = obs::CheckPrometheusExposition(metricsz.body);
  Expect(prom.ok, "/metricsz conformance: " + prom.error);
  Expect(prom.families >= 4, "/metricsz families >= 4");
  ExpectContains(metricsz.body, "lcrec_serve_requests", "/metricsz");
  // Lock-discipline metrics: the shared conformance check above already
  // covers their exposition format; these pins prove they are present.
  ExpectContains(metricsz.body, "lcrec_obs_mutex_acquisitions", "/metricsz");
  ExpectContains(metricsz.body, "lcrec_obs_mutex_wait_us", "/metricsz");

  // --- /varz: the same registry as JSON ---
  std::string varz = Get(port, "/varz", 200);
  ExpectContains(varz, "{\"manifest\":", "/varz");
  ExpectContains(varz, "\"metrics\":[", "/varz");
  ExpectContains(varz, "lcrec.serve.requests", "/varz");

  // --- /statusz: manifest + the serve section ---
  std::string statusz = Get(port, "/statusz", 200);
  ExpectContains(statusz, "manifest:", "/statusz");
  ExpectContains(statusz, "--- serve ---", "/statusz");
  ExpectContains(statusz, "cache: hits", "/statusz");
  ExpectContains(statusz, "queue: depth", "/statusz");
  ExpectContains(statusz, "batch: active_lanes", "/statusz");

  // --- /tracez ---
  std::string tracez = Get(port, "/tracez", 200);
  ExpectContains(tracez, "tracing:", "/tracez");
  ExpectContains(tracez, "events:", "/tracez");

  // --- /mutexz: lock-discipline state while the server is under load ---
  std::string mutexz = Get(port, "/mutexz", 200);
  ExpectContains(mutexz, "deadlock detector: mode", "/mutexz");
  ExpectContains(mutexz, "lock-order edges", "/mutexz");
  ExpectContains(mutexz, "findings:", "/mutexz");
  // The rank table must show the annotated mutexes this probe exercises.
  for (const char* name : {"serve.queue", "serve.cache", "serve.server.state",
                           "obs.debugz.registries", "obs.metrics.registry"}) {
    ExpectContains(mutexz, name, "/mutexz rank table");
  }
  // A live load run must register zero cycle findings.
  ExpectContains(mutexz, "cycles 0", "/mutexz");

  // --- /flightrecz: JSONL ring; a probe mark must round-trip ---
  obs::FlightRecorder::Global().Record(obs::FrKind::kMark, "debugz_probe",
                                       /*a=*/7, /*b=*/11);
  std::string flightrecz = Get(port, "/flightrecz", 200);
  ExpectContains(flightrecz, "\"kind\":", "/flightrecz");
  ExpectContains(flightrecz, "debugz_probe", "/flightrecz");

  // --- /timelinez: recent sampled request timelines ---
  std::string timelinez = Get(port, "/timelinez", 200);
  ExpectContains(timelinez, "\"request_id\":", "/timelinez");
  ExpectContains(timelinez, "\"stages\":[", "/timelinez");

  // --- /profilez: a 1s capture while load is running must see stacks ---
  std::string profilez = Get(port, "/profilez?seconds=1&hz=397", 200);
  Expect(!profilez.empty(), "/profilez empty");
  if (profilez.rfind("#", 0) == 0) {
    Fail("/profilez captured no samples under load: " +
         profilez.substr(0, 120));
  } else {
    // The decode-heavy load must attribute samples to llm.* spans, not
    // only <unattributed>.
    ExpectContains(profilez, "llm.", "/profilez stacks");
  }

  // --- /healthz: 200 while clean, 503 after a forced health trip ---
  std::string healthz = Get(port, "/healthz", 200);
  ExpectContains(healthz, "\"status\":\"ok\"", "/healthz");

  {
    ckpt::HealthOptions hopts;
    hopts.max_retries = 3;
    ckpt::HealthGuard guard(hopts, "debugz_probe");
    guard.NoteStep(42);
    double nan = std::strtod("nan", nullptr);
    // Recoverable trip (rollback available, retries remain): counts and
    // publishes without aborting the process.
    bool retry = guard.OnUnhealthy(nan, 1.0, /*can_rollback=*/true);
    Expect(retry, "OnUnhealthy should ask for a rollback retry");
  }
  std::string sick = Get(port, "/healthz", 503);
  ExpectContains(sick, "\"status\":\"unhealthy\"", "/healthz after trip");
  ExpectContains(sick, "ckpt.health", "/healthz after trip");
  ExpectContains(sick, "step 42", "/healthz after trip");
  ExpectContains(sick, "debugz_probe", "/healthz after trip");
  ckpt::ResetCkptHealthzForTest();
  Get(port, "/healthz", 200);

  stop.store(true);
  for (auto& c : clients) c.join();

  int served = completed.load();
  std::printf("debugz_probe: %d requests served during scrape pass\n", served);
  Expect(served > 0, "no requests completed");

  if (g_failures > 0) {
    std::fprintf(stderr, "debugz_probe: FAIL (%d check(s))\n", g_failures);
    return 1;
  }
  std::printf("debugz_probe: PASS\n");
  return 0;
}
