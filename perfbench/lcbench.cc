// lcbench: one benchmark of the trained LC-Rec system.
//
// Builds the paper's system in-process — a synthetic dataset, LcRec::Fit
// (RQ-VAE + uniform semantic mapping index, extended-vocab MiniLlm,
// alignment tuning) and a loopback cluster of a net::Router in front of
// two serve::Server workers behind net::RpcServer — then drives one named
// workload against it:
//
//   decode_bound  open loop over client -> router -> worker; every history
//                 distinct, half the requests deadline-bearing
//   offline_eval  the paper's full-ranking evaluation on one thread, no
//                 sockets, through llm::GenerateItemsBatch
//
// --trace 0 measures the end-to-end metrics; --trace 1 records spans
// around the benchmark's own calls into each module's public functions
// and reports the per-layer metrics and layer table instead. Every run
// checks the answers it got and writes one JSON result to --out; run.py
// (which reads the frozen rates from spec.json) turns that into the
// benchmark's result line. Direct use:
//
//   lcbench --workload decode_bound --seed 1 --seconds 40 --trace 0
//           --rate-light 120 --rate-heavy 240 --limit-ms 100
//           --ladder-lo 100 --ladder-hi 2000 --ladder-step 0.05
//           --out result.json

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "harness.h"
#include "llm/batch.h"
#include "llm/generate.h"
#include "net/codec.h"
#include "net/router.h"
#include "net/rpc.h"
#include "net/service.h"
#include "obs/flops.h"
#include "obs/sync.h"
#include "obs/trace.h"
#include "rec/lcrec.h"
#include "rec/metrics.h"
#include "rec/recommender.h"
#include "serve/server.h"

namespace {

using namespace lcrec;  // NOLINT: one-file benchmark program
namespace pb = perfbench;

// ---------------------------------------------------------------------------
// The system under test. Fixed for every workload and seed: the seed
// shapes the traffic, not the model, so quality and cost are comparable
// across seeds.

constexpr data::Domain kDomain = data::Domain::kGames;
constexpr double kDatasetScale = 0.2;
constexpr uint64_t kDatasetSeed = 7;
constexpr int kTuningEpochs = 1;
constexpr int kRqVaeEpochs = 40;
constexpr int kWorkers = 2;
constexpr int kTopN = 10;
/// Deadline carried by half the decode_bound requests: long enough never
/// to expire, so it only selects serve's deadline-aware decode path.
constexpr double kLongDeadlineMs = 60000.0;
/// Lanes of the offline batched ranker (serve's default batch width).
constexpr int kOfflineLanes = 8;
/// Prompts replayed through llm/quant for the per-layer numbers and the
/// exact counts.
constexpr size_t kReplayPrompts = 32;
/// Measured rounds per run (each a light block, a heavy block, rate
/// probes and a saturation window) and staircase probes per round.
constexpr int kRounds = 10;
constexpr int kProbesPerRound = 2;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

rec::LcRecConfig SystemConfig() {
  rec::LcRecConfig cfg = rec::LcRecConfig::Small();
  cfg.trainer.epochs = kTuningEpochs;
  cfg.rqvae.epochs = kRqVaeEpochs;
  return cfg;
}

double NowUs() { return obs::NowMicros(); }

/// Waits until `due_us`: sleeps to within kSpinUs of it, then yields in
/// a loop, so the generator's lateness is not the kernel's timer slack.
void WaitUntil(double due_us) {
  constexpr double kSpinUs = 100.0;
  double wait = due_us - NowUs();
  if (wait > kSpinUs) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(wait - kSpinUs)));
  }
  while (NowUs() < due_us) std::this_thread::yield();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int SenderThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

// ---------------------------------------------------------------------------
// Tracing. Spans live in memory (pb::SpanLog) and are written out once at
// the end. Only the benchmark's own code records them: around its calls
// into net (codec, RPC), serve (Recommend, and the stage breakdown each
// response carries), tasks (the PromptBuilder it passes in) and llm.

pb::SpanLog* g_spans = nullptr;
std::atomic<bool> g_tracing{false};
thread_local uint64_t t_request = 0;  // request the current thread serves
thread_local uint64_t t_parent = 0;   // span that encloses nested calls
thread_local std::vector<pb::Span> t_prompt_spans;

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

uint64_t EmitSpan(const char* name, double start, double end, uint64_t parent,
                  uint64_t request, uint64_t id = 0) {
  if (id == 0) id = g_spans->NextId();
  g_spans->Add({id, parent, request, name, start, end});
  return id;
}

/// Links a worker-side span to the client request that caused it. The
/// wire carries no trace id, so the client registers the request's user
/// hash before its call; the worker looks it up. Identical concurrent
/// requests may swap parents, which leaves per-layer sums unchanged.
class InflightIndex {
 public:
  void Put(uint64_t hash, uint64_t request, uint64_t span) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.emplace(hash, std::make_pair(request, span));
  }
  void Drop(uint64_t hash, uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [lo, hi] = map_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.first == request) {
        map_.erase(it);
        return;
      }
    }
  }
  std::pair<uint64_t, uint64_t> Find(uint64_t hash) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(hash);
    return it == map_.end() ? std::make_pair(uint64_t{0}, uint64_t{0})
                            : it->second;
  }

 private:
  std::mutex mu_;
  std::unordered_multimap<uint64_t, std::pair<uint64_t, uint64_t>> map_;
};
InflightIndex g_inflight;

std::string StageSpanName(const char* stage) {
  return std::string("serve.stage.") + (stage ? stage : "unknown");
}

/// The Recommend service of net::RegisterRecommendService with spans
/// around each call (identical behaviour while tracing is off).
void RegisterTracedService(net::RpcServer* rpc, serve::Server* server) {
  rpc->Handle(net::kMethodPing,
              [](const std::string& request, std::string* response,
                 std::string* /*error*/) {
                *response = request;
                return true;
              });
  rpc->Handle(net::kMethodRecommend, [server](const std::string& request,
                                              std::string* response,
                                              std::string* error) {
    if (!Tracing()) {
      serve::RecommendRequest req;
      if (!net::DecodeRecommendRequest(request, &req, error)) return false;
      *response = net::EncodeRecommendResponse(server->Recommend(req));
      return true;
    }
    double t0 = NowUs();
    serve::RecommendRequest req;
    if (!net::DecodeRecommendRequest(request, &req, error)) return false;
    double t1 = NowUs();
    auto [rid, parent] = g_inflight.Find(net::Router::UserHash(req));
    uint64_t handler_id = g_spans->NextId();
    uint64_t recommend_id = g_spans->NextId();
    t_request = rid;
    t_parent = recommend_id;
    t_prompt_spans.clear();
    serve::RecommendResponse resp = server->Recommend(req);
    double t2 = NowUs();
    *response = net::EncodeRecommendResponse(resp);
    double t3 = NowUs();
    EmitSpan("worker.handler", t0, t3, parent, rid, handler_id);
    EmitSpan("net.codec", t0, t1, handler_id, rid);
    EmitSpan("serve.recommend", t1, t2, handler_id, rid, recommend_id);
    EmitSpan("net.codec", t2, t3, handler_id, rid);
    uint64_t build_id = 0;
    double build_end = 0.0;
    for (const obs::StageSpan& s : resp.debug.stages) {
      std::string name = StageSpanName(s.stage);
      uint64_t id = g_spans->NextId();
      g_spans->Add({id, recommend_id, rid, name, s.start_us,
                    s.start_us + s.dur_us});
      if (name == "serve.stage.build") {
        build_id = id;
        build_end = s.start_us + s.dur_us;
      }
    }
    for (pb::Span& p : t_prompt_spans) {
      if (build_id != 0 && p.end_us <= build_end + 1.0) p.parent = build_id;
      g_spans->Add(std::move(p));
    }
    t_prompt_spans.clear();
    t_request = t_parent = 0;
    return true;
  });
}

// ---------------------------------------------------------------------------
// Set-up: dataset, Fit, cluster start, until the first request is served.

struct Deployment {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<rec::LcRec> model;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::unique_ptr<net::RpcServer>> rpcs;
  std::unique_ptr<net::Router> router;
  double dataset_s = 0.0, fit_s = 0.0, cluster_s = 0.0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Stop(); }

  void Stop() {
    if (router) router->Stop();
    for (auto& r : rpcs) r->Stop();
    for (auto& s : servers) s->Stop();
  }
  double total_s() const { return dataset_s + fit_s + cluster_s; }
};

serve::PromptBuilder MakePromptBuilder(const rec::LcRec* model) {
  return [model](const std::vector<int>& history) {
    if (!Tracing()) return model->PromptTokens(history);
    double t0 = NowUs();
    std::vector<int> prompt = model->PromptTokens(history);
    double t1 = NowUs();
    t_prompt_spans.push_back(
        {g_spans->NextId(), t_parent, t_request, "tasks.prompt", t0, t1});
    return prompt;
  };
}

std::unique_ptr<Deployment> SetUp(bool traced_service, std::string* error) {
  auto d = std::make_unique<Deployment>();
  double t0 = NowUs();
  d->dataset = std::make_unique<data::Dataset>(
      data::Dataset::Make(kDomain, kDatasetScale, kDatasetSeed));
  double t1 = NowUs();
  d->model = std::make_unique<rec::LcRec>(SystemConfig());
  d->model->Fit(*d->dataset);
  double t2 = NowUs();
  int threads = SenderThreads();
  net::RouterOptions ropts;
  for (int w = 0; w < kWorkers; ++w) {
    serve::ServerOptions sopts;
    sopts.beam_size = d->model->config().beam_size;
    d->servers.push_back(std::make_unique<serve::Server>(
        d->model->model(), d->model->trie(), d->model->token_map(),
        MakePromptBuilder(d->model.get()), sopts));
    net::RpcServerOptions wopts;
    wopts.dispatch_threads = threads;
    d->rpcs.push_back(std::make_unique<net::RpcServer>(wopts));
    if (traced_service) {
      RegisterTracedService(d->rpcs.back().get(), d->servers.back().get());
    } else {
      net::RegisterRecommendService(d->rpcs.back().get(),
                                    d->servers.back().get());
    }
    if (!d->rpcs.back()->Start(error)) return nullptr;
    ropts.workers.push_back("127.0.0.1:" +
                            std::to_string(d->rpcs.back()->port()));
  }
  ropts.server.dispatch_threads = threads;
  ropts.client.max_retries = 2;
  ropts.client.backoff_ms = 1.0;
  d->router = std::make_unique<net::Router>(ropts);
  if (!d->router->Start(error)) return nullptr;
  net::RpcClientOptions copts;
  copts.port = d->router->port();
  net::RpcClient probe(copts);
  if (!net::CallPing(&probe, error)) return nullptr;
  double t3 = NowUs();
  d->dataset_s = (t1 - t0) / 1e6;
  d->fit_s = (t2 - t1) / 1e6;
  d->cluster_s = (t3 - t2) / 1e6;
  return d;
}

/// Adds the counters of `d` to `into`.
void AddStats(serve::ServerStats* into, const serve::ServerStats& d) {
  into->requests += d.requests;
  into->completed += d.completed;
  into->decoded += d.decoded;
  into->cache_hits += d.cache_hits;
  into->coalesced += d.coalesced;
  into->inline_fast_path += d.inline_fast_path;
  into->batch_ticks += d.batch_ticks;
  into->degraded_budget_capped += d.degraded_budget_capped;
  into->degraded_stale_cache += d.degraded_stale_cache;
  into->degraded_popularity += d.degraded_popularity;
}

serve::ServerStats SumStats(const Deployment& d) {
  serve::ServerStats t;
  for (const auto& s : d.servers) AddStats(&t, s->stats());
  return t;
}

/// Counters of `b` minus those of `a`.
serve::ServerStats StatsDelta(const serve::ServerStats& a,
                              const serve::ServerStats& b) {
  serve::ServerStats d;
  d.requests = b.requests - a.requests;
  d.completed = b.completed - a.completed;
  d.decoded = b.decoded - a.decoded;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.coalesced = b.coalesced - a.coalesced;
  d.inline_fast_path = b.inline_fast_path - a.inline_fast_path;
  d.batch_ticks = b.batch_ticks - a.batch_ticks;
  d.degraded_budget_capped = b.degraded_budget_capped - a.degraded_budget_capped;
  d.degraded_stale_cache = b.degraded_stale_cache - a.degraded_stale_cache;
  d.degraded_popularity = b.degraded_popularity - a.degraded_popularity;
  return d;
}

int64_t MutexWaitUs() {
  int64_t total = 0;
  for (const obs::MutexStatsRow& r : obs::MutexStatsSnapshot()) {
    total += r.wait_total_us;
  }
  return total;
}

bool SameItems(const std::vector<llm::ScoredItem>& a,
               const std::vector<llm::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].logprob, &b[i].logprob, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t HashInts(const std::vector<int>& v) {
  uint64_t h = 1469598103934665603ULL;
  for (int x : v) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(x));
    h *= 1099511628211ULL;
  }
  return h ^ v.size();
}

// ---------------------------------------------------------------------------
// Traffic. The benchmark generates every input from --seed; the system
// only ever sees the resulting histories.

struct Request {
  std::vector<int> history;
  double deadline_ms = 0.0;
  int user = -1;  // test user whose context this is, or -1 (generated)
};

class Traffic {
 public:
  virtual ~Traffic() = default;
  virtual std::vector<Request> Take(size_t n) = 0;
};

/// decode_bound: random histories over the trained catalog with lengths
/// drawn from the test contexts' lengths. Each one renders a prompt never
/// seen before in the run (nor any test user's), so no request can be a
/// cache hit or join an in-flight twin. Every second request carries the
/// long deadline.
class DistinctTraffic : public Traffic {
 public:
  DistinctTraffic(const rec::LcRec& model, const data::Dataset& ds,
                  uint64_t seed)
      : model_(model), rng_(seed * 7919 + 11), items_(ds.num_items()) {
    for (int u = 0; u < ds.num_users(); ++u) {
      std::vector<int> ctx = ds.TestContext(u);
      lengths_.push_back(static_cast<int>(ctx.size()));
      seen_.insert(HashInts(model.PromptTokens(ctx)));
    }
  }
  std::vector<Request> Take(size_t n) override {
    std::vector<Request> out;
    out.reserve(n);
    while (out.size() < n) {
      Request r;
      int len = lengths_[static_cast<size_t>(
          rng_.Below(static_cast<int64_t>(lengths_.size())))];
      for (int i = 0; i < len; ++i) {
        r.history.push_back(static_cast<int>(rng_.Below(items_)));
      }
      if (!seen_.insert(HashInts(model_.PromptTokens(r.history))).second) {
        continue;
      }
      r.deadline_ms = (issued_++ % 2 == 1) ? kLongDeadlineMs : 0.0;
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  const rec::LcRec& model_;
  core::Rng rng_;
  int64_t items_;
  std::vector<int> lengths_;
  std::unordered_set<uint64_t> seen_;
  uint64_t issued_ = 0;
};

/// offline_eval: test users' contexts, each request a user drawn
/// uniformly.
class UserTraffic : public Traffic {
 public:
  UserTraffic(const data::Dataset& ds, uint64_t seed)
      : ds_(ds), rng_(seed * 104729 + 3) {}
  std::vector<Request> Take(size_t n) override {
    std::vector<Request> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Request q;
      q.user = static_cast<int>(rng_.Below(ds_.num_users()));
      q.history = ds_.TestContext(q.user);
      out.push_back(std::move(q));
    }
    return out;
  }

 private:
  const data::Dataset& ds_;
  core::Rng rng_;
};

// ---------------------------------------------------------------------------
// Phases. A phase is a batch of requests offered open loop at a fixed
// rate (or closed loop); its samples are timed from each due time.

struct Outcome {
  pb::OpenLoopSample sample;
  double server_ms = 0.0;  // worker-reported latency (online only)
  bool wire = false;       // answered over the cluster
};

struct PhaseResult {
  std::string name;
  double rate = 0.0;
  size_t offered = 0;  // requests scheduled
  bool aborted = false;
  std::vector<Outcome> outcomes;  // one per request sent
  pb::OpenLoopSummary summary;
  double wall_s = 0.0;
  double prompt_us = 0.0;  // offline: summed PromptTokens time
  size_t prompts = 0;      // offline: PromptTokens calls
};

/// The answer checks shared by every phase: each answer is compared
/// with an independent offline computation.
struct Checks {
  std::mutex mu;
  std::vector<std::string> errors;
  std::atomic<int64_t> compared{0};
  void Fail(const std::string& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (errors.size() < 20) errors.push_back(e);
  }
};

/// Everything a workload needs from one deployment.
struct Env {
  Deployment* dep = nullptr;
  const std::vector<std::vector<llm::ScoredItem>>* topk = nullptr;  // TopK per test user
  Checks* checks = nullptr;
  int senders = 1;
  // decode_bound: a sample of (history, answer) pairs for the GenerateItems check
  std::mutex sample_mu;
  std::vector<std::pair<std::vector<int>, std::vector<llm::ScoredItem>>> sampled;
  std::atomic<int64_t> request_ids{1};
};

bool Answer(net::RpcClient* client, const Request& q, uint64_t rid,
            double due_us, serve::RecommendResponse* resp, double* start_us,
            double* end_us) {
  serve::RecommendRequest req;
  req.history = q.history;
  req.top_n = kTopN;
  req.deadline_ms = q.deadline_ms;
  std::string error;
  *start_us = NowUs();
  if (!Tracing()) {
    bool ok = net::CallRecommend(client, req, resp, &error);
    *end_us = NowUs();
    return ok;
  }
  uint64_t root = g_spans->NextId();
  uint64_t rpc_id = g_spans->NextId();
  uint64_t hash = net::Router::UserHash(req);
  double t0 = *start_us;
  std::string payload = net::EncodeRecommendRequest(req);
  double t1 = NowUs();
  g_inflight.Put(hash, rid, rpc_id);
  std::string reply;
  bool ok = client->Call(net::kMethodRecommend, payload, &reply, &error);
  double t2 = NowUs();
  g_inflight.Drop(hash, rid);
  if (ok) ok = net::DecodeRecommendResponse(reply, resp, &error);
  double t3 = NowUs();
  *end_us = t3;
  EmitSpan("request", due_us, t3, 0, rid, root);
  EmitSpan("gen.late", due_us, std::max(due_us, t0), root, rid);
  EmitSpan("net.codec", t0, t1, root, rid);
  EmitSpan("net.rpc", t1, t2, root, rid, rpc_id);
  EmitSpan("net.codec", t2, t3, root, rid);
  return ok;
}

/// Checks one online answer; returns whether it counts as a success
/// (transport ok, kOk, full tier, and equal to the offline answer where
/// one is known).
bool CheckOnline(Env& env, const Request& q, bool transport_ok,
                 const serve::RecommendResponse& resp, size_t index) {
  if (!transport_ok || resp.status != serve::Status::kOk ||
      resp.degrade != serve::DegradeLevel::kFull || resp.items.empty()) {
    return false;
  }
  if (q.user >= 0) {
    env.checks->compared.fetch_add(1, std::memory_order_relaxed);
    if (!SameItems(resp.items, (*env.topk)[static_cast<size_t>(q.user)])) {
      env.checks->Fail("wire answer for test user " + std::to_string(q.user) +
                       " differs from LcRec::TopK");
    }
  } else if (index % 97 == 0) {
    std::lock_guard<std::mutex> lock(env.sample_mu);
    if (env.sampled.size() < 48) env.sampled.emplace_back(q.history, resp.items);
  }
  return true;
}

/// Sends `reqs` over the cluster from the sender threads. Open loop
/// (rate > 0): request i is due at a fixed schedule, and a sender that
/// starts one more than `abort_ms` late stops the phase (the system is
/// past capacity). Closed loop (rate == 0): each sender issues its next
/// request as soon as the previous returns, until `seconds` elapse.
/// Unsent requests are not counted as sent.
PhaseResult RunOnline(Env& env, net::RpcClient* client, const char* name,
                      const std::vector<Request>& reqs, double rate,
                      double limit_ms, double abort_ms, double seconds = 0.0) {
  PhaseResult pr;
  pr.name = name;
  pr.offered = reqs.size();
  const bool open = rate > 0.0;
  std::vector<double> due =
      open ? pb::UniformSchedule(NowUs() + 2000.0, rate, reqs.size())
           : std::vector<double>(reqs.size(), 0.0);
  std::vector<Outcome> out(reqs.size());
  std::vector<char> sent(reqs.size(), 0);
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};
  const double w0 = NowUs();
  const double stop = w0 + seconds * 1e6;
  std::vector<std::thread> threads;
  for (int t = 0; t < env.senders; ++t) {
    threads.emplace_back([&] {
      while (!abort.load(std::memory_order_relaxed) && (open || NowUs() < stop)) {
        size_t i = next.fetch_add(1);
        if (i >= reqs.size()) break;
        if (open) {
          WaitUntil(due[i]);
        } else {
          due[i] = NowUs();
        }
        if (NowUs() - due[i] > abort_ms * 1000.0) {
          abort.store(true);
          break;
        }
        uint64_t rid = static_cast<uint64_t>(env.request_ids.fetch_add(1));
        serve::RecommendResponse resp;
        double start = 0.0, end = 0.0;
        bool ok = Answer(client, reqs[i], rid, due[i], &resp, &start, &end);
        Outcome& o = out[i];
        o.sample = {due[i], start, end, CheckOnline(env, reqs[i], ok, resp, i)};
        o.server_ms = resp.latency_ms;
        o.wire = true;
        sent[i] = 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  pr.wall_s = (NowUs() - w0) / 1e6;
  pr.aborted = abort.load();
  std::vector<pb::OpenLoopSample> samples;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (!sent[i]) continue;
    pr.outcomes.push_back(out[i]);
    samples.push_back(out[i].sample);
  }
  pr.summary = pb::SummarizeOpenLoop(samples, limit_ms);
  if (pr.aborted) pr.summary.meets_limit = false;
  pr.rate = open ? rate : static_cast<double>(samples.size()) / pr.wall_s;
  return pr;
}

/// Closed loop for `seconds` (no latency limit, never aborts).
PhaseResult RunClosed(Env& env, net::RpcClient* client, const char* name,
                      const std::vector<Request>& reqs, double seconds) {
  return RunOnline(env, client, name, reqs, 0.0, 1e12, 1e12, seconds);
}

/// The offline ranker: requests (test users) arrive on a schedule; one
/// thread repeatedly takes every arrived request (up to kOfflineLanes),
/// builds the prompts and ranks them in one llm::GenerateItemsBatch.
PhaseResult RunOffline(Env& env, const char* name,
                       const std::vector<Request>& reqs, double rate,
                       double limit_ms, double abort_ms) {
  const rec::LcRec& m = *env.dep->model;
  PhaseResult pr;
  pr.name = name;
  pr.rate = rate;
  pr.offered = reqs.size();
  std::vector<double> due =
      pb::UniformSchedule(NowUs() + 2000.0, rate, reqs.size());
  double w0 = NowUs();
  std::vector<pb::OpenLoopSample> samples;
  size_t i = 0;
  while (i < reqs.size()) {
    WaitUntil(due[i]);
    double start = NowUs();
    if (start - due[i] > abort_ms * 1000.0) {
      pr.aborted = true;
      break;
    }
    size_t j = i;
    while (j < reqs.size() && j - i < static_cast<size_t>(kOfflineLanes) &&
           due[j] <= start) {
      ++j;
    }
    j = std::max(j, i + 1);
    std::vector<std::vector<int>> prompts;
    for (size_t k = i; k < j; ++k) {
      prompts.push_back(m.PromptTokens(reqs[k].history));
    }
    double t_prompt = NowUs();
    pr.prompt_us += t_prompt - start;
    pr.prompts += j - i;
    std::vector<std::vector<llm::ScoredItem>> ranked = llm::GenerateItemsBatch(
        m.model(), prompts, m.trie(), m.token_map(), m.config().beam_size,
        kTopN);
    double end = NowUs();
    for (size_t k = i; k < j; ++k) {
      const std::vector<llm::ScoredItem>& items = ranked[k - i];
      bool ok = !items.empty();
      env.checks->compared.fetch_add(1, std::memory_order_relaxed);
      if (!SameItems(items, (*env.topk)[static_cast<size_t>(reqs[k].user)])) {
        env.checks->Fail("batched answer for test user " +
                         std::to_string(reqs[k].user) +
                         " differs from sequential LcRec::TopK");
        ok = false;
      }
      pb::OpenLoopSample s{due[k], start, end, ok};
      samples.push_back(s);
      pr.outcomes.push_back({s, 0.0, false});
      if (Tracing()) {
        uint64_t rid = static_cast<uint64_t>(env.request_ids.fetch_add(1));
        uint64_t root = EmitSpan("request", due[k], end, 0, rid);
        EmitSpan("gen.late", due[k], start, root, rid);
        EmitSpan("tasks.prompt", start, t_prompt, root, rid);
        EmitSpan("llm.generate_batch", t_prompt, end, root, rid);
      }
    }
    i = j;
  }
  pr.wall_s = (NowUs() - w0) / 1e6;
  pr.summary = pb::SummarizeOpenLoop(samples, limit_ms);
  if (pr.aborted) pr.summary.meets_limit = false;
  return pr;
}

/// Pools a rate's blocks into one phase (the manifest's pooled p99 and
/// the per-layer numbers read it).
PhaseResult Merge(const char* name, const std::vector<PhaseResult>& blocks,
                  double limit_ms) {
  PhaseResult m;
  m.name = name;
  std::vector<pb::OpenLoopSample> samples;
  for (const PhaseResult& b : blocks) {
    m.rate = b.rate;
    m.offered += b.offered;
    m.aborted = m.aborted || b.aborted;
    m.wall_s += b.wall_s;
    m.prompt_us += b.prompt_us;
    m.prompts += b.prompts;
    for (const Outcome& o : b.outcomes) {
      m.outcomes.push_back(o);
      samples.push_back(o.sample);
    }
  }
  m.summary = pb::SummarizeOpenLoop(samples, limit_ms);
  return m;
}

// ---------------------------------------------------------------------------
// Results.

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "1e300";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string QuantileJson(const pb::Quantile& q) {
  return "{\"requested\":" + JsonNum(q.requested) + ",\"used\":" +
         JsonNum(q.used) + ",\"value\":" + JsonNum(q.value) + ",\"n\":" +
         std::to_string(q.n) + ",\"beyond\":" + std::to_string(q.beyond) + "}";
}

std::string PhaseJson(const PhaseResult& p) {
  const pb::OpenLoopSummary& s = p.summary;
  return "{\"name\":" + JsonStr(p.name) + ",\"rate\":" + JsonNum(p.rate) +
         ",\"offered\":" + std::to_string(p.offered) + ",\"sent\":" +
         std::to_string(s.sent) + ",\"succeeded\":" +
         std::to_string(s.succeeded) + ",\"failed\":" +
         std::to_string(s.failed) + ",\"aborted\":" +
         (p.aborted ? "true" : "false") + ",\"meets_limit\":" +
         (s.meets_limit ? "true" : "false") + ",\"wall_s\":" +
         JsonNum(p.wall_s) + ",\"mean_ms\":" + JsonNum(s.mean_ms) +
         ",\"p50_ms\":" + QuantileJson(s.p50_ms) +
         ",\"p90_ms\":" + QuantileJson(s.p90_ms) +
         ",\"p99_ms\":" + QuantileJson(s.p99_ms) + ",\"late_p99_ms\":" +
         QuantileJson(s.late_p99_ms) + ",\"late_max_ms\":" +
         JsonNum(s.late_max_ms) + ",\"backlog_growth_ms\":" +
         JsonNum(s.backlog_growth_ms) + "}";
}

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  double rate_light = 0.0, rate_heavy = 0.0, limit_ms = 0.0;
  double ladder_lo = 0.0, ladder_hi = 0.0, ladder_step = 0.05;
  std::string out;
  std::string spans_out;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") f->workload = v;
    else if (k == "--seed") f->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") f->seconds = std::atof(v);
    else if (k == "--trace") f->trace = std::atoi(v) != 0;
    else if (k == "--rate-light") f->rate_light = std::atof(v);
    else if (k == "--rate-heavy") f->rate_heavy = std::atof(v);
    else if (k == "--limit-ms") f->limit_ms = std::atof(v);
    else if (k == "--ladder-lo") f->ladder_lo = std::atof(v);
    else if (k == "--ladder-hi") f->ladder_hi = std::atof(v);
    else if (k == "--ladder-step") f->ladder_step = std::atof(v);
    else if (k == "--out") f->out = v;
    else if (k == "--spans-out") f->spans_out = v;
    else return false;
  }
  return !f->workload.empty() && !f->out.empty() && f->rate_light > 0 &&
         f->rate_heavy > 0 && f->limit_ms > 0 && f->ladder_lo > 0 &&
         f->ladder_hi > f->ladder_lo && f->ladder_step > 0 &&
         f->ladder_step <= 0.10 && f->seconds > 0;
}

/// Layer table of a traced run: self time per span name, per request and
/// as a share of the summed end-to-end ("request") span time. Container
/// spans only group module spans: "request" (due time to answer),
/// "net.rpc" (the client's call, which holds the router hop, the sockets
/// and the worker), "worker.handler" and "serve.recommend". Their self
/// time is request time that no module span explains; its sum is the
/// unattributed share, and each container's part gets its own row.
struct LayerRow {
  std::string name;
  double us_per_req = 0.0;
  double share = 0.0;
};

std::vector<LayerRow> LayerTable(const std::vector<pb::Span>& spans,
                                 double* unattributed_share) {
  static const std::unordered_set<std::string> kContainers = {
      "request", "net.rpc", "worker.handler", "serve.recommend"};
  std::map<std::string, double> self = pb::SelfTimeUsByName(spans);
  double e2e = 0.0;
  size_t n = 0;
  for (const pb::Span& s : spans) {
    if (s.name == "request") {
      e2e += s.end_us - s.start_us;
      ++n;
    }
  }
  std::vector<LayerRow> rows;
  *unattributed_share = 0.0;
  if (n == 0 || e2e <= 0.0) return rows;
  for (const auto& [name, us] : self) {
    const bool container = kContainers.count(name) != 0;
    if (container) *unattributed_share += us / e2e;
    rows.push_back({container ? name + " (self)" : name,
                    us / static_cast<double>(n), us / e2e});
  }
  std::sort(rows.begin(), rows.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.share > b.share; });
  return rows;
}

std::string Hostname() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: lcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --rate-light R --rate-heavy R --limit-ms L "
                 "--ladder-lo R --ladder-hi R --ladder-step F --out PATH\n");
    return 2;
  }
  const std::string& wl = flags.workload;
  const bool online = wl == "decode_bound";
  if (!online && wl != "offline_eval") {
    std::fprintf(stderr, "lcbench: unknown workload %s\n", wl.c_str());
    return 2;
  }
  const std::string load_at_start = LoadAverage();
  pb::SpanLog spans(flags.trace);
  g_spans = &spans;
  Checks checks;
  const double S = flags.seconds;

  // --- set-up, several times; the last deployment serves the run.
  std::vector<double> setup_s, dataset_s, fit_s, cluster_s;
  std::unique_ptr<Deployment> dep;
  std::vector<llm::ScoredItem> first_answer;
  for (int i = 0; i < kSetups; ++i) {
    dep.reset();
    std::string error;
    dep = SetUp(flags.trace, &error);
    if (!dep) {
      std::fprintf(stderr, "lcbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(dep->total_s());
    dataset_s.push_back(dep->dataset_s);
    fit_s.push_back(dep->fit_s);
    cluster_s.push_back(dep->cluster_s);
    std::vector<llm::ScoredItem> a =
        dep->model->TopK(dep->dataset->TestContext(0), kTopN);
    if (i == 0) {
      first_answer = a;
    } else if (!SameItems(a, first_answer)) {
      checks.Fail("set-up " + std::to_string(i) +
                  " trained a different model than set-up 0");
    }
  }
  const data::Dataset& ds = *dep->dataset;
  const rec::LcRec& model = *dep->model;
  const int users = ds.num_users();

  // Offline reference answers: sequential LcRec::TopK per test user.
  std::vector<std::vector<llm::ScoredItem>> topk(static_cast<size_t>(users));
  for (int u = 0; u < users; ++u) {
    topk[static_cast<size_t>(u)] = model.TopK(ds.TestContext(u), kTopN);
  }
  rec::RankingMetrics reference = rec::EvaluateGenerative(
      [&model](const std::vector<int>& h) { return model.TopKIds(h, kTopN); },
      ds);

  Env env;
  env.dep = dep.get();
  env.topk = &topk;
  env.checks = &checks;
  env.senders = SenderThreads();

  net::RpcClientOptions copts;
  copts.port = dep->router->port();
  copts.max_retries = 2;
  copts.backoff_ms = 1.0;
  net::RpcClient client(copts);

  std::unique_ptr<Traffic> traffic;
  if (online) {
    traffic = std::make_unique<DistinctTraffic>(model, ds, flags.seed);
  } else {
    traffic = std::make_unique<UserTraffic>(ds, flags.seed);
  }

  std::vector<Request> test_users;
  for (int u = 0; u < users; ++u) {
    Request q;
    q.user = u;
    q.history = ds.TestContext(u);
    test_users.push_back(std::move(q));
  }

  // --- the deterministic part: served replica of the evaluation, an
  // open-loop warm-up, then kRounds light and heavy blocks. Their requests
  // are all drawn before any probe, so they are the same on every run of
  // a seed whatever the probes take. A traced run records spans in the
  // replica and the blocks only.
  serve::ServerStats det = SumStats(*dep);  // becomes a delta below
  const int64_t mutex0 = MutexWaitUs();
  const double abort_ms = std::max(4.0 * flags.limit_ms, 200.0);
  auto open_loop = [&](const char* name, const std::vector<Request>& reqs,
                       double rate) {
    return online ? RunOnline(env, &client, name, reqs, rate, flags.limit_ms,
                              abort_ms)
                  : RunOffline(env, name, reqs, rate, flags.limit_ms, abort_ms);
  };
  g_tracing.store(flags.trace);
  std::vector<PhaseResult> phases;
  std::vector<std::vector<llm::ScoredItem>> served(static_cast<size_t>(users));
  int replica_passes = wl == "offline_eval" ? 2 : 1;
  for (int pass = 0; pass < replica_passes; ++pass) {
    PhaseResult r = RunClosed(env, &client, "replica", test_users, 1e9);
    if (r.outcomes.size() != test_users.size()) {
      checks.Fail("served replica did not answer every test user");
    }
    phases.push_back(std::move(r));
  }
  g_tracing.store(false);
  // Answers for the quality metrics of the online workloads: one more
  // sequential pass through the wire (cache hits), kept per user.
  for (int u = 0; u < users && online; ++u) {
    serve::RecommendRequest req;
    req.history = ds.TestContext(u);
    req.top_n = kTopN;
    serve::RecommendResponse resp;
    std::string error;
    if (!net::CallRecommend(&client, req, &resp, &error)) {
      checks.Fail("quality pass: " + error);
      continue;
    }
    served[static_cast<size_t>(u)] = resp.items;
  }
  // Each rate gets >= 1000 samples over the run, in kRounds blocks.
  const auto light_block = static_cast<size_t>(
      std::ceil(std::max(1000.0, flags.rate_light * 0.25 * S) / kRounds));
  const auto heavy_block = static_cast<size_t>(
      std::ceil(std::max(1000.0, flags.rate_heavy * 0.15 * S) / kRounds));
  std::vector<Request> warm_reqs = traffic->Take(
      static_cast<size_t>(std::max(200.0, flags.rate_light * 0.05 * S)));
  std::vector<std::vector<Request>> light_in, heavy_in;
  std::vector<Request> light_reqs, heavy_reqs;
  for (int r = 0; r < kRounds; ++r) {
    light_in.push_back(traffic->Take(light_block));
    light_reqs.insert(light_reqs.end(), light_in.back().begin(), light_in.back().end());
    heavy_in.push_back(traffic->Take(heavy_block));
    heavy_reqs.insert(heavy_reqs.end(), heavy_in.back().begin(), heavy_in.back().end());
  }
  phases.push_back(open_loop("warmup", warm_reqs, flags.rate_light));
  det = StatsDelta(det, SumStats(*dep));

  // A light or heavy block: traced in a traced run; its server counters,
  // CPU time and answers are the measured ones. The serve shares cover
  // these blocks only, the same requests the repeat share is measured on.
  serve::ServerStats win;
  std::vector<double> block_cpu_ms;  // per block: CPU ms per completed request
  const uint64_t table_first_span = spans.NextId();
  auto measured_block = [&](const char* name, const std::vector<Request>& reqs,
                            double rate) {
    const serve::ServerStats s0 = SumStats(*dep);
    const double c0 = CpuSeconds();
    g_tracing.store(flags.trace);
    PhaseResult r = open_loop(name, reqs, rate);
    g_tracing.store(false);
    block_cpu_ms.push_back(1000.0 * (CpuSeconds() - c0) /
                           std::max<double>(1.0, static_cast<double>(r.summary.succeeded)));
    AddStats(&win, StatsDelta(s0, SumStats(*dep)));
    return r;
  };

  // Saturation: closed loop from every sender for a short window (online),
  // or full-ranking passes over every test user, kOfflineLanes at a time.
  std::vector<std::vector<llm::ScoredItem>> batched(static_cast<size_t>(users));
  int64_t full_pass_users = 0;  // offline_eval: users ranked by full passes
  std::vector<double> window_rates;  // per saturation window: completed per second
  std::vector<PhaseResult> closed_windows;
  const double window_s = 0.025 * S;
  auto saturate = [&] {
    if (online) {
      closed_windows.push_back(RunClosed(
          env, &client, "closed",
          traffic->Take(static_cast<size_t>(flags.ladder_hi * window_s * 1.5)),
          window_s));
      const PhaseResult& w = closed_windows.back();
      window_rates.push_back(static_cast<double>(w.summary.succeeded) / w.wall_s);
      return;
    }
    const double t0 = NowUs();
    int64_t done = 0;
    do {
      for (int u0 = 0; u0 < users; u0 += kOfflineLanes) {
        int u1 = std::min(users, u0 + kOfflineLanes);
        std::vector<std::vector<int>> prompts;
        for (int u = u0; u < u1; ++u) {
          prompts.push_back(model.PromptTokens(ds.TestContext(u)));
        }
        std::vector<std::vector<llm::ScoredItem>> r = llm::GenerateItemsBatch(
            model.model(), prompts, model.trie(), model.token_map(),
            model.config().beam_size, kTopN);
        for (int u = u0; u < u1; ++u) {
          batched[static_cast<size_t>(u)] = std::move(r[static_cast<size_t>(u - u0)]);
        }
      }
      done += users;
    } while (NowUs() - t0 < window_s * 1e6);
    full_pass_users += done;
    window_rates.push_back(static_cast<double>(done) / ((NowUs() - t0) / 1e6));
  };

  // --- the measured rounds. Each runs a light block, a heavy block,
  // kProbesPerRound probes of the rate staircase and a saturation window,
  // so every metric samples the whole run, not one stretch of a shared
  // host. The staircase first binary-searches the ladder, then steps one
  // rung at a time around the capacity for the rest of the run.
  std::vector<PhaseResult> light_blocks, heavy_blocks, ladder;
  pb::Staircase stairs(
      pb::GeometricLadder(flags.ladder_lo, flags.ladder_hi, flags.ladder_step));
  const double probe_s = 0.01 * S;
  for (int r = 0; r < kRounds; ++r) {
    light_blocks.push_back(measured_block("light", light_in[static_cast<size_t>(r)],
                                          flags.rate_light));
    heavy_blocks.push_back(measured_block("heavy", heavy_in[static_cast<size_t>(r)],
                                          flags.rate_heavy));
    for (int k = 0; k < kProbesPerRound; ++k) {
      const double rate = stairs.NextRate();
      auto n = static_cast<size_t>(std::max(150.0, rate * probe_s));
      ladder.push_back(open_loop("ladder", traffic->Take(n), rate));
      stairs.Record(ladder.back().summary.meets_limit);
    }
    saturate();
  }
  const uint64_t table_end_span = spans.NextId();
  const PhaseResult light = Merge("light", light_blocks, flags.limit_ms);
  const PhaseResult heavy = Merge("heavy", heavy_blocks, flags.limit_ms);
  AddStats(&det, win);
  const double max_rate = stairs.Estimate();
  const double throughput = pb::Median(window_rates);
  const double peak_rss_mb = PeakRssMb();

  // Price of the tracing itself: one more light block with spans off,
  // then one with spans on (after the measured rounds, so traced and
  // untraced runs of a seed offer the same requests in them).
  PhaseResult untraced_light, traced_light;
  if (flags.trace) {
    untraced_light =
        open_loop("light_untraced", traffic->Take(light_block), flags.rate_light);
    g_tracing.store(true);
    traced_light =
        open_loop("light_traced", traffic->Take(light_block), flags.rate_light);
    g_tracing.store(false);
  }

  rec::RankingMetrics quality;
  for (int u = 0; u < users; ++u) {
    const auto& answer = online ? served[static_cast<size_t>(u)]
                                : batched[static_cast<size_t>(u)];
    std::vector<int> ids;
    for (const llm::ScoredItem& it : answer) ids.push_back(it.item);
    quality.AddRank(rec::RankInList(ids, ds.TestTarget(u)));
    if (!online && !SameItems(answer, topk[static_cast<size_t>(u)])) {
      checks.Fail("full-ranking batch differs from LcRec::TopK for user " +
                  std::to_string(u));
    }
  }
  quality = quality.Mean();
  const int64_t mutex1 = MutexWaitUs();
  if (quality.ndcg10 != reference.ndcg10 || quality.hr10 != reference.hr10) {
    checks.Fail("ndcg10/recall10 of the measured path differ from "
                "rec::EvaluateGenerative over LcRec::TopKIds");
  }

  // --- decode_bound sample: answers equal llm::GenerateItems.
  for (const auto& [history, items] : env.sampled) {
    std::vector<llm::ScoredItem> ref = llm::GenerateItems(
        model.model(), model.PromptTokens(history), model.trie(),
        model.token_map(), model.config().beam_size, kTopN);
    checks.compared.fetch_add(1);
    if (!SameItems(items, ref)) {
      checks.Fail("decode_bound answer differs from llm::GenerateItems");
    }
  }
  if (wl == "decode_bound" && env.sampled.empty()) {
    checks.Fail("decode_bound produced no answers to check");
  }

  // --- traffic properties over the measured requests.
  std::vector<const std::vector<Request>*> measured = {&light_reqs, &heavy_reqs};
  size_t traffic_n = 0, history_repeats = 0, prompt_repeats = 0;
  std::unordered_set<uint64_t> seen_h, seen_p;
  for (const auto* v : measured) {
    for (const Request& q : *v) {
      ++traffic_n;
      if (!seen_h.insert(HashInts(q.history)).second) ++history_repeats;
      if (!seen_p.insert(HashInts(model.PromptTokens(q.history))).second) {
        ++prompt_repeats;
      }
    }
  }
  const double repeat_share =
      traffic_n ? static_cast<double>(history_repeats) / traffic_n : 0.0;
  const double prompt_repeat_share =
      traffic_n ? static_cast<double>(prompt_repeats) / traffic_n : 0.0;
  if (wl == "decode_bound" && (history_repeats != 0 || prompt_repeats != 0)) {
    checks.Fail("decode_bound traffic repeated a history");
  }

  // --- exact counts (must repeat for a seed) and the llm/quant replay
  // on this run's own prompts.
  std::vector<std::vector<int>> replay;
  int64_t prompt_tokens = 0;
  for (const auto* v : measured) {
    for (const Request& q : *v) {
      std::vector<int> p = model.PromptTokens(q.history);
      prompt_tokens += static_cast<int64_t>(p.size());
      if (replay.size() < kReplayPrompts) replay.push_back(std::move(p));
    }
  }
  const int beam = model.config().beam_size;
  std::vector<double> prefill_us, gen_us;
  int64_t replay_tokens = 0;
  int64_t flops0 = obs::TotalFlops();
  for (const auto& p : replay) {
    double t0 = NowUs();
    llm::GenerateItems(model.model(), p, model.trie(), model.token_map(), beam,
                       kTopN);
    gen_us.push_back(NowUs() - t0);
  }
  const int64_t replay_flops = obs::TotalFlops() - flops0;
  for (const auto& p : replay) {
    llm::MiniLlm::KvCache cache = model.model().MakeCache();
    double t0 = NowUs();
    model.model().Forward(cache, p);
    prefill_us.push_back(NowUs() - t0);
    replay_tokens += static_cast<int64_t>(p.size());
  }
  int64_t ticks = 0, lane_ticks = 0;
  std::vector<double> tick_us;
  {
    llm::BatchEngine engine(model.model(), model.trie(), model.token_map(), beam);
    size_t next = 0;
    while (next < replay.size() || !engine.Idle()) {
      while (next < replay.size() && engine.ActiveLanes() < kOfflineLanes) {
        engine.Admit(next, replay[next], kTopN);
        ++next;
      }
      lane_ticks += engine.ActiveLanes();
      double t0 = NowUs();
      engine.Tick();
      tick_us.push_back(NowUs() - t0);
      ++ticks;
    }
  }
  // quant: NextCodes over every valid prefix of the trie.
  std::vector<std::vector<int>> prefixes = {{}};
  for (size_t i = 0; i < prefixes.size(); ++i) {
    for (int c : model.trie().NextCodes(prefixes[i])) {
      std::vector<int> child = prefixes[i];
      child.push_back(c);
      prefixes.push_back(std::move(child));
    }
  }
  double nc0 = NowUs();
  size_t nc_calls = 0, nc_codes = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& p : prefixes) {
      nc_codes += model.trie().NextCodes(p).size();
      ++nc_calls;
    }
  }
  const double next_codes_us = (NowUs() - nc0) / static_cast<double>(nc_calls);
  if (nc_codes != 20 * (prefixes.size() - 1)) {
    checks.Fail("trie walk: NextCodes is not consistent over its own prefixes");
  }

  // net codec over this run's own messages.
  std::vector<std::pair<serve::RecommendRequest, serve::RecommendResponse>> msgs;
  for (size_t i = 0; i < heavy_reqs.size() && msgs.size() < 256; ++i) {
    serve::RecommendRequest req;
    req.history = heavy_reqs[i].history;
    req.top_n = kTopN;
    req.deadline_ms = heavy_reqs[i].deadline_ms;
    serve::RecommendResponse resp;
    resp.items = heavy_reqs[i].user >= 0
                     ? topk[static_cast<size_t>(heavy_reqs[i].user)]
                     : topk[i % topk.size()];
    msgs.emplace_back(std::move(req), std::move(resp));
  }
  double codec0 = NowUs();
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& [req, resp] : msgs) {
      serve::RecommendRequest rq;
      serve::RecommendResponse rs;
      std::string error;
      net::DecodeRecommendRequest(net::EncodeRecommendRequest(req), &rq, &error);
      net::DecodeRecommendResponse(net::EncodeRecommendResponse(resp), &rs, &error);
    }
  }
  const double codec_us = (NowUs() - codec0) / (20.0 * static_cast<double>(msgs.size()));

  // --- assemble.
  // Exact counts: the served replica, the warm-up and the light and heavy
  // blocks. Shares: the light and heavy blocks.
  const double win_req = std::max<double>(1.0, static_cast<double>(win.requests));
  const double cache_hit_share = win.cache_hits / win_req;
  const double coalesced_share = win.coalesced / win_req;

  std::vector<const PhaseResult*> all = {};
  for (const auto& p : phases) all.push_back(&p);
  for (const auto& p : light_blocks) all.push_back(&p);
  for (const auto& p : heavy_blocks) all.push_back(&p);
  for (const auto& p : ladder) all.push_back(&p);
  for (const auto& p : closed_windows) all.push_back(&p);
  if (flags.trace) {
    all.push_back(&untraced_light);
    all.push_back(&traced_light);
  }
  int64_t attempted = 0, failed = 0, succeeded = 0;
  for (const PhaseResult* p : all) {
    attempted += static_cast<int64_t>(p->summary.sent);
    failed += static_cast<int64_t>(p->summary.failed);
    succeeded += static_cast<int64_t>(p->summary.succeeded);
    if (p->summary.sent != p->summary.succeeded + p->summary.failed) {
      checks.Fail("phase " + p->name + ": sent != succeeded + failed");
    }
  }
  attempted += full_pass_users;
  succeeded += full_pass_users;
  std::map<std::string, double> e2e;
  e2e["setup_s"] = pb::Median(setup_s);
  e2e["p50_ms.light"] = light.summary.p50_ms.value;
  e2e["p50_ms.heavy"] = heavy.summary.p50_ms.value;
  e2e["max_rate_rps"] = max_rate;
  e2e["throughput_rps"] = throughput;
  e2e["ok_share"] = attempted ? static_cast<double>(succeeded) / attempted : 0.0;
  e2e["ndcg10"] = quality.ndcg10;
  e2e["recall10"] = quality.hr10;
  e2e["cpu_ms_per_req"] = pb::Median(block_cpu_ms);
  e2e["peak_rss_mb"] = peak_rss_mb;

  std::map<std::string, double> layer;
  std::vector<pb::Span> span_list = spans.Snapshot();
  double unattributed = 0.0;
  std::vector<pb::Span> measured_spans;
  for (const pb::Span& s : span_list) {
    if (s.id >= table_first_span && s.id < table_end_span) {
      measured_spans.push_back(s);
    }
  }
  std::vector<LayerRow> table = LayerTable(measured_spans, &unattributed);
  std::map<std::string, std::vector<double>> by_name;
  for (const pb::Span& s : span_list) by_name[s.name].push_back(s.end_us - s.start_us);
  auto q = [](const std::vector<double>& v, double p) {
    return pb::TailQuantile(v, p).value;
  };
  auto sum = [](const std::vector<double>& v) {
    double t = 0.0;
    for (double x : v) t += x;
    return t;
  };
  auto mean = [](const std::vector<double>& v) {
    double t = 0.0;
    for (double x : v) t += x;
    return v.empty() ? 0.0 : t / static_cast<double>(v.size());
  };
  std::vector<double> overhead_us, recommend_us;
  std::vector<const PhaseResult*> traced_phases = {&light, &heavy};
  for (const auto& p : phases) traced_phases.push_back(&p);
  for (const PhaseResult* p : traced_phases) {
    for (const Outcome& o : p->outcomes) {
      if (!o.wire) continue;
      double client_us = o.sample.end_us - o.sample.start_us;
      overhead_us.push_back(client_us - 1000.0 * o.server_ms);
      recommend_us.push_back(1000.0 * o.server_ms);
    }
  }
  layer["tasks.prompt_us"] =
      online ? mean(by_name["tasks.prompt"])
             : (light.prompt_us + heavy.prompt_us) /
                   static_cast<double>(std::max<size_t>(1, light.prompts + heavy.prompts));
  layer["tasks.prompt_tokens"] =
      traffic_n ? static_cast<double>(prompt_tokens) / traffic_n : 0.0;
  layer["net.overhead_us.p50"] = q(overhead_us, 0.5);
  layer["net.overhead_us.p99"] = q(overhead_us, 0.99);
  layer["net.codec_us"] = codec_us;
  {
    int64_t total = 0, mx = 0, failovers = 0;
    for (const auto& s : dep->router->shard_stats()) {
      total += s.requests;
      mx = std::max(mx, s.requests);
      failovers += s.failovers;
    }
    int64_t bad = 0;
    for (const auto& r : dep->rpcs) bad += r->stats().bad_frames;
    layer["net.shard_max_share"] = total ? static_cast<double>(mx) / total : 0.0;
    layer["net.failovers"] = static_cast<double>(failovers);
    layer["net.bad_frames"] = static_cast<double>(bad);
  }
  layer["serve.recommend_us.p50"] = q(recommend_us, 0.5);
  layer["serve.recommend_us.p99"] = q(recommend_us, 0.99);
  layer["serve.cache_hit_share"] = cache_hit_share;
  layer["serve.coalesced_share"] = coalesced_share;
  layer["serve.inline_share"] = win.inline_fast_path / win_req;
  layer["serve.batch_ticks_per_req"] = win.batch_ticks / win_req;
  layer["serve.degraded_share"] =
      (win.degraded_budget_capped + win.degraded_stale_cache + win.degraded_popularity) /
      win_req;
  // Stages every served request passes (over all traced requests), and
  // the share of serve time spent in the two stages only some requests
  // reach (queued behind the batch scheduler / parked on an identical
  // in-flight request).
  for (const char* st : {"build", "cache_lookup", "decode", "respond"}) {
    const std::vector<double>& v = by_name[StageSpanName(st)];
    layer[std::string("serve.stage.") + st + "_us.p50"] = q(v, 0.5);
    layer[std::string("serve.stage.") + st + "_us.p99"] = q(v, 0.99);
  }
  const double serve_total = std::max(1.0, sum(by_name["serve.recommend"]));
  for (const char* st : {"queue_wait", "coalesce_wait"}) {
    layer[std::string("serve.stage.") + st + "_share"] =
        sum(by_name[StageSpanName(st)]) / serve_total;
  }
  const double gen_mean = mean(gen_us), prefill_mean = mean(prefill_us);
  layer["llm.prefill_us"] = prefill_mean;
  layer["llm.prefill_us_per_token"] =
      replay_tokens ? prefill_mean * replay.size() / replay_tokens : 0.0;
  layer["llm.generate_us"] = gen_mean;
  layer["llm.beam_us"] = gen_mean - prefill_mean;
  layer["llm.tick_us"] = mean(tick_us);
  layer["llm.lanes_per_tick"] = ticks ? static_cast<double>(lane_ticks) / ticks : 0.0;
  layer["llm.flops_per_req"] =
      replay.empty() ? 0.0 : static_cast<double>(replay_flops) / replay.size();
  layer["llm.gflops"] =
      gen_mean > 0 ? static_cast<double>(replay_flops) / replay.size() / (gen_mean * 1e3)
                   : 0.0;
  layer["quant.next_codes_us"] = next_codes_us;
  layer["obs.mutex_wait_us_per_req"] =
      attempted ? static_cast<double>(mutex1 - mutex0) / attempted : 0.0;
  const double p50_off = untraced_light.summary.p50_ms.value;
  layer["obs.trace_overhead_pct"] =
      p50_off > 0 ? 100.0 * (traced_light.summary.p50_ms.value - p50_off) / p50_off
                  : 0.0;
  layer["setup.dataset_s"] = pb::Median(dataset_s);
  layer["setup.fit_s"] = pb::Median(fit_s);
  layer["setup.cluster_s"] = pb::Median(cluster_s);
  {
    std::vector<double> late;
    for (const PhaseResult* p : {&light, &heavy}) {
      for (const Outcome& o : p->outcomes) late.push_back(pb::LatenessMs(o.sample));
    }
    layer["gen.late_ms.p99"] = q(late, 0.99);
  }
  // Tail latency at the two rates: reported, but not gated (see spec.json).
  layer["client.p90_ms.light"] = light.summary.p90_ms.value;
  layer["client.p90_ms.heavy"] = heavy.summary.p90_ms.value;
  layer["client.p99_ms.light"] = light.summary.p99_ms.value;
  layer["client.p99_ms.heavy"] = heavy.summary.p99_ms.value;
  layer["gen.sent"] = static_cast<double>(attempted);
  layer["gen.succeeded"] = static_cast<double>(succeeded);
  layer["gen.failed"] = static_cast<double>(failed);
  layer["traffic.repeat_share"] = repeat_share;
  layer["traffic.prompt_repeat_share"] = prompt_repeat_share;
  layer["layer.unattributed_share"] = unattributed;

  std::map<std::string, int64_t> counts;
  counts["prompt_tokens"] = prompt_tokens;
  counts["flops"] = replay_flops;
  counts["decoded"] = det.decoded;
  counts["batch_ticks"] = ticks;
  counts["cache_hits"] = det.cache_hits + det.coalesced;
  for (const auto& [k, v] : counts) {
    layer["count." + k] = static_cast<double>(v);
  }

  // --- human-readable report.
  std::printf("lcbench %s seed=%llu trace=%d  (%d users, %d items, vocab %d)\n",
              wl.c_str(), static_cast<unsigned long long>(flags.seed),
              flags.trace ? 1 : 0, users, ds.num_items(), model.vocab().size());
  std::printf("%-16s %8s %6s %7s %9s %9s %9s %9s %8s %6s\n", "phase", "rate",
              "sent", "failed", "p50_ms", "p90_ms", "p99_ms", "(pct,n)", "late99",
              "pass");
  for (const PhaseResult* p : all) {
    const pb::OpenLoopSummary& s = p->summary;
    std::printf("%-16s %8.1f %6zu %7zu %9.3f %9.3f %9.3f (%4.1f,%zu) %8.3f %6s\n",
                p->name.c_str(), p->rate, s.sent, s.failed, s.p50_ms.value,
                s.p90_ms.value, s.p99_ms.value, 100.0 * s.p99_ms.used, s.p99_ms.n,
                s.late_p99_ms.value, s.meets_limit ? "yes" : "no");
  }
  std::printf("traffic: repeat_share %.4f prompt_repeat_share %.4f "
              "cache_hit_share %.4f coalesced_share %.4f (light+heavy, "
              "%lld server requests)\n",
              repeat_share, prompt_repeat_share, cache_hit_share, coalesced_share,
              static_cast<long long>(win.requests));
  if (flags.trace) {
    std::printf("layer table (self time per request, share of end-to-end):\n");
    for (const LayerRow& r : table) {
      std::printf("  %-28s %10.2f us  %6.2f%%\n", r.name.c_str(), r.us_per_req,
                  100.0 * r.share);
    }
    std::printf("  %-28s %10s     %6.2f%%\n", "unattributed", "", 100.0 * unattributed);
  }
  for (const std::string& e : checks.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  // --- result file.
  std::ostringstream js;
  auto metrics_json = [](const std::map<std::string, double>& m) {
    std::string s = "{";
    for (const auto& [k, v] : m) {
      if (s.size() > 1) s += ",";
      s += JsonStr(k) + ":" + JsonNum(v);
    }
    return s + "}";
  };
  js << "{\"workload\":" << JsonStr(wl) << ",\"seed\":" << flags.seed
     << ",\"trace\":" << (flags.trace ? 1 : 0)
     << ",\"correct\":" << (checks.errors.empty() ? "true" : "false")
     << ",\"errors\":[";
  for (size_t i = 0; i < checks.errors.size(); ++i) {
    js << (i ? "," : "") << JsonStr(checks.errors[i]);
  }
  js << "],\"compared\":" << checks.compared.load() << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"end_to_end\":" << metrics_json(e2e)
     << ",\"per_layer\":" << metrics_json(layer) << ",\"counts\":{";
  bool first = true;
  for (const auto& [k, v] : counts) {
    js << (first ? "" : ",") << JsonStr(k) << ":" << v;
    first = false;
  }
  js << "},\"phases\":[";
  for (size_t i = 0; i < all.size(); ++i) js << (i ? "," : "") << PhaseJson(*all[i]);
  js << "],\"pooled\":[" << PhaseJson(light) << "," << PhaseJson(heavy);
  js << "],\"ladder\":{\"probes\":[";
  for (size_t i = 0; i < ladder.size(); ++i) {
    js << (i ? "," : "") << "[" << JsonNum(ladder[i].rate) << ","
       << (stairs.passed()[i] ? "true" : "false") << "]";
  }
  js << "],\"search_probes\":" << stairs.search_probes()
     << ",\"estimate\":" << JsonNum(max_rate) << "},\"saturation_rates\":[";
  for (size_t i = 0; i < window_rates.size(); ++i) {
    js << (i ? "," : "") << JsonNum(window_rates[i]);
  }
  js << "],\"layer_table\":[";
  for (size_t i = 0; i < table.size(); ++i) {
    js << (i ? "," : "") << "{\"name\":" << JsonStr(table[i].name)
       << ",\"us_per_req\":" << JsonNum(table[i].us_per_req)
       << ",\"share\":" << JsonNum(table[i].share) << "}";
  }
  js << "],\"traffic\":{\"requests\":" << traffic_n
     << ",\"repeat_share\":" << JsonNum(repeat_share)
     << ",\"prompt_repeat_share\":" << JsonNum(prompt_repeat_share)
     << ",\"server_requests\":" << win.requests
     << ",\"cache_hit_share\":" << JsonNum(cache_hit_share)
     << ",\"coalesced_share\":" << JsonNum(coalesced_share) << "}"
     << ",\"manifest\":{\"seed\":" << flags.seed << ",\"cores\":"
     << std::thread::hardware_concurrency() << ",\"senders\":" << env.senders
     << ",\"cpu_model\":" << JsonStr(CpuModel()) << ",\"host\":" << JsonStr(Hostname())
     << ",\"loadavg_start\":" << JsonStr(load_at_start)
     << ",\"seconds\":" << JsonNum(S) << ",\"rate_light\":" << JsonNum(flags.rate_light)
     << ",\"rate_heavy\":" << JsonNum(flags.rate_heavy)
     << ",\"limit_ms\":" << JsonNum(flags.limit_ms)
     << ",\"ladder\":[" << JsonNum(flags.ladder_lo) << "," << JsonNum(flags.ladder_hi)
     << "," << JsonNum(flags.ladder_step) << "],\"setups\":" << kSetups
     << ",\"setup_s\":[";
  for (size_t i = 0; i < setup_s.size(); ++i) js << (i ? "," : "") << JsonNum(setup_s[i]);
  js << "],\"system\":{\"domain\":\"games\",\"scale\":" << JsonNum(kDatasetScale)
     << ",\"dataset_seed\":" << kDatasetSeed << ",\"users\":" << users
     << ",\"items\":" << ds.num_items() << ",\"vocab\":" << model.vocab().size()
     << ",\"tuning_epochs\":" << kTuningEpochs << ",\"rqvae_epochs\":" << kRqVaeEpochs
     << ",\"beam\":" << beam << ",\"workers\":" << kWorkers << "}}}";
  std::ofstream out(flags.out);
  out << js.str() << "\n";
  out.close();
  if (!flags.spans_out.empty() && flags.trace) {
    std::ofstream so(flags.spans_out);
    for (const pb::Span& s : span_list) {
      so << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":"
         << s.request << ",\"name\":" << JsonStr(s.name) << ",\"start_us\":"
         << JsonNum(s.start_us) << ",\"end_us\":" << JsonNum(s.end_us) << "}\n";
    }
  }
  dep->Stop();
  return out ? 0 : 1;
}
