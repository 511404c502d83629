#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "core/check.h"
#include "obs/debugz.h"
#include "obs/flightrec.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/chaos.h"

namespace lcrec::serve {

namespace {

/// Cached metric handles for the online server (lcrec.serve.*).
struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& completed;
  obs::Counter& cache_hits;
  obs::Counter& coalesced;
  obs::Counter& inline_fast_path;
  obs::Counter& shed_queue_full;
  obs::Counter& shed_deadline;
  obs::Counter& batch_ticks;
  obs::Counter& degrade_budget_capped;
  obs::Counter& degrade_stale_cache;
  obs::Counter& degrade_popularity;
  obs::Counter& breaker_trips;
  obs::Counter& breaker_short_circuits;
  obs::Counter& decode_failures;
  obs::Counter& decode_retries;
  obs::Counter& watchdog_fires;
  obs::Gauge& queue_depth;
  obs::Histogram& latency_ms;
  obs::Histogram& batch_occupancy;

  static ServeMetrics& Get() {
    static ServeMetrics* m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return new ServeMetrics{
          r.GetCounter("lcrec.serve.requests"),
          r.GetCounter("lcrec.serve.completed"),
          r.GetCounter("lcrec.serve.cache_hits"),
          r.GetCounter("lcrec.serve.coalesced"),
          r.GetCounter("lcrec.serve.inline_fast_path"),
          r.GetCounter("lcrec.serve.shed_queue_full"),
          r.GetCounter("lcrec.serve.shed_deadline"),
          r.GetCounter("lcrec.serve.batch_ticks"),
          r.GetCounter("lcrec.serve.degrade.budget_capped"),
          r.GetCounter("lcrec.serve.degrade.stale_cache"),
          r.GetCounter("lcrec.serve.degrade.popularity"),
          r.GetCounter("lcrec.serve.breaker.trips"),
          r.GetCounter("lcrec.serve.breaker.short_circuits"),
          r.GetCounter("lcrec.serve.decode.failures"),
          r.GetCounter("lcrec.serve.decode.retries"),
          r.GetCounter("lcrec.serve.watchdog.fires"),
          r.GetGauge("lcrec.serve.queue_depth"),
          r.GetHistogram("lcrec.serve.latency_ms",
                         obs::Histogram::ExponentialBounds(0.05, 1.6, 32)),
          r.GetHistogram("lcrec.serve.batch_occupancy",
                         obs::Histogram::LinearBounds(1.0, 32.0, 32)),
      };
    }();
    return *m;
  }
};

RecommendResponse MakeShed(Status status) {
  RecommendResponse resp;
  resp.status = status;
  return resp;
}

void SleepUs(double us) {
  if (us <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(us)));
}

/// Wraps the user's breaker options so every state transition also lands
/// in the flight recorder and the lcrec.serve.breaker.* metrics.
BreakerOptions WithBreakerTelemetry(BreakerOptions opts) {
  std::function<void(BreakerState)> user_hook = opts.on_transition;
  opts.on_transition = [user_hook](BreakerState s) {
    obs::FlightRecorder::Global().Record(obs::FrKind::kBreaker,
                                         BreakerStateName(s));
    if (s == BreakerState::kOpen) {
      ServeMetrics::Get().breaker_trips.Increment();
    }
    if (user_hook) user_hook(s);
  };
  return opts;
}

}  // namespace

std::string StatusName(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kShedQueueFull:
      return "shed_queue_full";
    case Status::kShedDeadline:
      return "shed_deadline";
    case Status::kShutdown:
      return "shutdown";
    case Status::kShedDecodeFailure:
      return "shed_decode_failure";
  }
  return "unknown";
}

const char* DegradeLevelName(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kFull:
      return "full";
    case DegradeLevel::kBudgetCapped:
      return "budget_capped";
    case DegradeLevel::kStaleCache:
      return "stale_cache";
    case DegradeLevel::kPopularity:
      return "popularity";
  }
  return "unknown";
}

Server::Server(const llm::MiniLlm& model, const quant::PrefixTrie& trie,
               const llm::IndexTokenMap& token_map,
               PromptBuilder prompt_builder, ServerOptions options)
    : model_(model),
      trie_(trie),
      token_map_(token_map),
      prompt_builder_(std::move(prompt_builder)),
      options_(options),
      cache_(options.cache_capacity, options.cache_ttl_ms),
      queue_(static_cast<size_t>(std::max(options.max_queue, 1))),
      slo_(options.slo),
      engine_(model, trie, token_map, options.beam_size),
      breaker_(WithBreakerTelemetry(options.breaker)) {
  LCREC_CHECK(prompt_builder_ != nullptr);
  LCREC_CHECK_GT(options_.max_batch_lanes, 0);
  LCREC_CHECK_GT(options_.top_n_cap, 0);
  LCREC_CHECK_GT(options_.degraded_beam, 0);
  LCREC_CHECK_GE(options_.decode_retries, 0);
  slo_.StartReporter();  // no-op unless options.slo.report_every_s > 0
  if (options_.debug_port >= 0) {
    std::string error;
    if (!obs::DebugServer::Global().Start(options_.debug_port, &error)) {
      obs::Log(obs::LogLevel::kWarn, "[serve] debugz start failed: %s",
               error.c_str());
    }
  }
  obs::DebugServer::MaybeStartFromEnv();
  statusz_section_id_ = obs::RegisterStatuszSection(
      "serve", [this] { return Statusz(); });
  if (options_.start_scheduler) Start();
}

Server::~Server() {
  // Unregister before any member teardown: the debug server's thread may
  // be inside Statusz() right now, and RegisterStatusz's contract is that
  // unregistration (which takes the same registry lock the dispatcher
  // holds while calling sections) is the destructor's first act.
  obs::UnregisterStatuszSection(statusz_section_id_);
  Stop();
}

void Server::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  if (options_.watchdog_stall_ms > 0.0 && !watchdog_.joinable()) {
    {
      obs::UniqueLock lock(watchdog_mu_);
      watchdog_stop_ = false;
    }
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

void Server::Stop() {
  queue_.Close();
  if (scheduler_.joinable()) scheduler_.join();
  if (watchdog_.joinable()) {
    {
      obs::UniqueLock lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.NotifyAll();
    watchdog_.join();
  }
  running_.store(false);
}

RecommendResponse Server::Recommend(const RecommendRequest& request) {
  double t0_us = obs::NowMicros();
  ServeMetrics& sm = ServeMetrics::Get();
  sm.requests.Increment();
  stats_.requests.fetch_add(1, std::memory_order_relaxed);

  uint64_t request_id = obs::NextRequestId();
  bool sampled =
      options_.trace_sample_n > 0 &&
      request_id % static_cast<uint64_t>(options_.trace_sample_n) == 0;
  obs::RequestTimeline timeline;
  timeline.Begin(request_id, sampled, "build", t0_us);

  int top_n = std::min(std::max(request.top_n, 1), options_.top_n_cap);
  std::vector<int> prompt = prompt_builder_(request.history);
  timeline.Mark("cache_lookup");
  uint64_t key = RequestKey(prompt, top_n, options_.beam_size);

  RecommendResponse resp;
  if (cache_.Get(key, &resp.items)) {
    resp.cache_hit = true;
    resp.latency_ms = (obs::NowMicros() - t0_us) / 1000.0;
    sm.cache_hits.Increment();
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    timeline.Finish();
    resp.debug.request_id = timeline.request_id();
    resp.debug.sampled = timeline.sampled();
    resp.debug.stages = timeline.stages();
    timeline.EmitAsyncSpans();
    if (timeline.sampled()) obs::RecentTimelines::Global().Record(timeline);
    FinishRequest(&resp);
    return resp;
  }

  // Single-flight: an identical request already being decoded absorbs
  // this one; only the first submitter (the leader) pays for admission.
  PendingPtr pending;
  bool leader = false;
  {
    obs::UniqueLock lock(state_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      pending = it->second;
    } else {
      pending = std::make_shared<Pending>();
      pending->key = key;
      pending->prompt = std::move(prompt);
      pending->top_n = top_n;
      pending->submit_us = t0_us;
      pending->deadline_ms = request.deadline_ms;
      inflight_[key] = pending;
      leader = true;
    }
  }
  if (!leader) {
    sm.coalesced.Increment();
    stats_.coalesced.fetch_add(1, std::memory_order_relaxed);
    // The follower keeps its own timeline (one coalesce_wait stage); the
    // leader's is the one inside `pending`.
    timeline.Mark("coalesce_wait");
    return WaitDone(pending, t0_us, /*coalesced=*/true, &timeline);
  }
  pending->timeline = std::move(timeline);

  // Inline fast path: with an empty queue and no lane in flight there is
  // nothing to batch with, so decoding on this thread skips the
  // scheduler handoff entirely. The emptiness check is racy by design —
  // a miss only costs one request the (correct) queued path.
  if (options_.inline_fast_path && queue_.empty() &&
      active_lanes_.load(std::memory_order_relaxed) == 0) {
    sm.inline_fast_path.Increment();
    stats_.inline_fast_path.fetch_add(1, std::memory_order_relaxed);
    pending->timeline.Mark("decode");
    DecodeInline(pending);
    return WaitDone(pending, t0_us, /*coalesced=*/false, &pending->timeline);
  }

  pending->timeline.Mark("queue_wait");
  // chaos::OnQueueAdmit simulates queue pressure: an injected "full"
  // admission takes exactly the real queue-full path.
  if (chaos::OnQueueAdmit() || !queue_.TryPush(pending)) {
    if (queue_.closed()) {
      stats_.shed_shutdown.fetch_add(1, std::memory_order_relaxed);
      pending->timeline.Mark("shed");
      // Resolve (not just return): followers may already be parked on
      // this pending and must observe the shed too.
      Resolve(pending, MakeShed(Status::kShutdown));
    } else {
      DegradeOrShed(pending, Status::kShedQueueFull, "shed_queue_full");
    }
    return WaitDone(pending, t0_us, /*coalesced=*/false, &pending->timeline);
  }
  sm.queue_depth.Set(static_cast<double>(queue_.size()));
  return WaitDone(pending, t0_us, /*coalesced=*/false, &pending->timeline);
}

RecommendResponse Server::WaitDone(const PendingPtr& pending, double t0_us,
                                   bool coalesced,
                                   obs::RequestTimeline* timeline) {
  RecommendResponse resp;
  {
    obs::UniqueLock lock(state_mu_);
    done_cv_.Wait(lock, [&pending] { return pending->done; });
    resp = pending->response;  // copy — followers share the resolution
  }
  resp.coalesced = coalesced;
  resp.latency_ms = (obs::NowMicros() - t0_us) / 1000.0;
  // Safe: once `done` was observed, nothing else touches this timeline —
  // the scheduler's last Mark happened before Resolve (state_mu_), and a
  // follower's local timeline was never shared at all.
  timeline->Finish();
  resp.debug.request_id = timeline->request_id();
  resp.debug.sampled = timeline->sampled();
  resp.debug.stages = timeline->stages();
  timeline->EmitAsyncSpans();
  if (timeline->sampled()) obs::RecentTimelines::Global().Record(*timeline);
  FinishRequest(&resp);
  return resp;
}

void Server::FinishRequest(RecommendResponse* resp) {
  ServeMetrics& sm = ServeMetrics::Get();
  sm.latency_ms.Observe(resp->latency_ms);
  bool ok = resp->status == Status::kOk;
  if (ok) {
    sm.completed.Increment();
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
  }
  slo_.RecordRequest(resp->latency_ms, ok);
  if (options_.slow_request_ms > 0.0 &&
      resp->latency_ms >= options_.slow_request_ms) {
    obs::FlightRecorder::Global().Record(
        obs::FrKind::kSlowRequest, "slow_request",
        static_cast<int64_t>(resp->debug.request_id),
        static_cast<int64_t>(resp->latency_ms * 1000.0));
  }
}

void Server::DumpFlightRecorder(std::ostream& out) const {
  obs::FlightRecorder::Global().WriteJsonl(out);
}

void Server::Resolve(const PendingPtr& pending, RecommendResponse response) {
  {
    obs::UniqueLock lock(state_mu_);
    pending->response = std::move(response);
    pending->done = true;
    auto it = inflight_.find(pending->key);
    if (it != inflight_.end() && it->second == pending) inflight_.erase(it);
  }
  done_cv_.NotifyAll();
}

bool Server::PassChaosDecode() {
  ServeMetrics& sm = ServeMetrics::Get();
  for (int attempt = 0;; ++attempt) {
    chaos::DecodeChaos c = chaos::OnDecode();
    if (c.delay_us > 0.0) SleepUs(c.delay_us);  // injected latency spike
    if (!c.fail) return true;
    sm.decode_failures.Increment();
    stats_.decode_failures.fetch_add(1, std::memory_order_relaxed);
    if (attempt >= options_.decode_retries) return false;
    sm.decode_retries.Increment();
    stats_.decode_retries.fetch_add(1, std::memory_order_relaxed);
    SleepUs(options_.retry_backoff_ms * 1000.0 *
            static_cast<double>(attempt + 1));  // linear backoff
  }
}

std::vector<llm::ScoredItem> Server::PopularityFallback(int top_n) const {
  std::vector<llm::ScoredItem> items;
  size_t n = static_cast<size_t>(std::max(top_n, 0));
  if (!options_.popularity_items.empty()) {
    for (size_t i = 0; i < options_.popularity_items.size() && items.size() < n;
         ++i) {
      items.push_back({options_.popularity_items[i], -static_cast<float>(i)});
    }
    return items;
  }
  // No prior configured: item ids in index order keep the tier available.
  int num_items = trie_.num_items();
  for (int i = 0; i < num_items && items.size() < n; ++i) {
    items.push_back({i, -static_cast<float>(i)});
  }
  return items;
}

void Server::ResolveDegraded(const PendingPtr& pending, RecommendResponse resp,
                             const char* label) {
  ServeMetrics& sm = ServeMetrics::Get();
  resp.degrade_label = label;
  switch (resp.degrade) {
    case DegradeLevel::kBudgetCapped:
      sm.degrade_budget_capped.Increment();
      stats_.degraded_budget_capped.fetch_add(1, std::memory_order_relaxed);
      break;
    case DegradeLevel::kStaleCache:
      sm.degrade_stale_cache.Increment();
      stats_.degraded_stale_cache.fetch_add(1, std::memory_order_relaxed);
      break;
    case DegradeLevel::kPopularity:
      sm.degrade_popularity.Increment();
      stats_.degraded_popularity.fetch_add(1, std::memory_order_relaxed);
      break;
    case DegradeLevel::kFull:
      break;
  }
  if (resp.degrade != DegradeLevel::kFull) {
    obs::FlightRecorder::Global().Record(
        obs::FrKind::kDegrade, label,
        static_cast<int64_t>(pending->timeline.request_id()),
        static_cast<int64_t>(resp.degrade));
  }
  Resolve(pending, std::move(resp));
}

void Server::DegradeOrShed(const PendingPtr& pending, Status shed_status,
                           const char* reason) {
  ServeMetrics& sm = ServeMetrics::Get();
  if (!options_.degraded_fallbacks) {
    switch (shed_status) {
      case Status::kShedQueueFull:
        sm.shed_queue_full.Increment();
        stats_.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
        break;
      case Status::kShedDeadline:
        stats_.shed_deadline.fetch_add(1, std::memory_order_relaxed);
        sm.shed_deadline.Increment();
        break;
      case Status::kShedDecodeFailure:
        // Counted via decode_failures when the attempt failed.
        break;
      case Status::kShutdown:
        stats_.shed_shutdown.fetch_add(1, std::memory_order_relaxed);
        break;
      case Status::kOk:
        break;
    }
    obs::FlightRecorder::Global().Record(
        obs::FrKind::kShed, reason,
        static_cast<int64_t>(pending->timeline.request_id()),
        static_cast<int64_t>(queue_.size()));
    pending->timeline.Mark("shed");
    Resolve(pending, MakeShed(shed_status));
    return;
  }
  pending->timeline.Mark("degrade");
  RecommendResponse resp;
  resp.status = Status::kOk;
  double age_ms = 0.0;
  if (cache_.GetWithStaleness(pending->key, &resp.items, &age_ms)) {
    // The entry may be fresh (e.g. an identical request completed since
    // the healthy lookup): still a level-2 serve — this request's own
    // decode never ran, and the tier label must say so.
    resp.degrade = DegradeLevel::kStaleCache;
    ResolveDegraded(pending, std::move(resp), "stale_cache");
    return;
  }
  resp.items = PopularityFallback(pending->top_n);
  resp.degrade = DegradeLevel::kPopularity;
  ResolveDegraded(pending, std::move(resp), "popularity");
}

bool Server::PassDecodeGate(const PendingPtr& pending) {
  if (!breaker_.Allow()) {
    ServeMetrics::Get().breaker_short_circuits.Increment();
    stats_.breaker_short_circuits.fetch_add(1, std::memory_order_relaxed);
    DegradeOrShed(pending, Status::kShedDecodeFailure, "breaker_open");
    return false;
  }
  if (!PassChaosDecode()) {
    breaker_.RecordFailure();
    DegradeOrShed(pending, Status::kShedDecodeFailure, "decode_failed");
    return false;
  }
  return true;
}

llm::LaneOptions Server::LaneFor(Pending* pending, double now_us) const {
  llm::LaneOptions lane;
  if (pending->deadline_ms <= 0.0 || !options_.degraded_fallbacks) return lane;
  // Thread the deadline budget into the engine: the lane retires (with
  // partial results) at the first tick past its deadline, and a lane
  // admitted with most of its budget already burned decodes at the
  // reduced beam — fewer forwards per tick buys more depth per ms.
  lane.deadline_us = pending->submit_us + pending->deadline_ms * 1000.0;
  double remaining_us = lane.deadline_us - now_us;
  if (remaining_us <
      options_.budget_cap_fraction * pending->deadline_ms * 1000.0) {
    lane.beam_cap = options_.degraded_beam;
    pending->beam_capped = true;
  }
  return lane;
}

void Server::ResolveDecode(const PendingPtr& pending, llm::BatchResult result,
                           bool inline_path) {
  stats_.decoded.fetch_add(1, std::memory_order_relaxed);
  RecommendResponse resp;
  resp.status = Status::kOk;
  resp.inline_path = inline_path;
  if (!inline_path) {
    // Only scheduled lanes share ticks, so only they carry a tick share.
    pending->timeline.Mark("retire");
    resp.debug.decode_ticks = result.ticks;
    resp.debug.decode_share_us = result.decode_us;
  }
  if (result.partial) {
    // Deadline budget exhausted mid-decode: the engine is too slow for
    // this request's budget — a breaker-visible outcome.
    breaker_.RecordFailure();
    if (result.items.empty() || !options_.degraded_fallbacks) {
      DegradeOrShed(pending, Status::kShedDeadline, "deadline_decode");
      return;
    }
    resp.degrade = DegradeLevel::kBudgetCapped;
    resp.items = std::move(result.items);
    pending->timeline.Mark("respond");
    ResolveDegraded(pending, std::move(resp), "partial_decode");
    return;
  }
  breaker_.RecordSuccess();
  // Only a full-beam, complete decode may populate the cache: the key
  // hashes the full beam width, and degraded rankings must never
  // impersonate full ones.
  if (result.beam_used == options_.beam_size) {
    cache_.Put(pending->key, result.items);
  }
  resp.items = std::move(result.items);
  pending->timeline.Mark("respond");  // resolve-to-wakeup latency
  if (pending->beam_capped) {
    resp.degrade = DegradeLevel::kBudgetCapped;
    ResolveDegraded(pending, std::move(resp), "budget_capped");
  } else {
    Resolve(pending, std::move(resp));
  }
}

void Server::DecodeInline(const PendingPtr& pending) {
  if (!PassDecodeGate(pending)) return;
  llm::LaneOptions lane = LaneFor(pending.get(), obs::NowMicros());
  llm::BatchResult result;
  if (lane.deadline_us > 0.0) {
    // A deadline budget is enforced tick by tick (partial decode instead
    // of a late full one), so it needs a private one-lane engine.
    llm::BatchEngine engine(model_, trie_, token_map_, options_.beam_size);
    engine.Admit(0, std::move(pending->prompt), pending->top_n, lane);
    while (!engine.Idle()) {
      for (llm::BatchResult& r : engine.Tick()) result = std::move(r);
    }
  } else {
    // Same ranking, bit for bit, at a lower heap high-water: Tick copies
    // every child's KV cache before growing it, which leaves each
    // decoding thread's malloc arena ~0.35 MB larger (perfbench
    // offline_eval, 4-vCPU host: +10% peak RSS on the engine).
    result.items = llm::GenerateItems(model_, pending->prompt, trie_,
                                      token_map_, options_.beam_size,
                                      pending->top_n);
    result.beam_used = options_.beam_size;
  }
  ResolveDecode(pending, std::move(result), /*inline_path=*/true);
}

void Server::AdmitOrShed(PendingPtr pending,
                         std::unordered_map<uint64_t, PendingPtr>* by_tag) {
  pending->timeline.Mark("admit");  // closes queue_wait at pop time
  double now_us = obs::NowMicros();
  if (pending->deadline_ms > 0.0) {
    double waited_ms = (now_us - pending->submit_us) / 1000.0;
    if (waited_ms > pending->deadline_ms) {
      DegradeOrShed(pending, Status::kShedDeadline, "shed_deadline");
      return;
    }
  }
  if (!PassDecodeGate(pending)) return;
  llm::LaneOptions lane = LaneFor(pending.get(), now_us);
  uint64_t tag = next_tag_.fetch_add(1, std::memory_order_relaxed);
  pending->timeline.Mark("decode");
  engine_.Admit(tag, std::move(pending->prompt), pending->top_n, lane);
  (*by_tag)[tag] = std::move(pending);
}

void Server::SchedulerLoop() {
  ServeMetrics& sm = ServeMetrics::Get();
  // Maps engine lane tags back to waiting requests. Scheduler-local: no
  // other thread touches the engine or this table.
  std::unordered_map<uint64_t, PendingPtr> by_tag;
  while (true) {
    if (engine_.Idle()) {
      active_lanes_.store(0, std::memory_order_relaxed);
      tick_start_us_.store(0.0, std::memory_order_relaxed);  // parked
      PendingPtr first;
      if (!queue_.Pop(&first)) break;  // closed and drained
      tick_start_us_.store(obs::NowMicros(), std::memory_order_relaxed);
      AdmitOrShed(std::move(first), &by_tag);
    } else {
      // New work episode: the watchdog measures from here, so a stuck
      // admission or tick below is a stall, an empty queue is not.
      tick_start_us_.store(obs::NowMicros(), std::memory_order_relaxed);
    }
    // Continuous batching: top up free lanes from the queue every tick,
    // so retiring requests make room without draining the batch.
    PendingPtr extra;
    while (engine_.ActiveLanes() < options_.max_batch_lanes &&
           queue_.TryPop(&extra)) {
      AdmitOrShed(std::move(extra), &by_tag);
    }
    sm.queue_depth.Set(static_cast<double>(queue_.size()));
    if (engine_.Idle()) continue;  // everything popped hit its deadline
    active_lanes_.store(engine_.ActiveLanes(), std::memory_order_relaxed);
    sm.batch_occupancy.Observe(static_cast<double>(engine_.ActiveLanes()));
    sm.batch_ticks.Increment();
    stats_.batch_ticks.fetch_add(1, std::memory_order_relaxed);
    std::vector<llm::BatchResult> done = engine_.Tick();
    active_lanes_.store(engine_.ActiveLanes(), std::memory_order_relaxed);
    for (llm::BatchResult& r : done) {
      auto it = by_tag.find(r.tag);
      if (it == by_tag.end()) continue;
      PendingPtr p = std::move(it->second);
      by_tag.erase(it);
      ResolveDecode(p, std::move(r), /*inline_path=*/false);
    }
  }
  tick_start_us_.store(0.0, std::memory_order_relaxed);
  // Defensive: the loop only exits with an idle engine, so by_tag should
  // be empty; release any stragglers rather than strand their waiters.
  for (auto& [tag, p] : by_tag) {
    stats_.shed_shutdown.fetch_add(1, std::memory_order_relaxed);
    Resolve(p, MakeShed(Status::kShutdown));
  }
  by_tag.clear();
}

void Server::WatchdogLoop() {
  // Fires once per stall episode: remembers the episode start it fired
  // for, and re-arms when the scheduler moves on to a new episode.
  double fired_for_us = 0.0;
  obs::UniqueLock lock(watchdog_mu_);
  while (true) {
    bool stop = watchdog_cv_.WaitFor(
        lock, std::chrono::milliseconds(20), [this] { return watchdog_stop_; });
    if (stop) return;
    double start = tick_start_us_.load(std::memory_order_relaxed);
    if (start == 0.0 || start == fired_for_us) continue;
    double stalled_us = obs::NowMicros() - start;
    if (stalled_us < options_.watchdog_stall_ms * 1000.0) continue;
    fired_for_us = start;
    stats_.watchdog_fires.fetch_add(1, std::memory_order_relaxed);
    ServeMetrics::Get().watchdog_fires.Increment();
    obs::FlightRecorder::Global().Record(
        obs::FrKind::kWatchdog, "scheduler_stall",
        static_cast<int64_t>(stalled_us),
        static_cast<int64_t>(options_.watchdog_stall_ms * 1000.0));
    obs::Log(obs::LogLevel::kWarn,
             "[serve] watchdog: scheduler stalled for %.1f ms "
             "(threshold %.1f ms), dumping flight recorder",
             stalled_us / 1000.0, options_.watchdog_stall_ms);
    obs::FlightRecorder::Global().DumpToStderr("serve watchdog");
  }
}

std::string Server::Statusz() const {
  ServerStats s = stats();
  auto rate = [&s](int64_t n) {
    return s.requests > 0
               ? 100.0 * static_cast<double>(n) /
                     static_cast<double>(s.requests)
               : 0.0;
  };
  char line[256];
  std::string out = slo_.StatuszText();
  if (out.empty() || out.back() != '\n') out += "\n";
  std::snprintf(line, sizeof(line),
                "requests %lld | completed %lld | decoded %lld\n",
                static_cast<long long>(s.requests),
                static_cast<long long>(s.completed),
                static_cast<long long>(s.decoded));
  out += line;
  std::snprintf(
      line, sizeof(line),
      "cache: hits %lld (%.1f%%) | coalesced %lld (%.1f%%) | "
      "inline %lld (%.1f%%)\n",
      static_cast<long long>(s.cache_hits), rate(s.cache_hits),
      static_cast<long long>(s.coalesced), rate(s.coalesced),
      static_cast<long long>(s.inline_fast_path), rate(s.inline_fast_path));
  out += line;
  std::snprintf(line, sizeof(line), "queue: depth %zu / %d\n", queue_.size(),
                options_.max_queue);
  out += line;
  std::snprintf(line, sizeof(line),
                "batch: active_lanes %d / %d | ticks %lld\n",
                active_lanes_.load(std::memory_order_relaxed),
                options_.max_batch_lanes,
                static_cast<long long>(s.batch_ticks));
  out += line;
  std::snprintf(line, sizeof(line),
                "shed: queue_full %lld | deadline %lld | shutdown %lld\n",
                static_cast<long long>(s.shed_queue_full),
                static_cast<long long>(s.shed_deadline),
                static_cast<long long>(s.shed_shutdown));
  out += line;
  std::snprintf(line, sizeof(line),
                "degrade: budget_capped %lld | stale_cache %lld | "
                "popularity %lld\n",
                static_cast<long long>(s.degraded_budget_capped),
                static_cast<long long>(s.degraded_stale_cache),
                static_cast<long long>(s.degraded_popularity));
  out += line;
  out += breaker_.StatusText();
  out += "\n";
  std::snprintf(line, sizeof(line),
                "decode faults: failures %lld | retries %lld | "
                "watchdog_fires %lld | cache_stale_serves %lld\n",
                static_cast<long long>(s.decode_failures),
                static_cast<long long>(s.decode_retries),
                static_cast<long long>(s.watchdog_fires),
                static_cast<long long>(cache_.stale_serves()));
  out += line;
  out += chaos::ChaosStatusText();
  out += "\n";
  return out;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = stats_.requests.load(std::memory_order_relaxed);
  s.completed = stats_.completed.load(std::memory_order_relaxed);
  s.decoded = stats_.decoded.load(std::memory_order_relaxed);
  s.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
  s.coalesced = stats_.coalesced.load(std::memory_order_relaxed);
  s.inline_fast_path = stats_.inline_fast_path.load(std::memory_order_relaxed);
  s.shed_queue_full = stats_.shed_queue_full.load(std::memory_order_relaxed);
  s.shed_deadline = stats_.shed_deadline.load(std::memory_order_relaxed);
  s.batch_ticks = stats_.batch_ticks.load(std::memory_order_relaxed);
  s.degraded_budget_capped =
      stats_.degraded_budget_capped.load(std::memory_order_relaxed);
  s.degraded_stale_cache =
      stats_.degraded_stale_cache.load(std::memory_order_relaxed);
  s.degraded_popularity =
      stats_.degraded_popularity.load(std::memory_order_relaxed);
  s.shed_shutdown = stats_.shed_shutdown.load(std::memory_order_relaxed);
  s.decode_failures = stats_.decode_failures.load(std::memory_order_relaxed);
  s.decode_retries = stats_.decode_retries.load(std::memory_order_relaxed);
  s.breaker_short_circuits =
      stats_.breaker_short_circuits.load(std::memory_order_relaxed);
  s.watchdog_fires = stats_.watchdog_fires.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lcrec::serve
