#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <locale>
#include <sstream>

namespace hsd::serve {

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0,
                    std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Dense index of a status for the per-status counter array.
std::size_t statusIndex(RequestStatus s) {
  return std::size_t(s) < 5 ? std::size_t(s) : 0;
}

}  // namespace

const char* toString(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kTimeout: return "timeout";
    case RequestStatus::kCancelled: return "cancelled";
    case RequestStatus::kError: return "error";
    case RequestStatus::kRejected: return "rejected";
  }
  return "unknown";
}

engine::CacheStats ServeResult::cache(const std::string& stage) const {
  for (const auto& [name, c] : cacheStats)
    if (name == stage) return c;
  return {};
}

void CancelSource::cancel() {
  cancelled_.store(true, std::memory_order_release);
  // If a run is bound right now, raise its cooperative flag so the
  // pipeline's next throwIfCancelled() aborts it. The mutex closes the
  // race with bind/unbind: either we see the context here, or bind()
  // sees cancelled_ and raises the flag itself.
  const std::lock_guard<std::mutex> lock(mu_);
  if (ctx_ != nullptr) ctx_->requestCancel();
}

void CancelSource::bind(engine::RunContext* ctx) {
  const std::lock_guard<std::mutex> lock(mu_);
  ctx_ = ctx;
  if (cancelled_.load(std::memory_order_acquire)) ctx->requestCancel();
}

void CancelSource::unbind() {
  const std::lock_guard<std::mutex> lock(mu_);
  ctx_ = nullptr;
}

ContextPool::ContextPool(std::size_t contexts, std::size_t threadsPerContext,
                         std::size_t batchSize,
                         std::shared_ptr<engine::StageCache> cache,
                         std::shared_ptr<obs::TraceRecorder> tracer,
                         std::shared_ptr<obs::LogRecorder> log,
                         std::shared_ptr<obs::ModelStatsRecorder> modelStats) {
  contexts = std::max<std::size_t>(1, contexts);
  all_.reserve(contexts);
  slots_.reset(new Slot[contexts]);
  for (std::size_t i = 0; i < contexts; ++i) {
    auto ctx = std::make_unique<engine::RunContext>(threadsPerContext,
                                                    batchSize);
    if (cache) ctx->attachCache(cache);
    if (tracer) ctx->attachTracer(tracer);
    if (log) ctx->attachLog(log);
    if (modelStats) ctx->attachModelStats(modelStats);
    // Pre-warm: spawn the worker threads now so the first request doesn't
    // pay pool construction latency (threads=1 contexts stay thread-free).
    if (ctx->threadCount() > 1) ctx->pool();
    slots_[i].value.store(ctx.get(), std::memory_order_relaxed);
    all_.push_back(std::move(ctx));
  }
}

engine::RunContext* ContextPool::checkout() {
  if (engine::RunContext* ctx = tryCheckout()) return ctx;
  std::unique_lock<std::mutex> lock(mu_);
  engine::RunContext* ctx = nullptr;
  // The predicate re-probes the slots while holding mu_; checkin
  // publishes under mu_ before notifying, so a release can't slip
  // between the probe and the wait.
  cv_.wait(lock, [this, &ctx] { return (ctx = tryCheckout()) != nullptr; });
  return ctx;
}

engine::RunContext* ContextPool::tryCheckout() {
  for (std::size_t i = 0; i < all_.size(); ++i) {
    if (slots_[i].value.load(std::memory_order_relaxed) == nullptr) continue;
    if (engine::RunContext* ctx =
            slots_[i].value.exchange(nullptr, std::memory_order_acquire))
      return ctx;
  }
  return nullptr;
}

void ContextPool::checkin(engine::RunContext* ctx) {
  // The cancellation-reuse contract: a context that served a cancelled or
  // timed-out request must run the next request cleanly. resetCancel()
  // clears both the flag and any armed deadline; the stats wipe makes the
  // next request's EngineStats snapshot purely its own.
  ctx->resetCancel();
  ctx->stats().clear();
  ctx->setTraceId({});  // a reused context must not inherit correlation
  std::size_t i = 0;
  while (i < all_.size() && all_[i].get() != ctx) ++i;
  if (i == all_.size()) return;  // not ours — refuse rather than corrupt
  {
    const std::lock_guard<std::mutex> lock(mu_);
    slots_[i].value.store(ctx, std::memory_order_release);
  }
  cv_.notify_one();
}

DetectionServer::DetectionServer(ServerConfig cfg) : cfg_(cfg) {
  cfg_.workers = std::max<std::size_t>(1, cfg_.workers);
  if (cfg_.contexts == 0) cfg_.contexts = cfg_.workers;
  registerMetrics();
  // Built-in SLO tracker over the registry the request path already
  // updates: good = ok, total = every finished evaluation (rejected
  // requests never ran and are an admission signal, not availability).
  slo_ = std::make_shared<obs::SloTracker>(cfg_.slo);
  slo_->setAvailabilitySource(
      [ok = statusTotal_[statusIndex(RequestStatus::kOk)]] {
        return ok->value();
      },
      [this] {
        std::uint64_t total = 0;
        for (const RequestStatus s :
             {RequestStatus::kOk, RequestStatus::kTimeout,
              RequestStatus::kCancelled, RequestStatus::kError})
          total += statusTotal_[statusIndex(s)]->value();
        return total;
      });
  slo_->setLatencySource(runHist_);
  if (cfg_.enableCache)
    cache_ = std::make_shared<engine::StageCache>(cfg_.cacheCapacity,
                                                  cfg_.tracer);
  pool_ = std::make_unique<ContextPool>(cfg_.contexts, cfg_.threadsPerContext,
                                        cfg_.batchSize, cache_, cfg_.tracer,
                                        cfg_.log, cfg_.modelStats);
  workers_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

void DetectionServer::registerMetrics() {
  metrics_ = std::make_shared<obs::MetricsRegistry>();
  // Registration order is exposition order — keep it stable.
  queueDepth_ = &metrics_->gauge(
      "hsd_serve_queue_depth", "Requests accepted but not yet dequeued");
  inflight_ = &metrics_->gauge("hsd_serve_inflight_requests",
                               "Requests currently being processed");
  submittedTotal_ = &metrics_->counter("hsd_serve_requests_submitted_total",
                                       "Requests accepted into the queue");
  for (const RequestStatus s :
       {RequestStatus::kOk, RequestStatus::kTimeout, RequestStatus::kCancelled,
        RequestStatus::kError, RequestStatus::kRejected})
    statusTotal_[statusIndex(s)] =
        &metrics_->counter("hsd_serve_requests_total",
                           "Finished requests by outcome",
                           {{"status", toString(s)}});
  queueHist_ = &metrics_->histogram(
      "hsd_serve_queue_seconds", "Queue wait per request (submit to dequeue)");
  runHist_ = &metrics_->histogram("hsd_serve_run_seconds",
                                  "Evaluation wall time per request");
  cacheHits_ = &metrics_->counter("hsd_serve_cache_hits_total",
                                  "Shared stage-cache hits across requests");
  cacheMisses_ = &metrics_->counter(
      "hsd_serve_cache_misses_total",
      "Shared stage-cache misses across requests");
  // After the fixed serve block so the existing exposition order is
  // untouched; the recorder's per-cluster verdict counters append.
  if (cfg_.modelStats) cfg_.modelStats->bindMetrics(*metrics_);
}

DetectionServer::~DetectionServer() { shutdown(); }

std::future<ServeResult> DetectionServer::submit(
    const core::Detector& det, const Layout& layout, core::EvalParams params,
    std::optional<std::chrono::steady_clock::duration> timeout,
    Callback callback, std::shared_ptr<CancelSource> cancel,
    obs::TraceId trace) {
  Request req;
  req.det = &det;
  req.layout = &layout;
  req.params = std::move(params);
  req.submitted = std::chrono::steady_clock::now();
  if (timeout) req.deadline = req.submitted + *timeout;
  req.trace = trace;
  req.callback = std::move(callback);
  req.cancel = std::move(cancel);
  std::future<ServeResult> fut = req.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!accepting_) {
      ++stats_.rejected;
      lock.unlock();
      statusTotal_[statusIndex(RequestStatus::kRejected)]->inc();
      ServeResult res;
      res.status = RequestStatus::kRejected;
      res.trace = trace;
      res.error = "server is shut down";
      if (req.callback) {
        try {
          req.callback(res);
        } catch (...) {  // callbacks must not take down the caller
        }
      }
      req.promise.set_value(std::move(res));
      return fut;
    }
    ++stats_.submitted;
    req.id = stats_.submitted;
    queue_.push_back(std::move(req));
  }
  submittedTotal_->inc();
  queueDepth_->inc();
  cv_.notify_one();
  return fut;
}

bool DetectionServer::accepting() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return accepting_ && !stopping_;
}

std::size_t DetectionServer::queueDepth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void DetectionServer::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
}

void DetectionServer::workerLoop(std::size_t workerIndex) {
  if (cfg_.tracer)
    cfg_.tracer->nameThread("serve-worker-" + std::to_string(workerIndex));
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    finish(req, process(req));
  }
}

ServeResult DetectionServer::process(Request& req) {
  ServeResult res;
  // The request's wire trace id becomes this worker thread's ambient id
  // for the whole turnaround: the serve spans, latency exemplars, and
  // every span/log the evaluation emits below all correlate to it.
  const obs::ScopedTraceId traceScope(req.trace);
  const auto dequeued = std::chrono::steady_clock::now();
  res.queueSeconds = secondsSince(req.submitted, dequeued);
  queueDepth_->dec();
  queueHist_->observe(res.queueSeconds, req.trace);
  obs::TraceRecorder* const tracer = cfg_.tracer.get();
  if (tracer != nullptr)
    tracer->recordSpan("serve/queued", "serve", req.submitted, dequeued,
                       {"request", req.id});
  // Fast-fail requests that aged out — or were abandoned — while queued:
  // no context checkout, no evaluation, just a typed result.
  if ((req.deadline && dequeued >= *req.deadline) ||
      (req.cancel && req.cancel->cancelled())) {
    res.status = req.cancel && req.cancel->cancelled()
                     ? RequestStatus::kCancelled
                     : RequestStatus::kTimeout;
    runHist_->observe(0.0);
    if (tracer != nullptr)
      tracer->recordSpan("serve/run", "serve", dequeued, dequeued,
                         {"request", req.id}, {},
                         {"status", toString(res.status)});
    obs::logTo(cfg_.log.get(), obs::LogLevel::kWarn, "serve",
               "request dropped while queued", {"request", req.id}, {},
               {"status", toString(res.status)});
    return res;
  }
  inflight_->inc();
  engine::RunContext* ctx = pool_->checkout();
  ctx->setTraceId(req.trace);
  if (req.deadline) ctx->setDeadline(*req.deadline);
  // Bind the external cancel handle to this run: from here a
  // CancelSource::cancel() raises the context's cooperative flag (the
  // tiled path propagates primary-context cancellation to every helper).
  if (req.cancel) req.cancel->bind(ctx);
  const std::uint64_t arena0 = engine::arenaReservedBytes();
  const auto t0 = std::chrono::steady_clock::now();
  try {
    res.result =
        req.params.tiling.enabled()
            ? runTiled(req, *ctx)
            : core::evaluateLayout(*req.det, *req.layout, req.params, *ctx);
    res.status = RequestStatus::kOk;
  } catch (const engine::CancelledError&) {
    res.status = ctx->deadlineExpired() ? RequestStatus::kTimeout
                                        : RequestStatus::kCancelled;
  } catch (const std::exception& e) {
    res.status = RequestStatus::kError;
    res.error = e.what();
  } catch (...) {
    res.status = RequestStatus::kError;
    res.error = "unknown exception";
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (req.cancel) req.cancel->unbind();  // before checkin resets the ctx
  res.runSeconds = secondsSince(t0, t1);
  res.arenaReservedBytes = engine::arenaReservedBytes() - arena0;
  res.statsJson = ctx->stats().toJson();
  res.cacheStats = ctx->stats().cacheSnapshot();
  pool_->checkin(ctx);
  inflight_->dec();
  runHist_->observe(res.runSeconds, req.trace);
  if (tracer != nullptr)
    tracer->recordSpan("serve/run", "serve", t0, t1, {"request", req.id}, {},
                       {"status", toString(res.status)});
  obs::logTo(cfg_.log.get(),
             res.status == RequestStatus::kOk ? obs::LogLevel::kInfo
                                              : obs::LogLevel::kWarn,
             "serve", "request complete", {"request", req.id},
             {"runUs", std::uint64_t(res.runSeconds * 1e6)},
             {"status", toString(res.status)});
  return res;
}

core::EvalResult DetectionServer::runTiled(Request& req,
                                           engine::RunContext& primary) {
  const auto t0 = std::chrono::steady_clock::now();
  const Layer* l = req.layout->findLayer(req.det->params.layer);
  if (l == nullptr || l->empty()) return {};
  primary.throwIfCancelled();
  const core::TiledLayout tiled = core::prepareTiledLayout(
      *req.layout, req.det->params.layer, req.params);
  // Declared up front on the primary registry: helper-context counters
  // merge into pre-pinned slots, so the per-request ENGINE_STATS key
  // order never depends on which context finished which tile first.
  core::declareTileStages(primary.stats(), tiled,
                          primary.cache() != nullptr);

  const std::size_t n = tiled.work.size();
  std::size_t wantExtras = n > 0 ? n - 1 : 0;
  if (req.params.tiling.tileThreads > 0)
    wantExtras = std::min(wantExtras, req.params.tiling.tileThreads - 1);
  std::vector<engine::RunContext*> extras;
  while (extras.size() < wantExtras) {
    engine::RunContext* const c = pool_->tryCheckout();
    if (c == nullptr) break;  // pool busy: the primary context suffices
    c->setTraceId(req.trace);  // borrowed helpers join the correlation
    if (req.deadline) c->setDeadline(*req.deadline);
    extras.push_back(c);
  }

  // Shared tile queue: every participating context claims the next
  // un-started tile, biggest first (TiledLayout::claimOrder). Index-stable
  // result slots keep the outcome independent of claim order; the merge
  // re-sorts by anchor sequence.
  std::vector<core::TileEvalResult> tiles(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex errMu;
  std::exception_ptr firstError;
  const auto drain = [&](engine::RunContext& c) {
    // Helper threads have no ambient trace id of their own — adopt the
    // request's so tile spans/logs off the borrowed contexts correlate.
    const obs::ScopedTraceId traceScope(c.traceId());
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= n) return;
      const std::size_t i = tiled.claimOrder[k];
      try {
        tiles[i] = core::evaluateTile(*req.det, tiled, i, req.params, c);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(errMu);
          if (!firstError) firstError = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
        // Interrupt the other contexts' in-flight tiles promptly; every
        // context is reset at checkin, so cancellation doesn't leak.
        primary.requestCancel();
        for (engine::RunContext* const e : extras) e->requestCancel();
        return;
      }
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(extras.size());
  for (engine::RunContext* const e : extras)
    helpers.emplace_back([&drain, e] { drain(*e); });
  drain(primary);
  for (std::thread& h : helpers) h.join();
  for (engine::RunContext* const e : extras) {
    primary.stats().mergeFrom(e->stats());
    pool_->checkin(e);
  }
  if (firstError) std::rethrow_exception(firstError);
  return core::finishTiledEval(tiled, std::move(tiles), req.params, primary,
                               t0);
}

void DetectionServer::finish(Request& req, ServeResult res) {
  res.requestId = req.id;
  res.trace = req.trace;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    switch (res.status) {
      case RequestStatus::kOk: ++stats_.ok; break;
      case RequestStatus::kTimeout: ++stats_.timeout; break;
      case RequestStatus::kCancelled: ++stats_.cancelled; break;
      case RequestStatus::kError: ++stats_.error; break;
      case RequestStatus::kRejected: break;  // counted at submit
    }
    stats_.busySeconds += res.runSeconds;
  }
  statusTotal_[statusIndex(res.status)]->inc();
  // Per-request cache counters are deltas (the pooled context's stats are
  // wiped between requests), so summing them here yields server totals.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& [stage, c] : res.cacheStats) {
    hits += c.hits;
    misses += c.misses;
  }
  if (hits > 0) cacheHits_->inc(hits);
  if (misses > 0) cacheMisses_->inc(misses);
  if (req.callback) {
    try {
      req.callback(res);
    } catch (...) {  // a throwing callback must not kill the worker
    }
  }
  req.promise.set_value(std::move(res));
}

DetectionServer::Stats DetectionServer::stats() const {
  Stats s;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  if (cache_) s.cache = cache_->counters();
  return s;
}

std::string DetectionServer::statsJson() const {
  const Stats s = stats();
  const std::size_t lookups = s.cache.hits + s.cache.misses;
  std::ostringstream os;
  os.imbue(std::locale::classic());  // valid JSON under any global locale
  os.precision(6);
  os << std::fixed;
  os << "{\"requests\": {\"submitted\": " << s.submitted
     << ", \"completed\": " << s.completed << ", \"ok\": " << s.ok
     << ", \"timeout\": " << s.timeout << ", \"cancelled\": " << s.cancelled
     << ", \"error\": " << s.error << ", \"rejected\": " << s.rejected
     << "}, \"busySeconds\": " << s.busySeconds
     << ", \"workers\": " << cfg_.workers
     << ", \"contexts\": " << cfg_.contexts
     << ", \"threadsPerContext\": " << cfg_.threadsPerContext
     << ", \"cache\": {\"enabled\": " << (cache_ ? "true" : "false")
     << ", \"hits\": " << s.cache.hits << ", \"misses\": " << s.cache.misses
     << ", \"evictions\": " << s.cache.evictions
     << ", \"entries\": " << s.cache.entries << ", \"hitRate\": "
     << (lookups == 0 ? 0.0 : double(s.cache.hits) / double(lookups))
     << "}, \"latency\": {\"queueSeconds\": {\"p50\": "
     << queueHist_->quantile(0.50) << ", \"p95\": "
     << queueHist_->quantile(0.95) << ", \"p99\": "
     << queueHist_->quantile(0.99)
     << "}, \"runSeconds\": {\"p50\": " << runHist_->quantile(0.50)
     << ", \"p95\": " << runHist_->quantile(0.95)
     << ", \"p99\": " << runHist_->quantile(0.99) << "}, \"exemplars\": [";
  // Recent trace-id exemplars off the run histogram: one per bucket, so
  // a slow bucket hands you a concrete request to pull from /tracez.
  bool first = true;
  for (const obs::Histogram::Exemplar& e : runHist_->exemplars()) {
    if (!e.valid()) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"runSeconds\": " << e.value << ", \"trace\": \""
       << obs::formatTraceId(e.trace) << "\", \"unixMs\": " << e.unixMs
       << "}";
  }
  os << "]}}";
  return os.str();
}

}  // namespace hsd::serve
