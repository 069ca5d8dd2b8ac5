#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "serve/continuous_batcher.h"

namespace dtt {
namespace serve {

namespace {

/// The prompt cache's total entries, and the shards they spread over.
constexpr size_t kCacheCapacity = 1 << 14;
constexpr int kCacheShards = 8;

/// Process-wide serving metrics, shared across service instances (the
/// per-instance view is ServiceStats). Looked up once; incremented lock-
/// free afterwards.
struct ServeMetrics {
  obs::Counter* submitted;
  obs::Counter* rejected;
  obs::Counter* completed;
  obs::Counter* dedup_joins;
  obs::Counter* cache_hits;
  obs::Counter* batches;
  obs::Counter* prompts;
  obs::Histogram* queue_wait_ms;
  obs::Histogram* batch_size;
  obs::Histogram* request_ms;

  static const ServeMetrics& Get() {
    static const ServeMetrics metrics = [] {
      obs::MetricsRegistry& reg = obs::GlobalMetrics();
      ServeMetrics m;
      m.submitted = reg.GetCounter("serve.rows.submitted");
      m.rejected = reg.GetCounter("serve.rows.rejected");
      m.completed = reg.GetCounter("serve.rows.completed");
      m.dedup_joins = reg.GetCounter("serve.prompts.dedup_joins");
      m.cache_hits = reg.GetCounter("serve.prompts.cache_hits");
      m.batches = reg.GetCounter("serve.batches");
      m.prompts = reg.GetCounter("serve.prompts.decoded");
      m.queue_wait_ms = reg.GetHistogram("serve.queue_wait_ms");
      m.batch_size = reg.GetHistogram("serve.batch_size");
      m.request_ms = reg.GetHistogram("serve.request_ms");
      return m;
    }();
    return metrics;
  }
};

double MillisBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

std::string PromptCacheKey(size_t model_index, const Prompt& prompt) {
  std::string key = "m" + std::to_string(model_index);
  auto append = [&key](const std::string& field) {
    key += '|';
    key += std::to_string(field.size());
    key += ':';
    key += field;
  };
  for (const ExamplePair& ex : prompt.examples) {
    append(ex.source);
    append(ex.target);
  }
  key += "|#";
  append(prompt.source);
  // The decode budget is part of the prompt's identity: the same text under
  // a smaller budget decodes to a (possibly shorter) different output.
  if (prompt.max_output_tokens > 0) {
    key += "|b";
    key += std::to_string(prompt.max_output_tokens);
  }
  return key;
}

TransformService::TransformService(
    std::vector<std::shared_ptr<TextToTextModel>> models, ServeOptions options)
    : models_(std::move(models)),
      options_(std::move(options)),
      decomposer_(options_.decomposer),
      base_rng_(options_.seed),
      paused_(options_.start_paused) {
  if (options_.cache.enabled) {
    cache_ = std::make_unique<ShardedLruCache>(kCacheCapacity,
                                               kCacheShards, "serve.cache");
  }
  // num_threads <= 1 skips the worker pool entirely: batches run inline on
  // their backend's scheduler thread, so a default offline TransformAll
  // costs one thread per backend and nothing more.
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  backends_.reserve(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    auto backend = std::make_unique<Backend>();
    backend->model = models_[m];
    backend->opts = m < options_.backends.size() ? options_.backends[m]
                                                 : BackendQueueOptions{};
    backend->cacheable = models_[m]->deterministic();
    backends_.push_back(std::move(backend));
  }
  for (auto& backend : backends_) {
    // Capability probe for continuous batching: opted-in backends whose
    // model exposes a TokenStreamDecoder get the token-level scheduler;
    // everything else (simulated backends, beam mode) keeps micro-batching.
    if (backend->opts.continuous.enabled) {
      StreamDecoderOptions stream_options;
      stream_options.max_slots = std::max(1, backend->opts.continuous.max_slots);
      if (auto decoder = backend->model->NewStreamDecoder(stream_options)) {
        backend->continuous = std::make_unique<ContinuousBatcher>(
            this, backend.get(), std::move(decoder));
      }
    }
  }
  for (auto& backend : backends_) {
    backend->scheduler = std::thread([this, b = backend.get()] {
      if (b->continuous) {
        b->continuous->Loop();
      } else {
        SchedulerLoop(b);
      }
    });
  }
}

TransformService::TransformService(std::shared_ptr<TextToTextModel> model,
                                   ServeOptions options)
    : TransformService(
          std::vector<std::shared_ptr<TextToTextModel>>{std::move(model)},
          std::move(options)) {}

TransformService::~TransformService() {
  Start();  // a paused service must flush its queues before draining
  Drain();
  stopping_.store(true);
  for (auto& backend : backends_) {
    // Touch the mutex between the store and the notify so a scheduler
    // mid-predicate cannot miss the wakeup.
    { std::lock_guard<std::mutex> lock(backend->mu); }
    backend->cv.notify_all();
  }
  for (auto& backend : backends_) {
    if (backend->scheduler.joinable()) backend->scheduler.join();
  }
  pool_.reset();  // joins workers after running any stragglers
}

void TransformService::Start() {
  if (!paused_.exchange(false)) return;
  for (auto& backend : backends_) {
    { std::lock_guard<std::mutex> lock(backend->mu); }
    backend->cv.notify_all();
  }
}

void TransformService::Drain() {
  std::unique_lock<std::mutex> lock(admission_mu_);
  drain_cv_.wait(lock, [this] { return pending_rows_ == 0; });
}

Result<std::future<RowPrediction>> TransformService::Submit(
    const std::string& source, const std::vector<ExamplePair>& examples,
    std::function<void(const RowPrediction&)> on_complete) {
  return Submit(source, examples, SubmitOptions{}, std::move(on_complete));
}

Result<std::future<RowPrediction>> TransformService::Submit(
    const std::string& source, const std::vector<ExamplePair>& examples,
    const SubmitOptions& submit_options,
    std::function<void(const RowPrediction&)> on_complete) {
  obs::TraceSpan span("serve", "serve.submit");
  uint64_t request_index = 0;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    if (stopping_.load()) {
      rejected_.Increment();
      ServeMetrics::Get().rejected->Increment();
      return Status::Unavailable("service is shutting down");
    }
    if (pending_rows_ >= options_.max_pending_rows) {
      rejected_.Increment();
      ServeMetrics::Get().rejected->Increment();
      return Status::Unavailable("admission queue full (" +
                                 std::to_string(pending_rows_) +
                                 " rows in flight)");
    }
    ++pending_rows_;
    submitted_.Increment();
    request_index = next_request_++;
  }
  ServeMetrics::Get().submitted->Increment();
  span.Arg("request", static_cast<int64_t>(request_index));
  // The async pair brackets the request across threads: submit here, end
  // on whichever thread fills the last slot (serve.complete carries the
  // same request id as an arg).
  obs::EmitAsyncBegin("serve", "serve.request", request_index);

  auto row = std::make_shared<RowState>();
  row->source = source;
  row->on_complete = std::move(on_complete);
  row->request = request_index;
  row->admitted = std::chrono::steady_clock::now();
  std::future<RowPrediction> future = row->promise.get_future();

  // Materialize this request's prompts from its private RNG stream — the
  // same Fork(request).Fork(model) streams the offline TransformAll uses, so
  // request r here is bit-identical to row r there.
  Rng row_rng = base_rng_.Fork(request_index);
  std::vector<std::vector<Prompt>> prompts(models_.size());
  size_t total = 0;
  for (size_t m = 0; m < models_.size(); ++m) {
    Rng model_rng = row_rng.Fork(static_cast<uint64_t>(m));
    prompts[m] = decomposer_.MakePrompts(source, examples, &model_rng);
    if (submit_options.max_output_tokens > 0) {
      // Stamp the per-request decode budget before cache keys are derived —
      // it is part of the prompt's identity.
      for (Prompt& prompt : prompts[m]) {
        prompt.max_output_tokens = submit_options.max_output_tokens;
      }
    }
    total += prompts[m].size();
  }
  row->outputs.resize(models_.size());
  for (size_t m = 0; m < models_.size(); ++m) {
    row->outputs[m].resize(prompts[m].size());
  }
  row->remaining.store(total, std::memory_order_relaxed);
  if (total == 0) {
    // No examples -> no prompts: complete immediately as all-abstained.
    FinalizeRow(row);
    return future;
  }

  for (size_t m = 0; m < models_.size(); ++m) {
    Backend& backend = *backends_[m];
    for (size_t t = 0; t < prompts[m].size(); ++t) {
      std::string key;
      if (cache_ && backend.cacheable) {
        key = PromptCacheKey(m, prompts[m][t]);
      }
      enum class Disposition { kEnqueued, kJoinedInflight, kCacheHit };
      Disposition disposition = Disposition::kEnqueued;
      std::string cached;
      {
        // Cache and in-flight map are probed under the queue lock, the same
        // lock RunBatch holds while retiring an in-flight entry (after its
        // cache Put), so exactly one of the three dispositions holds and a
        // prompt can never be lost between them.
        std::lock_guard<std::mutex> lock(backend.mu);
        if (!key.empty()) {
          if (auto hit = cache_->Get(key)) {
            cached = std::move(*hit);
            disposition = Disposition::kCacheHit;
          } else if (auto it = backend.inflight.find(key);
                     it != backend.inflight.end()) {
            // An identical prompt is already queued or decoding: piggyback
            // on its result instead of decoding twice.
            it->second.push_back({row, m, t});
            dedup_joins_.Increment();
            ServeMetrics::Get().dedup_joins->Increment();
            disposition = Disposition::kJoinedInflight;
          } else {
            backend.inflight.emplace(key, std::vector<WaitingSlot>{});
          }
        }
        if (disposition == Disposition::kEnqueued) {
          Task task;
          task.row = row;
          task.model = m;
          task.trial = t;
          task.prompt = std::move(prompts[m][t]);
          task.key = key;
          task.enqueued = std::chrono::steady_clock::now();
          backend.queue.push_back(std::move(task));
        }
      }
      if (disposition == Disposition::kEnqueued) {
        backend.cv.notify_one();
      } else if (disposition == Disposition::kCacheHit) {
        ServeMetrics::Get().cache_hits->Increment();
        FillSlot(row, m, t, cached);
      }
    }
  }
  return future;
}

void TransformService::SchedulerLoop(Backend* backend) {
  std::unique_lock<std::mutex> lock(backend->mu);
  for (;;) {
    backend->cv.wait(lock, [&] {
      return stopping_.load() ||
             (!paused_.load() && !backend->queue.empty());
    });
    if (backend->queue.empty()) {
      if (stopping_.load()) return;
      continue;
    }
    const size_t max_batch =
        static_cast<size_t>(std::max(1, backend->opts.max_batch));
    if (backend->queue.size() < max_batch && backend->opts.max_wait_ms > 0 &&
        !stopping_.load()) {
      // Dynamic micro-batch window: give the partial batch a chance to fill
      // before dispatching it.
      const auto deadline =
          backend->queue.front().enqueued +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(
                  backend->opts.max_wait_ms));
      backend->cv.wait_until(lock, deadline, [&] {
        return stopping_.load() || backend->queue.size() >= max_batch;
      });
      if (backend->queue.empty()) continue;
    }
    std::vector<Task> batch;
    const size_t n = std::min(max_batch, backend->queue.size());
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(backend->queue.front()));
      backend->queue.pop_front();
    }
    lock.unlock();
    if (pool_ && backend->model->thread_safe()) {
      // Thread-safe backends share the worker pool, so this backend's next
      // batch (and other backends' batches) can overlap with this one.
      auto shared = std::make_shared<std::vector<Task>>(std::move(batch));
      pool_->Submit(
          [this, backend, shared] { RunBatch(backend, std::move(*shared)); });
    } else {
      // Stateful backends (and everything when the pool is disabled) run
      // inline: one batch at a time per backend, in FIFO order.
      RunBatch(backend, std::move(batch));
    }
    lock.lock();
  }
}

void TransformService::RunBatch(Backend* backend, std::vector<Task> batch) {
  const ServeMetrics& metrics = ServeMetrics::Get();
  const auto batch_start = std::chrono::steady_clock::now();
  for (const Task& task : batch) {
    // Queue wait = admission-side enqueue to micro-batch dispatch; the
    // trace span is emitted retroactively with its true endpoints so the
    // request's span tree shows where the time went.
    metrics.queue_wait_ms->Record(MillisBetween(task.enqueued, batch_start));
    if (obs::TracingEnabled()) {
      obs::EmitSpan(
          "serve", "serve.queue_wait", task.enqueued, batch_start,
          {obs::IntArg("request", static_cast<int64_t>(task.row->request)),
           obs::IntArg("model", static_cast<int64_t>(task.model)),
           obs::IntArg("trial", static_cast<int64_t>(task.trial))});
    }
  }
  metrics.batch_size->Record(static_cast<double>(batch.size()));
  obs::TraceSpan span("serve", "serve.batch");
  if (span.enabled()) {
    span.Arg("backend", backend->model->name());
    span.Arg("batch_size", static_cast<int64_t>(batch.size()));
    span.Arg("request0", static_cast<int64_t>(batch[0].row->request));
  }
  std::vector<Prompt> prompts;
  prompts.reserve(batch.size());
  for (Task& task : batch) prompts.push_back(std::move(task.prompt));
  const std::vector<Result<std::string>> results =
      backend->model->TransformBatch(prompts);
  backend->batches.Increment();
  backend->prompts.Add(batch.size());
  metrics.batches->Increment();
  metrics.prompts->Add(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Task& task = batch[i];
    const std::string output =
        i < results.size() ? OutputOrAbstain(results[i]) : std::string();
    CompleteTask(backend, task, output);
  }
}

void TransformService::CompleteTask(Backend* backend, Task& task,
                                    const std::string& output) {
  std::vector<WaitingSlot> waiters;
  if (!task.key.empty()) {
    // Publish to the cache BEFORE dropping the inflight entry: a Submit
    // that misses the cache is then guaranteed to either join the entry
    // or hit the cache on its locked re-check.
    cache_->Put(task.key, output);
    std::lock_guard<std::mutex> lock(backend->mu);
    auto it = backend->inflight.find(task.key);
    if (it != backend->inflight.end()) {
      waiters = std::move(it->second);
      backend->inflight.erase(it);
    }
  }
  FillSlot(task.row, task.model, task.trial, output);
  for (const WaitingSlot& waiter : waiters) {
    FillSlot(waiter.row, waiter.model, waiter.trial, output);
  }
}

void TransformService::FillSlot(const std::shared_ptr<RowState>& row,
                                size_t model, size_t trial,
                                const std::string& output) {
  row->outputs[model][trial] = output;
  // Slot writes are released by the decrement and acquired by the thread
  // that observes zero, so the finalizer sees every trial.
  if (row->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinalizeRow(row);
  }
}

void TransformService::FinalizeRow(const std::shared_ptr<RowState>& row) {
  {
    obs::TraceSpan span("serve", "serve.complete");
    span.Arg("request", static_cast<int64_t>(row->request));
    RowPrediction pred;
    pred.source = row->source;
    AggregateResult agg = aggregator_.AggregateMulti(row->outputs);
    pred.prediction = agg.prediction;
    pred.confidence = agg.confidence;
    pred.support = agg.support;
    row->promise.set_value(pred);
    if (row->on_complete) row->on_complete(pred);
  }
  ServeMetrics::Get().request_ms->Record(
      MillisBetween(row->admitted, std::chrono::steady_clock::now()));
  ServeMetrics::Get().completed->Increment();
  obs::EmitAsyncEnd("serve", "serve.request", row->request);
  completed_.Increment();
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --pending_rows_;
  }
  drain_cv_.notify_all();
}

ServiceStats TransformService::stats() const {
  // Every field is an atomic counter (or the cache's own atomic stats), so
  // this snapshot takes no locks and is safe mid-traffic; fields read at
  // slightly different instants may be one event apart, never torn.
  ServiceStats stats;
  stats.submitted = submitted_.Value();
  stats.rejected = rejected_.Value();
  stats.completed = completed_.Value();
  stats.dedup_joins = dedup_joins_.Value();
  if (cache_) stats.cache = cache_->stats();
  stats.backends.reserve(backends_.size());
  for (const auto& backend : backends_) {
    BackendStats bs;
    bs.name = backend->model->name();
    bs.batches = backend->batches.Value();
    bs.prompts = backend->prompts.Value();
    bs.mean_batch_size =
        bs.batches == 0
            ? 0.0
            : static_cast<double>(bs.prompts) / static_cast<double>(bs.batches);
    if (backend->continuous) {
      bs.continuous = true;
      bs.cb_admitted = backend->continuous->admitted();
      bs.cb_admit_groups = backend->continuous->admit_groups();
      bs.cb_steps = backend->continuous->steps();
      bs.cb_evicted = backend->continuous->evicted();
    }
    stats.backends.push_back(bs);
  }
  return stats;
}

}  // namespace serve
}  // namespace dtt
