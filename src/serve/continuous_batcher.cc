#include "serve/continuous_batcher.h"

#include <chrono>
#include <utility>

#include "obs/trace.h"

namespace dtt {
namespace serve {

namespace {

/// Process-wide continuous-batching metrics (the per-backend view lives on
/// the ContinuousBatcher's own counters, surfaced via stats()).
struct CbMetrics {
  obs::Counter* admitted;
  obs::Counter* admit_groups;
  obs::Counter* steps;
  obs::Counter* evicted;
  obs::Gauge* slots_active;
  obs::Histogram* admit_group_size;

  static const CbMetrics& Get() {
    static const CbMetrics metrics = [] {
      obs::MetricsRegistry& reg = obs::GlobalMetrics();
      CbMetrics m;
      m.admitted = reg.GetCounter("serve.cb.admitted");
      m.admit_groups = reg.GetCounter("serve.cb.admit_groups");
      m.steps = reg.GetCounter("serve.cb.steps");
      m.evicted = reg.GetCounter("serve.cb.evicted");
      m.slots_active = reg.GetGauge("serve.cb.slots_active");
      m.admit_group_size = reg.GetHistogram("serve.cb.admit_group_size");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

ContinuousBatcher::ContinuousBatcher(TransformService* service,
                                     TransformService::Backend* backend,
                                     std::unique_ptr<TokenStreamDecoder> decoder)
    : service_(service), backend_(backend), decoder_(std::move(decoder)) {}

ContinuousBatcher::~ContinuousBatcher() = default;

size_t ContinuousBatcher::PrepareAhead() const {
  // Pool workers prepare up to a full batch ahead, so freed slots refill
  // without waiting for an encode. Inline, an encode ahead of admission
  // would only delay the resident rows' next step, so prepare just what
  // the free slots can take.
  return static_cast<size_t>(service_->pool_ ? decoder_->max_slots()
                                             : decoder_->free_slots());
}

bool ContinuousBatcher::Runnable() const {
  const bool launchable =
      launched_ < pending_.size() && launched_ < PrepareAhead();
  // A prepared head is admissible: the batch is empty or stepping anyway.
  return !backend_->queue.empty() || decoder_->active_slots() > 0 ||
         launchable || (!pending_.empty() && pending_.front()->prepared);
}

void ContinuousBatcher::Loop() {
  std::unique_lock<std::mutex> lock(backend_->mu);
  for (;;) {
    // pending_, launched_ and the decoder's slots are written only by this
    // thread; the queue and the prepared flags change under the lock held
    // here, and every change (queue pushes, prepare completions, Start(),
    // shutdown) notifies the cv. Stopping returns only once nothing is
    // queued, preparing, pending or resident.
    backend_->cv.wait(lock, [&] {
      return (!service_->paused_.load() && Runnable()) ||
             (service_->stopping_.load() && backend_->queue.empty() &&
              pending_.empty() && decoder_->active_slots() == 0);
    });
    if (!Runnable()) return;
    // Take every queued task; later arrivals get the next iteration (which
    // follows immediately while anything is resident — no sleeping between
    // steps, so admission latency is bounded by one decode step).
    std::deque<TransformService::Task> raw;
    raw.swap(backend_->queue);
    lock.unlock();

    for (TransformService::Task& task : raw) {
      auto entry = std::make_shared<PendingTask>();
      entry->task = std::move(task);
      pending_.push_back(std::move(entry));
    }
    LaunchPrepares();
    AdmitPrepared();
    if (decoder_->active_slots() > 0) StepOnce();

    lock.lock();
  }
}

void ContinuousBatcher::RecordQueueWait(const TransformService::Task& task) {
  const auto now = std::chrono::steady_clock::now();
  obs::GlobalMetrics()
      .GetHistogram("serve.queue_wait_ms")
      ->Record(std::chrono::duration<double, std::milli>(now - task.enqueued)
                   .count());
  if (obs::TracingEnabled()) {
    obs::EmitSpan(
        "serve", "serve.queue_wait", task.enqueued, now,
        {obs::IntArg("request", static_cast<int64_t>(task.row->request)),
         obs::IntArg("model", static_cast<int64_t>(task.model)),
         obs::IntArg("trial", static_cast<int64_t>(task.trial))});
  }
}

void ContinuousBatcher::LaunchPrepares() {
  const size_t ahead = PrepareAhead();
  while (launched_ < pending_.size() && launched_ < ahead) {
    std::shared_ptr<PendingTask> entry = pending_[launched_++];
    if (service_->pool_) {
      service_->pool_->Submit([this, entry] { RunPrepare(entry.get()); });
    } else {
      RunPrepare(entry.get());
    }
  }
}

void ContinuousBatcher::RunPrepare(PendingTask* entry) {
  {
    obs::TraceSpan span("serve", "serve.cb.prepare");
    if (span.enabled()) {
      span.Arg("request", static_cast<int64_t>(entry->task.row->request));
      span.Arg("model", static_cast<int64_t>(entry->task.model));
      span.Arg("trial", static_cast<int64_t>(entry->task.trial));
    }
    entry->result = decoder_->Prepare(entry->task.prompt);
  }
  // Publish and notify under the lock: the scheduler cannot miss the
  // wakeup, and cannot leave Loop() (it retakes the lock first) until this
  // section, the last touch of the batcher by a pool task, has ended.
  std::lock_guard<std::mutex> lock(backend_->mu);
  entry->prepared = true;
  backend_->cv.notify_all();
}

void ContinuousBatcher::AdmitPrepared() {
  const CbMetrics& metrics = CbMetrics::Get();
  // Compose one admission group from the FIFO prefix of prepared prompts:
  // cut at the first prompt still preparing or at the free slots.
  size_t ready = 0;
  {
    std::lock_guard<std::mutex> lock(backend_->mu);
    while (ready < launched_ && pending_[ready]->prepared) ++ready;
  }
  const size_t free = static_cast<size_t>(decoder_->free_slots());
  std::vector<std::shared_ptr<PendingTask>> group;
  for (; ready > 0; --ready) {
    PendingTask& head = *pending_.front();
    if (!head.result->ok()) {
      // Same error policy as the micro-batch path: model errors become
      // abstentions, published through the full completion machinery.
      RecordQueueWait(head.task);
      service_->CompleteTask(backend_, head.task,
                             OutputOrAbstain(head.result->status()));
      pending_.pop_front();
      --launched_;
      continue;
    }
    if (group.size() >= free) break;
    group.push_back(std::move(pending_.front()));
    pending_.pop_front();
    --launched_;
  }
  if (group.empty()) return;

  obs::TraceSpan span("serve", "serve.cb.admit");
  if (span.enabled()) {
    span.Arg("backend", backend_->model->name());
    span.Arg("group", static_cast<int64_t>(group.size()));
    span.Arg("active", static_cast<int64_t>(decoder_->active_slots()));
    span.Arg("request0", static_cast<int64_t>(group[0]->task.row->request));
  }
  std::vector<PreparedPrompt> prepared;
  prepared.reserve(group.size());
  for (const std::shared_ptr<PendingTask>& member : group) {
    RecordQueueWait(member->task);
    prepared.push_back(std::move(*member->result).value());
  }
  std::vector<int> slots = decoder_->Admit(prepared);
  for (size_t i = 0; i < group.size(); ++i) {
    resident_[slots[i]] = std::move(group[i]->task);
  }
  backend_->prompts.Add(group.size());
  admitted_.Add(group.size());
  admit_groups_.Increment();
  metrics.admitted->Add(group.size());
  metrics.admit_groups->Increment();
  metrics.admit_group_size->Record(static_cast<double>(group.size()));
  metrics.slots_active->Set(decoder_->active_slots());
}

void ContinuousBatcher::StepOnce() {
  const CbMetrics& metrics = CbMetrics::Get();
  obs::TraceSpan span("serve", "serve.cb.step");
  if (span.enabled()) {
    span.Arg("backend", backend_->model->name());
    span.Arg("active", static_cast<int64_t>(decoder_->active_slots()));
  }
  std::vector<TokenStreamDecoder::Finished> finished = decoder_->Step();
  steps_.Increment();
  metrics.steps->Increment();
  // Step() has already freed the finished slots; publish that before the
  // completions, so a caller woken by its last row reads the settled gauge.
  if (!finished.empty()) {
    metrics.slots_active->Set(decoder_->active_slots());
  }
  for (TokenStreamDecoder::Finished& fin : finished) {
    auto it = resident_.find(fin.slot);
    TransformService::Task task = std::move(it->second);
    resident_.erase(it);
    evicted_.Increment();
    metrics.evicted->Increment();
    service_->CompleteTask(backend_, task, fin.output);
  }
}

}  // namespace serve
}  // namespace dtt
