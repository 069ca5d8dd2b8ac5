#include "serve/model_registry.h"

#include <chrono>
#include <utility>

#include "io/model_artifact.h"
#include "models/neural_model.h"

namespace dtt {
namespace serve {

ModelRegistry::ModelRegistry(ModelRegistryOptions options)
    : options_(std::move(options)) {
  auto& metrics = obs::MetricsRegistry::Global();
  load_ms_metric_ = metrics.GetHistogram("registry.load_ms");
  loads_metric_ = metrics.GetCounter("registry.loads");
  resident_bytes_metric_ = metrics.GetGauge("registry.resident_bytes");
  resident_models_metric_ = metrics.GetGauge("registry.resident_models");
  evictions_metric_ = metrics.GetCounter("registry.evictions");
  hits_metric_ = metrics.GetCounter("registry.hits");
  misses_metric_ = metrics.GetCounter("registry.misses");
  rejected_metric_ = metrics.GetCounter("registry.rejected");
}

ModelRegistry::~ModelRegistry() {
  std::vector<std::shared_ptr<Resident>> retired;
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    loading_cv_.notify_all();
    // Wait out any loader running off-lock; it re-checks stopping_ when it
    // comes back and retires its result instead of installing it.
    loading_cv_.wait(lock, [this] {
      for (const auto& [key, entry] : entries_) {
        if (entry.loading) return false;
      }
      return true;
    });
    for (auto& [key, entry] : entries_) {
      if (entry.resident != nullptr) retired.push_back(std::move(entry.resident));
    }
  }
  // Destroy services outside the lock: each destructor drains its in-flight
  // rows, whose completion callbacks take mu_ to release their pins.
  retired.clear();
}

Status ModelRegistry::Register(const std::string& key, BackendLoader loader) {
  if (key.empty()) {
    return Status::InvalidArgument("model key must be non-empty");
  }
  if (loader == nullptr) {
    return Status::InvalidArgument("null loader for model key: " + key);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.loader = std::move(loader);
  if (!entries_.emplace(key, std::move(entry)).second) {
    return Status::InvalidArgument("duplicate model key: " + key);
  }
  return Status::OK();
}

Status ModelRegistry::EnsureResidentLocked(
    const std::string& key, Entry* entry, std::unique_lock<std::mutex>* lock,
    std::vector<std::shared_ptr<Resident>>* retired) {
  for (;;) {
    if (stopping_) return Status::Unavailable("model registry shutting down");
    if (entry->resident != nullptr) {
      ++hits_;
      hits_metric_->Increment();
      return Status::OK();
    }
    if (!entry->loading) break;
    loading_cv_.wait(*lock);
  }

  // This thread becomes the loader; concurrent submits for the same key wait
  // on loading_cv_ above instead of loading twice.
  entry->loading = true;
  ++misses_;
  misses_metric_->Increment();
  lock->unlock();
  const auto t0 = std::chrono::steady_clock::now();
  Result<LoadedBackend> loaded = entry->loader();
  const double load_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  lock->lock();
  entry->loading = false;
  loading_cv_.notify_all();
  if (!loaded.ok()) return loaded.status();
  LoadedBackend backend = std::move(loaded.value());
  if (backend.model == nullptr || backend.resident_bytes == 0) {
    return Status::Internal("loader for model '" + key +
                            "' returned no model or a zero footprint");
  }
  if (stopping_) {
    retired->push_back(std::make_shared<Resident>(
        Resident{std::move(backend), nullptr}));
    return Status::Unavailable("model registry shutting down");
  }
  load_ms_metric_->Record(load_ms);

  // Make room: evict cold models, LRU first, until the new backend fits.
  // Pinned (inflight > 0) models are never touched — the cap sheds the NEW
  // load, not anyone already being served.
  while (resident_bytes_ + backend.resident_bytes >
             options_.max_resident_bytes &&
         EvictOneLocked(entry, retired)) {
  }
  if (resident_bytes_ + backend.resident_bytes > options_.max_resident_bytes) {
    ++rejected_;
    rejected_metric_->Increment();
    retired->push_back(std::make_shared<Resident>(
        Resident{std::move(backend), nullptr}));
    return Status::Unavailable(
        "model '" + key + "' (" + std::to_string(backend.resident_bytes) +
        " bytes) does not fit under max_resident_bytes with current "
        "in-flight traffic; retry later");
  }

  auto resident = std::make_shared<Resident>();
  resident->backend = std::move(backend);
  resident->service = std::make_unique<TransformService>(
      resident->backend.model, options_.serve);
  resident_bytes_ += resident->backend.resident_bytes;
  ++resident_models_;
  entry->resident = std::move(resident);
  ++entry->loads;
  ++loads_;
  loads_metric_->Increment();
  UpdateResidentGauges();
  return Status::OK();
}

bool ModelRegistry::EvictOneLocked(
    const Entry* except, std::vector<std::shared_ptr<Resident>>* retired) {
  Entry* victim = nullptr;
  for (auto& [key, entry] : entries_) {
    if (&entry == except || entry.resident == nullptr || entry.inflight > 0) {
      continue;
    }
    if (victim == nullptr || entry.last_used < victim->last_used) {
      victim = &entry;
    }
  }
  if (victim == nullptr) return false;
  resident_bytes_ -= victim->resident->backend.resident_bytes;
  --resident_models_;
  retired->push_back(std::move(victim->resident));
  victim->resident = nullptr;
  ++victim->evictions;
  ++evictions_total_;
  evictions_metric_->Increment();
  UpdateResidentGauges();
  return true;
}

void ModelRegistry::UpdateResidentGauges() const {
  resident_bytes_metric_->Set(static_cast<int64_t>(resident_bytes_));
  resident_models_metric_->Set(static_cast<int64_t>(resident_models_));
}

Result<std::future<RowPrediction>> ModelRegistry::Submit(
    const std::string& key, const std::string& source,
    const std::vector<ExamplePair>& examples,
    std::function<void(const RowPrediction&)> on_complete) {
  std::vector<std::shared_ptr<Resident>> retired;
  std::shared_ptr<Resident> resident;
  Entry* entry = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound("unknown model key: " + key);
    }
    entry = &it->second;
    Status status = EnsureResidentLocked(key, entry, &lock, &retired);
    if (!status.ok()) {
      lock.unlock();
      retired.clear();
      return status;
    }
    // Pin before unlocking: a pinned model is never evicted, and the
    // shared_ptr keeps the service alive through the Submit call even if
    // the pin is released on a worker thread mid-call.
    ++entry->inflight;
    entry->last_used = ++tick_;
    resident = entry->resident;
  }
  retired.clear();  // evicted services drain and die outside the lock

  auto wrapped = [this, entry, user = std::move(on_complete)](
                     const RowPrediction& prediction) {
    if (user) user(prediction);
    std::lock_guard<std::mutex> lock(mu_);
    --entry->inflight;
  };
  Result<std::future<RowPrediction>> submitted =
      resident->service->Submit(source, examples, std::move(wrapped));
  if (!submitted.ok()) {
    // Submit backpressure (or any refusal): the row never entered the
    // service, so its completion callback will not fire — unpin here.
    std::lock_guard<std::mutex> lock(mu_);
    --entry->inflight;
    ++rejected_;
    rejected_metric_->Increment();
  }
  return submitted;
}

Status ModelRegistry::Preload(const std::string& key) {
  std::vector<std::shared_ptr<Resident>> retired;
  Status status;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound("unknown model key: " + key);
    }
    status = EnsureResidentLocked(key, &it->second, &lock, &retired);
    if (status.ok()) it->second.last_used = ++tick_;
  }
  retired.clear();
  return status;
}

Status ModelRegistry::Evict(const std::string& key) {
  std::shared_ptr<Resident> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound("unknown model key: " + key);
    }
    Entry& entry = it->second;
    if (entry.resident == nullptr) return Status::OK();
    if (entry.inflight > 0) {
      return Status::FailedPrecondition(
          "model '" + key + "' has " + std::to_string(entry.inflight) +
          " rows in flight");
    }
    resident_bytes_ -= entry.resident->backend.resident_bytes;
    --resident_models_;
    retired = std::move(entry.resident);
    entry.resident = nullptr;
    ++entry.evictions;
    ++evictions_total_;
    evictions_metric_->Increment();
    UpdateResidentGauges();
  }
  retired.reset();  // service drains (inflight == 0, so instantly) off-lock
  return Status::OK();
}

bool ModelRegistry::resident(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.resident != nullptr;
}

ModelRegistryStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ModelRegistryStats stats;
  stats.resident_bytes = resident_bytes_;
  stats.resident_models = resident_models_;
  stats.loads = loads_;
  stats.evictions = evictions_total_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.rejected = rejected_;
  stats.models.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    ModelEntryStats m;
    m.key = key;
    m.resident = entry.resident != nullptr;
    m.resident_bytes =
        m.resident ? entry.resident->backend.resident_bytes : 0;
    m.inflight = entry.inflight;
    m.loads = entry.loads;
    m.evictions = entry.evictions;
    stats.models.push_back(std::move(m));
  }
  return stats;
}

BackendLoader ArtifactBackendLoader(
    std::string path, nn::TransformerConfig config,
    std::function<std::shared_ptr<TextToTextModel>(
        std::shared_ptr<nn::Transformer>)>
        make_model,
    io::ArtifactOpenOptions open_options) {
  return [path = std::move(path), config = std::move(config),
          make_model = std::move(make_model),
          open_options]() -> Result<LoadedBackend> {
    DTT_ASSIGN_OR_RETURN(io::ArtifactModel loaded,
                         io::LoadArtifact(path, config, open_options));
    LoadedBackend backend;
    backend.keep_alive = loaded.artifact;
    backend.resident_bytes = loaded.artifact->file_bytes();
    backend.model = make_model(std::move(loaded.model));
    if (backend.model == nullptr) {
      return Status::Internal("make_model returned null for " + path);
    }
    if (backend.resident_bytes == 0) backend.resident_bytes = 1;
    return backend;
  };
}

}  // namespace serve
}  // namespace dtt
