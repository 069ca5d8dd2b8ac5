#ifndef DTT_SERVE_SERVICE_H_
#define DTT_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/aggregator.h"
#include "core/pipeline.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "serve/lru_cache.h"
#include "text/decomposer.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dtt {
namespace serve {

class ContinuousBatcher;

/// Per-request Submit knobs.
struct SubmitOptions {
  /// Decode-step budget applied to every prompt of this row; 0 = each
  /// backend's configured maximum (see Prompt::max_output_tokens).
  int max_output_tokens = 0;
};

/// Continuous (token-level) batching knobs of one backend. When enabled and
/// the backend's model exposes a TokenStreamDecoder (the neural transformer
/// in greedy mode), the backend's scheduler runs the decode step loop
/// instead of fixed micro-batches: queued prompts are admitted into KV-cache
/// slots freed by finished sequences mid-decode, so one long decode no
/// longer convoys its batch-mates. Backends without the capability silently
/// keep micro-batching. Per-request outputs are bit-identical either way
/// (serve_continuous_test).
struct ContinuousOptions {
  bool enabled = false;
  /// Resident sequences the decode batch can hold (KV-cache slots) — the
  /// one bound on admission. The decoder allocates every slot's whole KV
  /// region up front.
  int max_slots = 8;
};

/// Micro-batching knobs of one backend queue. Every attached model gets its
/// own queue so a slow neural backend and fast simulated backends overlap
/// instead of convoying behind each other.
struct BackendQueueOptions {
  /// Coalesce up to this many pending prompts per TransformBatch dispatch.
  /// 1 sends every prompt alone (a backend's TransformBatch of one).
  int max_batch = 16;
  /// How long a partial batch may wait for more prompts before it is
  /// flushed anyway (the dynamic micro-batch window). 0 = flush whatever is
  /// pending as soon as the scheduler wakes (lowest latency, thinnest
  /// batches under trickle traffic).
  double max_wait_ms = 0.0;
  /// Token-level scheduling; ignored by backends without the capability.
  ContinuousOptions continuous;
};

/// Prompt-dedup result cache configuration (sized in service.cc).
struct CacheOptions {
  bool enabled = true;
};

struct ServeOptions {
  /// Decomposition (k examples per context, n trials per row), identical in
  /// meaning to PipelineOptions::decomposer.
  DecomposerOptions decomposer;
  /// Per-backend queue options; backends beyond the vector's length use the
  /// defaults.
  std::vector<BackendQueueOptions> backends;
  /// Worker threads shared by all thread-safe backends. Backends that are
  /// not thread_safe() run their batches inline on their scheduler thread,
  /// serialized per backend. 1 disables the pool entirely — every backend
  /// runs inline, so a service costs one scheduler thread per backend.
  int num_threads = 1;
  /// Bound on rows in flight: Submit returns Status::Unavailable once this
  /// many accepted rows are still in flight (backpressure).
  size_t max_pending_rows = 1024;
  CacheOptions cache;
  /// Base seed of the per-request RNG streams: request r's trial contexts
  /// come from Rng(seed).Fork(r).Fork(model), exactly the per-row streams of
  /// DttPipeline::TransformAll — submitting rows 0..n-1 in order reproduces
  /// the offline path bit-for-bit.
  uint64_t seed = 0x9E3779B97F4A7C15ULL;
  /// Construct the service with the batch schedulers paused; no batch is cut
  /// until Start(). Lets an offline caller enqueue a whole table first so
  /// batches fill completely (DttPipeline::TransformAll uses this).
  bool start_paused = false;
};

/// Per-backend serving counters (a point-in-time snapshot; the live values
/// are obs::Counter instances on the backend, safe to read mid-traffic).
struct BackendStats {
  std::string name;
  uint64_t batches = 0;        // TransformBatch dispatches
  uint64_t prompts = 0;        // prompts decoded by the model
  double mean_batch_size = 0.0;
  /// Continuous-batching counters; all zero on micro-batching backends.
  bool continuous = false;
  uint64_t cb_admitted = 0;      // sequences admitted into slots
  uint64_t cb_admit_groups = 0;  // admission groups (Admit calls)
  uint64_t cb_steps = 0;         // decode steps run
  uint64_t cb_evicted = 0;       // sequences that left their slot
};

/// Aggregate service counters. A snapshot: stats() assembles it from the
/// service's atomic obs::Counter members, so schedulers and workers keep
/// mutating freely while it is read — no mutex, no torn values.
struct ServiceStats {
  uint64_t submitted = 0;   // rows accepted
  uint64_t rejected = 0;    // rows refused with Unavailable
  uint64_t completed = 0;   // rows whose future was fulfilled
  uint64_t dedup_joins = 0; // prompts that piggybacked on an identical
                            // in-flight prompt instead of decoding
  LruCacheStats cache;
  std::vector<BackendStats> backends;
};

/// The transformation-serving subsystem: an asynchronous front end over the
/// DTT decompose→transform→aggregate path.
///
///   * Submit(source, examples) admits one row, fans it out into
///     (model, trial) prompts, and returns a future RowPrediction; a bounded
///     admission queue sheds load with a typed Unavailable status.
///   * Each backend owns a queue plus a dynamic micro-batch scheduler that
///     coalesces pending prompts into batches of up to max_batch, waiting at
///     most max_wait_ms for a partial batch to fill; batches of thread-safe
///     backends are dispatched on a shared util/thread_pool, so fast and
///     slow backends overlap. Batches go through TransformBatch, so a
///     neural backend decodes the whole batch in lockstep — greedy via
///     GenerateBatch, beam (beam_size > 1) via BeamDecodeBatch — and beam
///     requests micro-batch exactly like greedy ones.
///   * A sharded LRU cache keyed by the exact serialized prompt sits in
///     front of model calls: identical prompts across trials, rows and
///     requests reuse the first decode (prompt-level KV reuse). In-flight
///     duplicates coalesce onto the pending decode instead of queueing a
///     second one. Only pure backends (deterministic(): output is a
///     function of the prompt alone) are cached, so results are identical
///     with the cache on or off.
///
/// Determinism: outputs land in per-(row, model, trial) slots and each row
/// aggregates only after its last slot fills, so for a fixed submission
/// order predictions are bit-identical for any queue depth, batch size,
/// thread count, or completion schedule.
class TransformService {
 public:
  TransformService(std::vector<std::shared_ptr<TextToTextModel>> models,
                   ServeOptions options = {});
  /// Single-backend convenience constructor.
  TransformService(std::shared_ptr<TextToTextModel> model,
                   ServeOptions options = {});

  /// Drains accepted requests, then stops schedulers and workers.
  ~TransformService();

  TransformService(const TransformService&) = delete;
  TransformService& operator=(const TransformService&) = delete;

  /// Admits one row. On acceptance returns a future that yields the
  /// aggregated prediction; `on_complete`, if given, additionally fires on
  /// the completing thread right after the future is fulfilled (latency
  /// stamping in load generators, streaming responses). Returns
  /// Status::Unavailable when max_pending_rows rows are already in flight.
  Result<std::future<RowPrediction>> Submit(
      const std::string& source, const std::vector<ExamplePair>& examples,
      std::function<void(const RowPrediction&)> on_complete = nullptr);

  /// Submit with per-request options (e.g. a decode budget).
  Result<std::future<RowPrediction>> Submit(
      const std::string& source, const std::vector<ExamplePair>& examples,
      const SubmitOptions& submit_options,
      std::function<void(const RowPrediction&)> on_complete = nullptr);

  /// Releases the schedulers of a start_paused service. No-op otherwise.
  void Start();

  /// Blocks until every accepted row has completed. Call Start() first on a
  /// paused service or this deadlocks by design.
  void Drain();

  ServiceStats stats() const;

 private:
  /// One admitted row: output slots plus the completion latch.
  struct RowState {
    std::string source;
    std::promise<RowPrediction> promise;
    std::function<void(const RowPrediction&)> on_complete;
    std::vector<std::vector<std::string>> outputs;  // [model][trial]
    std::atomic<size_t> remaining{0};
    uint64_t request = 0;  // admission index; the trace span-tree key
    std::chrono::steady_clock::time_point admitted;
  };

  /// A slot waiting for the result of an identical in-flight prompt.
  struct WaitingSlot {
    std::shared_ptr<RowState> row;
    size_t model;
    size_t trial;
  };

  /// One (row, model, trial) prompt queued for a backend.
  struct Task {
    std::shared_ptr<RowState> row;
    size_t model;
    size_t trial;
    Prompt prompt;
    std::string key;  // cache key; empty when the backend is uncacheable
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Backend {
    std::shared_ptr<TextToTextModel> model;
    BackendQueueOptions opts;
    bool cacheable = false;  // deterministic(): pure function of the prompt
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> queue;
    /// key -> slots piggybacking on the first in-flight decode of that key.
    std::unordered_map<std::string, std::vector<WaitingSlot>> inflight;
    std::thread scheduler;
    /// Present when this backend runs the continuous (token-level) path; its
    /// Loop() then replaces SchedulerLoop on the scheduler thread.
    std::unique_ptr<ContinuousBatcher> continuous;
    // Atomic so stats() reads them while RunBatch increments (no mutex).
    obs::Counter batches;
    obs::Counter prompts;
  };

  friend class ContinuousBatcher;

  void SchedulerLoop(Backend* backend);
  void RunBatch(Backend* backend, std::vector<Task> batch);
  /// Retires one decoded task: publishes to the cache, releases dedup
  /// waiters (cache Put strictly before the inflight erase), and fills the
  /// task's and every waiter's row slot. Shared by the micro-batch and
  /// continuous paths; callers must not hold backend->mu.
  void CompleteTask(Backend* backend, Task& task, const std::string& output);
  void FillSlot(const std::shared_ptr<RowState>& row, size_t model,
                size_t trial, const std::string& output);
  void FinalizeRow(const std::shared_ptr<RowState>& row);

  std::vector<std::shared_ptr<TextToTextModel>> models_;
  ServeOptions options_;
  Decomposer decomposer_;
  Aggregator aggregator_;
  Rng base_rng_;  // only Fork()ed, never advanced
  std::unique_ptr<ShardedLruCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Backend>> backends_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> paused_{false};

  mutable std::mutex admission_mu_;
  std::condition_variable drain_cv_;
  // Guarded by admission_mu_: the admission decision must observe an exact
  // in-flight count, and request indices must be dense and ordered.
  size_t pending_rows_ = 0;
  uint64_t next_request_ = 0;
  // Pure counters, re-homed on the atomic metrics primitives: incremented
  // wherever convenient, read by stats() without synchronization.
  obs::Counter submitted_;
  obs::Counter rejected_;
  obs::Counter completed_;
  obs::Counter dedup_joins_;
};

/// The exact serialized identity of a prompt headed for backend
/// `model_index`: length-prefixed fields plus the decode budget, so distinct
/// prompts (or the same text under different budgets, which may decode to
/// different prefixes) can never collide. This is the dedup/cache key.
std::string PromptCacheKey(size_t model_index, const Prompt& prompt);

}  // namespace serve
}  // namespace dtt

#endif  // DTT_SERVE_SERVICE_H_
