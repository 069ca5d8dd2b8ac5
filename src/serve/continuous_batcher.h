#ifndef DTT_SERVE_CONTINUOUS_BATCHER_H_
#define DTT_SERVE_CONTINUOUS_BATCHER_H_

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "models/model.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace dtt {
namespace serve {

/// The continuous (token-level) scheduler of one backend: owns the backend's
/// TokenStreamDecoder — a persistent slotted KV-cache batch — and replaces
/// the fixed micro-batch loop with the decode step loop:
///
///   * arrivals are prepared (validated, serialized and encoded by
///     TokenStreamDecoder::Prepare) on the service's worker pool, so the
///     scheduler thread only installs encoded prompts and steps the batch;
///     without a pool (num_threads <= 1) the same Prepare runs inline on the
///     scheduler thread. At most max_slots prompts are prepared ahead of
///     admission (inline: at most the free slots, so encodes never delay a
///     step for prompts that could not be admitted yet), which bounds the
///     encoded prompts held in memory;
///   * prepared prompts are admitted into free slots mid-decode, the moment
///     finished sequences release them, instead of waiting for the whole
///     batch to run to completion (the convoy that costs p99 under
///     mixed-length traffic);
///   * an admission group is the FIFO prefix of prepared prompts — a
///     prompt whose Prepare is still running holds back those behind it,
///     so admission order is arrival order — cut only at the free slots
///     (the decoder allocates every slot's KV region up front, so slots are
///     the one bound);
///   * each decode step advances every resident sequence one token; finished
///     sequences complete through the same cache/dedup/slot machinery as the
///     micro-batch path (TransformService::CompleteTask).
///
/// Determinism: the decoder's per-sequence outputs are independent of its
/// batch composition (the TokenStreamDecoder contract), so every request's
/// output is bit-identical to the run-to-completion path for every arrival
/// schedule and slot count — enforced by
/// serve_continuous_test against a continuous-disabled oracle service.
///
/// Threading: Loop() runs on the backend's scheduler thread and is the only
/// caller of the decoder's Admit/Step; pool workers call only the const,
/// thread-safe Prepare. The backend queue hand-off and prepare completions
/// use the backend's existing mutex/cv. Loop() returns only once no Prepare
/// is outstanding, so no pool task outlives the batcher. `queue_wait_ms`
/// keeps its meaning — enqueue to dispatch — with dispatch now the moment
/// the prompt is admitted to a slot.
class ContinuousBatcher {
 public:
  ContinuousBatcher(TransformService* service,
                    TransformService::Backend* backend,
                    std::unique_ptr<TokenStreamDecoder> decoder);
  ~ContinuousBatcher();

  ContinuousBatcher(const ContinuousBatcher&) = delete;
  ContinuousBatcher& operator=(const ContinuousBatcher&) = delete;

  /// The scheduler loop; returns once the service is stopping and every
  /// queued and resident sequence has completed (drain semantics identical
  /// to SchedulerLoop).
  void Loop();

  // Live counters, readable from any thread (TransformService::stats()).
  uint64_t admitted() const { return admitted_.Value(); }
  uint64_t admit_groups() const { return admit_groups_.Value(); }
  uint64_t steps() const { return steps_.Value(); }
  uint64_t evicted() const { return evicted_.Value(); }

 private:
  /// An arrival waiting for a slot, FIFO. Shared with the pool task that
  /// prepares it, which writes `result` and then sets `prepared`; the
  /// scheduler reads `result` only after seeing `prepared`.
  struct PendingTask {
    TransformService::Task task;
    std::optional<Result<PreparedPrompt>> result;
    bool prepared = false;  // guarded by the backend mutex
  };

  /// True when the scheduler has something to do. Caller holds backend mu.
  bool Runnable() const;
  /// How many prompts may be prepared or preparing but not yet admitted:
  /// max_slots with a pool, the free slots inline.
  size_t PrepareAhead() const;
  /// Starts Prepare for the oldest unprepared arrivals, on the pool when the
  /// service has one (inline otherwise), up to PrepareAhead().
  void LaunchPrepares();
  /// Runs one Prepare and publishes its result (any thread).
  void RunPrepare(PendingTask* entry);
  /// Admits the longest FIFO prefix of prepared prompts that fits the free
  /// slots as one admission group; invalid prompts at the head complete
  /// with the Transform-path error policy.
  void AdmitPrepared();
  /// Advances the resident batch one token and completes finished tasks.
  void StepOnce();
  void RecordQueueWait(const TransformService::Task& task);

  TransformService* service_;
  TransformService::Backend* backend_;
  std::unique_ptr<TokenStreamDecoder> decoder_;

  // Scheduler-thread state. pending_[0, launched_) have had Prepare
  // started; admission and failures pop from the front.
  std::deque<std::shared_ptr<PendingTask>> pending_;
  size_t launched_ = 0;
  std::unordered_map<int, TransformService::Task> resident_;  // by slot

  obs::Counter admitted_;
  obs::Counter admit_groups_;
  obs::Counter steps_;
  obs::Counter evicted_;
};

}  // namespace serve
}  // namespace dtt

#endif  // DTT_SERVE_CONTINUOUS_BATCHER_H_
