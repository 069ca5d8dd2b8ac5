#ifndef DTT_SERVE_CONTINUOUS_BATCHER_H_
#define DTT_SERVE_CONTINUOUS_BATCHER_H_

#include <deque>
#include <memory>
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
///   * queued prompts are admitted into free slots mid-decode, the moment
///     finished sequences release them, instead of waiting for the whole
///     batch to run to completion (the convoy that costs p99 under
///     mixed-length traffic);
///   * admissions compose FIFO under a token budget (`max_tokens_in_flight`):
///     each member is charged its PreparedPrompt::cost (its own input
///     length plus its decode cap — the encoder packs a group without
///     padding); a group is cut when the next prompt would overflow the
///     budget or the free slots;
///   * each decode step advances every resident sequence one token; finished
///     sequences complete through the same cache/dedup/slot machinery as the
///     micro-batch path (TransformService::CompleteTask).
///
/// Determinism: the decoder's per-sequence outputs are independent of its
/// batch composition (the TokenStreamDecoder contract), so every request's
/// output is bit-identical to the run-to-completion path for every arrival
/// schedule, slot count, and token budget — enforced by
/// serve_continuous_test against a continuous-disabled oracle service.
///
/// Threading: Loop() runs on the backend's scheduler thread and is the only
/// caller of the decoder; the backend queue hand-off uses the backend's
/// existing mutex/cv. `queue_wait_ms` keeps its meaning — enqueue to
/// dispatch — with dispatch now the moment the prompt is admitted to a slot.
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
  /// A prepared task waiting for a slot, FIFO.
  struct PendingTask {
    TransformService::Task task;
    PreparedPrompt prepared;
  };
  /// A task resident in a decoder slot; `charge` is what admission charged
  /// against the token budget (the prompt's PreparedPrompt::cost).
  struct ResidentTask {
    TransformService::Task task;
    int charge = 0;
  };

  /// Validates/serializes newly drained tasks; invalid ones complete
  /// immediately with the Transform-path error policy.
  void PrepareArrivals(std::deque<TransformService::Task>* raw);
  /// Admits the longest FIFO prefix of pending_ that fits the free slots
  /// and the token budget, as one shared-encoder admission group.
  void AdmitPending();
  /// Advances the resident batch one token and completes finished tasks.
  void StepOnce();
  void RecordQueueWait(const TransformService::Task& task);

  TransformService* service_;
  TransformService::Backend* backend_;
  std::unique_ptr<TokenStreamDecoder> decoder_;

  std::deque<PendingTask> pending_;
  std::unordered_map<int, ResidentTask> resident_;  // by slot handle
  int tokens_in_flight_ = 0;

  obs::Counter admitted_;
  obs::Counter admit_groups_;
  obs::Counter steps_;
  obs::Counter evicted_;
};

}  // namespace serve
}  // namespace dtt

#endif  // DTT_SERVE_CONTINUOUS_BATCHER_H_
