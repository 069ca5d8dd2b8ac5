#ifndef DTT_CORE_PIPELINE_H_
#define DTT_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "models/model.h"
#include "text/decomposer.h"

namespace dtt {

/// Aggregated prediction for one source row.
struct RowPrediction {
  std::string source;
  std::string prediction;  // empty = abstained
  double confidence = 0.0;
  int support = 0;
};

/// End-to-end DTT options: decomposition (k, n) per §4.1/§5.3 plus the
/// inference batching/sharding knobs.
struct PipelineOptions {
  DecomposerOptions decomposer;
  /// Prompts per TransformBatch dispatch in TransformAll. 1 dispatches each
  /// prompt alone (TransformAllFixedBatch calls Transform directly).
  int batch_size = 16;
  /// Worker threads TransformAll shards prompt batches across. The
  /// serve-backed TransformAll gates per backend: thread-safe models share
  /// the pool while stateful ones run their batches serially on their own
  /// scheduler thread. (The retained TransformAllFixedBatch reference keeps
  /// the pre-serve all-or-nothing rule: threads only when every attached
  /// model is thread_safe().) Predictions are identical for any thread
  /// count either way.
  int num_threads = 1;
};

/// The DTT framework of Figure 2: decomposer + serializer + model(s) +
/// aggregator. One or more models may be attached; each runs
/// `decomposer.num_trials` trials per row and all trials are pooled in the
/// aggregator (the §5.7 multi-model configuration).
class DttPipeline {
 public:
  DttPipeline(std::vector<std::shared_ptr<TextToTextModel>> models,
              PipelineOptions options = {});

  /// Single-model convenience constructor.
  DttPipeline(std::shared_ptr<TextToTextModel> model,
              PipelineOptions options = {});

  /// Transforms one source row given the example set, drawing trial contexts
  /// from `rng` directly (sequentially deterministic for a given seed).
  RowPrediction TransformRow(const std::string& source,
                             const std::vector<ExamplePair>& examples,
                             Rng* rng) const;

  /// Transforms every source row (the R of Eq. 1) on top of the
  /// transformation-serving subsystem: one draw from `rng` seeds the
  /// service's per-request RNG streams, every row is submitted in order to a
  /// serve::TransformService (per-backend micro-batch queues of
  /// options().batch_size, options().num_threads shared workers, prompt
  /// dedup + LRU result cache), and the futures are collected in submission
  /// order. Offline experiments and online serving share one scheduler;
  /// predictions are bit-identical to TransformAllFixedBatch for any batch
  /// size or thread count (and repeated calls with the same rng stay
  /// independent).
  std::vector<RowPrediction> TransformAll(
      const std::vector<std::string>& sources,
      const std::vector<ExamplePair>& examples, Rng* rng) const;

  /// The pre-serve reference path: materializes every (row, model, trial)
  /// prompt up front and dispatches fixed batch_size groups across one
  /// shared pool (all backends convoying, no cache). Kept as the
  /// bit-identity baseline for the service (asserted in core/serve tests)
  /// and as the comparison leg of bench/exp_serve.
  std::vector<RowPrediction> TransformAllFixedBatch(
      const std::vector<std::string>& sources,
      const std::vector<ExamplePair>& examples, Rng* rng) const;

  const std::vector<std::shared_ptr<TextToTextModel>>& models() const {
    return models_;
  }

 private:
  std::vector<std::shared_ptr<TextToTextModel>> models_;
  PipelineOptions options_;
  Decomposer decomposer_;
  Aggregator aggregator_;
};

}  // namespace dtt

#endif  // DTT_CORE_PIPELINE_H_
