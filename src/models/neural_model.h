#ifndef DTT_MODELS_NEURAL_MODEL_H_
#define DTT_MODELS_NEURAL_MODEL_H_

#include <memory>
#include <vector>

#include "models/model.h"
#include "nn/transformer.h"
#include "text/serializer.h"
#include "text/tokenizer.h"

namespace dtt {

/// The genuine neural path: wraps the from-scratch byte-level transformer as
/// a TextToTextModel so the whole DTT pipeline (decompose, serialize,
/// aggregate, join) runs end-to-end on a trainable model. Used by the
/// Figure-4 training sweeps and the neural examples; the paper-scale result
/// tables use the simulated backends (docs/architecture.md,
/// "Substitutions").
struct NeuralModelOptions {
  int max_output_tokens = 64;
  int beam_size = 1;  // 1 = greedy
};

class NeuralSeq2SeqModel : public TextToTextModel {
 public:
  using Options = NeuralModelOptions;

  NeuralSeq2SeqModel(std::shared_ptr<nn::Transformer> model,
                     Serializer serializer, Options options = {});

  std::string name() const override { return "dtt-neural"; }
  /// TransformBatch({prompt})[0]: one prompt runs on the same engine at its
  /// own budget.
  Result<std::string> Transform(const Prompt& prompt) override;

  /// Batched decode: valid prompts run through one lockstep decoder call —
  /// Transformer::GenerateBatch when greedy, Transformer::BeamDecodeBatch
  /// when beam_size > 1 — so beam requests micro-batch exactly like greedy
  /// ones (each output bit-exact with that prompt decoded alone); invalid
  /// prompts keep their per-prompt error.
  std::vector<Result<std::string>> TransformBatch(
      const std::vector<Prompt>& prompts) override;

  /// Every decode builds its own KV caches and only reads the shared
  /// parameters, so concurrent Transform calls are safe as long as nothing
  /// trains this model at the same time.
  bool thread_safe() const override { return true; }

  /// Greedy mode exposes the step-resumable decoder (nn::DecodeSession)
  /// behind the serve layer's continuous batching; per-prompt outputs are
  /// bit-identical to Transform/TransformBatch for every admission schedule.
  /// Beam mode returns nullptr (beam pruning is not prefix-stable), keeping
  /// fixed micro-batching.
  std::unique_ptr<TokenStreamDecoder> NewStreamDecoder(
      const StreamDecoderOptions& options) override;

 private:
  std::shared_ptr<nn::Transformer> model_;
  Serializer serializer_;
  ByteTokenizer tokenizer_;
  Options options_;
};

}  // namespace dtt

#endif  // DTT_MODELS_NEURAL_MODEL_H_
