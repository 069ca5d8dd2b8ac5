#ifndef DTT_MODELS_MODEL_H_
#define DTT_MODELS_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "text/serializer.h"
#include "util/status.h"

namespace dtt {

namespace nn {
struct EncodedPrompt;
}  // namespace nn

/// A prompt prepared for token-level (continuous) decoding: the serialized
/// input ids plus the effective decode-step budget and the prompt's encoder
/// output, so admission only copies it into a slot.
struct PreparedPrompt {
  std::vector<int> input_ids;
  int max_steps = 0;
  std::shared_ptr<const nn::EncodedPrompt> encoded;
};

/// Construction knobs for NewStreamDecoder.
struct StreamDecoderOptions {
  /// Concurrent sequences the decoder can hold (KV-cache slots).
  int max_slots = 8;
};

/// The step-resumable decode capability behind continuous batching: a
/// persistent slotted decode batch that prompts enter as slots free up
/// mid-decode. Backends that expose it (the neural transformer in greedy
/// mode) are scheduled token-by-token by the serve layer's
/// ContinuousBatcher; per-prompt outputs are bit-identical to Transform /
/// TransformBatch for every admission schedule (the backend's determinism
/// contract, enforced by serve_continuous_test).
///
/// Threading: Prepare is const and may run on any thread, concurrently with
/// other Prepare calls and with Admit/Step/Cancel (the serve layer runs it on
/// its worker pool). Admit, Step and Cancel are not thread-safe: they belong
/// to one scheduler thread.
class TokenStreamDecoder {
 public:
  /// A sequence that finished on the last Step: its (now freed) slot handle
  /// and decoded output text.
  struct Finished {
    int slot = 0;
    std::string output;
  };

  virtual ~TokenStreamDecoder() = default;

  /// Validates, serializes and encodes `prompt` without touching decoder
  /// state — the expensive, slot-independent half of admission. Returns
  /// exactly the errors Transform would (so the scheduler can fail invalid
  /// requests before admission). Thread-safe (see the class comment).
  virtual Result<PreparedPrompt> Prepare(const Prompt& prompt) const = 0;

  /// Admits `group`, each prompt from this decoder's Prepare, into free
  /// slots and returns one stable slot handle per prompt, in order. Requires
  /// group.size() <= free_slots().
  virtual std::vector<int> Admit(
      const std::vector<PreparedPrompt>& group) = 0;

  /// Advances every live sequence one token. Sequences that finished are
  /// decoded to text, their slots freed, and returned.
  virtual std::vector<Finished> Step() = 0;

  /// Abandons a live sequence mid-decode, freeing its slot. Other slots are
  /// unaffected.
  virtual void Cancel(int slot) = 0;

  virtual int max_slots() const = 0;
  virtual int active_slots() const = 0;
  int free_slots() const { return max_slots() - active_slots(); }
};

/// The text-in/text-out model abstraction of the DTT framework (§4.2): given
/// a serialized prompt (k context examples + one source row), produce the
/// predicted target row. An empty string means the model abstained (the
/// paper: "the language models may just return <eos> with no prediction").
///
/// Implementations:
///  * NeuralSeq2SeqModel  — the from-scratch byte-level transformer
///  * PatternInductionModel — simulated fine-tuned byte LM (see
///    docs/architecture.md, "Substitutions")
///  * KnowledgeLM — simulated general-purpose LLM (GPT-3 stand-in)
class TextToTextModel {
 public:
  virtual ~TextToTextModel() = default;

  /// Short stable identifier used in reports ("dtt", "gpt3-sim", ...).
  virtual std::string name() const = 0;

  /// Predicts the target for `prompt.source` given `prompt.examples`.
  virtual Result<std::string> Transform(const Prompt& prompt) = 0;

  /// Transforms a batch of prompts, returning one result per prompt in
  /// order. The default loops Transform, so every backend keeps working;
  /// backends with a genuinely batched substrate (the neural transformer)
  /// override it to share work across the batch.
  virtual std::vector<Result<std::string>> TransformBatch(
      const std::vector<Prompt>& prompts);

  /// True if concurrent Transform/TransformBatch calls on this instance are
  /// safe (the implementation keeps no mutable per-call state). The pipeline
  /// only shards batches across threads when every attached model says so.
  virtual bool thread_safe() const { return false; }

  /// True if Transform output is a pure function of the prompt — the gate
  /// for the serving layer's result cache and prompt dedup. Defaults to
  /// thread_safe(): every bundled stateless backend derives its randomness
  /// from (seed, prompt) and is therefore deterministic. A backend that is
  /// thread-safe but stochastic per call (e.g. temperature sampling off an
  /// internal atomic RNG) MUST override this to false or caching would
  /// collapse its independent trials into one repeated draw.
  virtual bool deterministic() const { return thread_safe(); }

  /// Creates a step-resumable token-stream decoder over this model, the
  /// capability probe for continuous batching. Returns nullptr when the
  /// backend has no token-level decode loop to expose — the simulated
  /// backends, and beam search (whose pruning is not prefix-stable) — in
  /// which case the serve layer keeps fixed micro-batching.
  virtual std::unique_ptr<TokenStreamDecoder> NewStreamDecoder(
      const StreamDecoderOptions& options) {
    (void)options;
    return nullptr;
  }
};

/// The shared error policy of the pipeline and the serving path: model
/// errors (e.g. over-length prompts) count as abstentions, making the
/// aggregator the framework's error sink. Both paths must use this one
/// helper — their predictions are asserted bit-identical.
std::string OutputOrAbstain(const Result<std::string>& result);

}  // namespace dtt

#endif  // DTT_MODELS_MODEL_H_
