#include "models/neural_model.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "nn/decode_session.h"

namespace dtt {

namespace {

/// The neural model's TokenStreamDecoder: a thin text adapter over
/// nn::DecodeSession. Holds its own copies of the serializer/options and a
/// shared_ptr to the transformer, so it stays valid independent of the
/// NeuralSeq2SeqModel that created it.
class NeuralStreamDecoder : public TokenStreamDecoder {
 public:
  NeuralStreamDecoder(std::shared_ptr<nn::Transformer> model,
                      Serializer serializer, NeuralModelOptions options,
                      const StreamDecoderOptions& stream_options)
      : model_(std::move(model)),
        serializer_(std::move(serializer)),
        options_(options) {
    nn::DecodeSessionOptions session_options;
    session_options.max_slots = stream_options.max_slots;
    session_options.max_steps = options_.max_output_tokens;
    session_ = model_->NewDecodeSession(session_options);
  }

  Result<PreparedPrompt> Prepare(const Prompt& prompt) const override {
    // Mirrors NeuralSeq2SeqModel::Transform validation exactly, so requests
    // fail identically whichever path the scheduler routes them down.
    if (prompt.examples.empty()) {
      return Status::InvalidArgument(
          "NeuralSeq2SeqModel requires at least one context example");
    }
    PreparedPrompt prepared;
    prepared.input_ids = serializer_.EncodePrompt(prompt);
    if (static_cast<int>(prepared.input_ids.size()) >
        model_->config().max_len) {
      return Status::OutOfRange("serialized prompt exceeds the model's input "
                                "length limit");
    }
    prepared.max_steps =
        prompt.max_output_tokens > 0
            ? std::min(prompt.max_output_tokens, options_.max_output_tokens)
            : options_.max_output_tokens;
    // KV-cache footprint in token positions: encoder memory plus the decode
    // cap (<sos> included) — what the serve scheduler charges against its
    // max_tokens_in_flight budget.
    prepared.cost =
        static_cast<int>(prepared.input_ids.size()) + prepared.max_steps + 1;
    prepared.encoded = session_->Encode(prepared.input_ids);
    return prepared;
  }

  std::vector<int> Admit(const std::vector<PreparedPrompt>& group) override {
    std::vector<int> slots;
    slots.reserve(group.size());
    for (const PreparedPrompt& prepared : group) {
      slots.push_back(session_->Install(*prepared.encoded, prepared.max_steps));
    }
    return slots;
  }

  std::vector<Finished> Step() override {
    std::vector<int> done = session_->Step();
    std::vector<Finished> finished;
    finished.reserve(done.size());
    for (int slot : done) {
      finished.push_back({slot, tokenizer_.Decode(session_->output(slot))});
      session_->Release(slot);
    }
    // Keep the resident KV rows dense; a no-op unless releases left gaps.
    if (!finished.empty()) session_->Compact();
    return finished;
  }

  void Cancel(int slot) override {
    session_->Release(slot);
    session_->Compact();
  }

  int max_slots() const override { return session_->max_slots(); }
  int active_slots() const override { return session_->active_slots(); }

 private:
  std::shared_ptr<nn::Transformer> model_;
  Serializer serializer_;
  ByteTokenizer tokenizer_;
  NeuralModelOptions options_;
  std::unique_ptr<nn::DecodeSession> session_;
};

}  // namespace

NeuralSeq2SeqModel::NeuralSeq2SeqModel(std::shared_ptr<nn::Transformer> model,
                                       Serializer serializer, Options options)
    : model_(std::move(model)),
      serializer_(std::move(serializer)),
      options_(options) {}

int NeuralSeq2SeqModel::EffectiveBudget(const Prompt& prompt) const {
  return prompt.max_output_tokens > 0
             ? std::min(prompt.max_output_tokens, options_.max_output_tokens)
             : options_.max_output_tokens;
}

Result<std::vector<int>> NeuralSeq2SeqModel::ValidateAndEncode(
    const Prompt& prompt) const {
  if (prompt.examples.empty()) {
    return Status::InvalidArgument(
        "NeuralSeq2SeqModel requires at least one context example");
  }
  std::vector<int> input_ids = serializer_.EncodePrompt(prompt);
  if (static_cast<int>(input_ids.size()) > model_->config().max_len) {
    return Status::OutOfRange("serialized prompt exceeds the model's input "
                              "length limit");
  }
  return input_ids;
}

Result<std::string> NeuralSeq2SeqModel::Transform(const Prompt& prompt) {
  Result<std::vector<int>> input_ids = ValidateAndEncode(prompt);
  if (!input_ids.ok()) return input_ids.status();
  const int budget = EffectiveBudget(prompt);
  // Both decodes run on the graph-free incremental engine; the batched beam
  // path with a single prompt is bit-exact with the legacy per-prompt
  // BeamDecode (nn_beam_test) and avoids its per-hypothesis graph rebuilds.
  std::vector<int> out =
      options_.beam_size > 1
          ? model_->BeamDecodeBatch({input_ids.value()}, budget,
                                    options_.beam_size)[0]
          : model_->GreedyDecode(input_ids.value(), budget);
  return tokenizer_.Decode(out);
}

std::vector<Result<std::string>> NeuralSeq2SeqModel::TransformBatch(
    const std::vector<Prompt>& prompts) {
  // A batch of one gains nothing over the single-sequence decode.
  if (prompts.size() <= 1) {
    return TextToTextModel::TransformBatch(prompts);
  }
  std::vector<Result<std::string>> results(
      prompts.size(), Result<std::string>(std::string()));
  std::vector<std::vector<int>> batch_ids;
  std::vector<size_t> batch_slots;
  std::vector<int> batch_budgets;
  for (size_t i = 0; i < prompts.size(); ++i) {
    Result<std::vector<int>> input_ids = ValidateAndEncode(prompts[i]);
    if (!input_ids.ok()) {
      results[i] = input_ids.status();
      continue;
    }
    batch_ids.push_back(std::move(input_ids).value());
    batch_slots.push_back(i);
    batch_budgets.push_back(EffectiveBudget(prompts[i]));
  }
  if (batch_ids.empty()) return results;
  if (options_.beam_size > 1) {
    // Beam pruning is not prefix-stable, so mixed budgets cannot share one
    // lockstep call: bucket by budget and run one batched decode per bucket
    // (bit-exact with per-prompt Transform either way).
    std::map<int, std::vector<size_t>> buckets;
    for (size_t j = 0; j < batch_ids.size(); ++j) {
      buckets[batch_budgets[j]].push_back(j);
    }
    for (const auto& [budget, members] : buckets) {
      std::vector<std::vector<int>> ids;
      ids.reserve(members.size());
      for (size_t j : members) ids.push_back(batch_ids[j]);
      std::vector<std::vector<int>> outs =
          model_->BeamDecodeBatch(ids, budget, options_.beam_size);
      for (size_t m = 0; m < members.size(); ++m) {
        results[batch_slots[members[m]]] = tokenizer_.Decode(outs[m]);
      }
    }
    return results;
  }
  // Greedy decoding is prefix-stable: decoding everyone to the largest
  // budget and truncating each output to its own budget is bit-identical
  // to per-prompt decodes at the individual budgets.
  const int max_budget =
      *std::max_element(batch_budgets.begin(), batch_budgets.end());
  std::vector<std::vector<int>> outs =
      model_->GenerateBatch(batch_ids, max_budget);
  for (size_t j = 0; j < batch_slots.size(); ++j) {
    std::vector<int>& out = outs[j];
    const size_t budget = static_cast<size_t>(batch_budgets[j]);
    if (out.size() > budget) out.resize(budget);
    results[batch_slots[j]] = tokenizer_.Decode(out);
  }
  return results;
}

std::unique_ptr<TokenStreamDecoder> NeuralSeq2SeqModel::NewStreamDecoder(
    const StreamDecoderOptions& options) {
  if (options_.beam_size > 1) return nullptr;
  return std::make_unique<NeuralStreamDecoder>(model_, serializer_, options_,
                                               options);
}

}  // namespace dtt
