#include "models/neural_model.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "nn/decode_session.h"

namespace dtt {

namespace {

/// Serializes `prompt` and sets its decode-step budget (the prompt's own
/// budget clamped to the configured maximum; 0 = the maximum), or returns
/// the error every entry point reports for it. TransformBatch and the stream
/// decoder's Prepare both call it, so a request fails identically whichever
/// path the scheduler routes it down. It takes the model's parts rather than
/// the model because the stream decoder outlives the model object.
Result<PreparedPrompt> ValidatePrompt(const Prompt& prompt,
                                      const Serializer& serializer,
                                      const NeuralModelOptions& options,
                                      const nn::TransformerConfig& config) {
  if (prompt.examples.empty()) {
    return Status::InvalidArgument(
        "NeuralSeq2SeqModel requires at least one context example");
  }
  PreparedPrompt prepared;
  prepared.input_ids = serializer.EncodePrompt(prompt);
  if (static_cast<int>(prepared.input_ids.size()) > config.max_len) {
    return Status::OutOfRange("serialized prompt exceeds the model's input "
                              "length limit");
  }
  prepared.max_steps =
      prompt.max_output_tokens > 0
          ? std::min(prompt.max_output_tokens, options.max_output_tokens)
          : options.max_output_tokens;
  return prepared;
}

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
    Result<PreparedPrompt> prepared =
        ValidatePrompt(prompt, serializer_, options_, model_->config());
    if (prepared.ok()) {
      prepared->encoded = session_->Encode(prepared->input_ids);
    }
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
    return finished;
  }

  void Cancel(int slot) override { session_->Release(slot); }

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

Result<std::string> NeuralSeq2SeqModel::Transform(const Prompt& prompt) {
  return TransformBatch({prompt})[0];
}

std::vector<Result<std::string>> NeuralSeq2SeqModel::TransformBatch(
    const std::vector<Prompt>& prompts) {
  std::vector<Result<std::string>> results(
      prompts.size(), Result<std::string>(std::string()));
  std::vector<std::vector<int>> batch_ids;
  std::vector<size_t> batch_slots;
  std::vector<int> batch_budgets;
  for (size_t i = 0; i < prompts.size(); ++i) {
    Result<PreparedPrompt> prepared = ValidatePrompt(
        prompts[i], serializer_, options_, model_->config());
    if (!prepared.ok()) {
      results[i] = prepared.status();
      continue;
    }
    batch_slots.push_back(i);
    batch_budgets.push_back(prepared->max_steps);
    batch_ids.push_back(std::move(prepared->input_ids));
  }
  if (batch_ids.empty()) return results;
  if (options_.beam_size > 1) {
    // Beam pruning is not prefix-stable, so mixed budgets cannot share one
    // lockstep call: bucket by budget and run one batched decode per bucket
    // (bit-exact with per-prompt decodes either way).
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
