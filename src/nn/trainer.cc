#include "nn/trainer.h"

#include <algorithm>

#include "text/tokenizer.h"
#include "util/edit_distance.h"

namespace dtt {
namespace nn {

Seq2SeqTrainer::Seq2SeqTrainer(Transformer* model, Serializer serializer,
                               TrainerOptions options)
    : model_(model),
      serializer_(std::move(serializer)),
      options_(std::move(options)),
      optimizer_(model->Params(), options_.adam) {}

Seq2SeqTrainer::EncodedInstance Seq2SeqTrainer::EncodeInstance(
    const TrainingInstance& inst) const {
  EncodedInstance enc;
  Prompt prompt{inst.context, inst.input_source};
  enc.input_ids = serializer_.EncodePrompt(prompt);
  if (static_cast<int>(enc.input_ids.size()) > options_.max_input_tokens) {
    return enc;  // skipped
  }
  // Decoder input: <sos> t1..tn ; targets: t1..tn <eos>.
  std::vector<int> label = serializer_.EncodeLabel(inst.label);
  if (static_cast<int>(label.size()) > options_.max_label_tokens) return enc;
  enc.decoder_ids.assign(label.begin(), label.end() - 1);   // keep <sos>
  enc.targets.assign(label.begin() + 1, label.end());       // shift left
  enc.valid = true;
  return enc;
}

float Seq2SeqTrainer::InstanceLoss(const TrainingInstance& inst,
                                   bool backprop) {
  EncodedInstance enc = EncodeInstance(inst);
  if (!enc.valid) return -1.0f;
  Var memory = model_->Encode(enc.input_ids);
  Var logits = model_->DecodeLogits(memory, enc.decoder_ids);
  Var loss = CrossEntropyLoss(logits, enc.targets);
  float value = loss.value().at(0);
  if (backprop) loss.Backward();
  return value;
}

float Seq2SeqTrainer::BatchLoss(
    const std::vector<const TrainingInstance*>& batch, bool backprop,
    int* num_counted) {
  float total = 0.0f;
  int counted = 0;
  for (const TrainingInstance* inst : batch) {
    const float loss = InstanceLoss(*inst, backprop);
    if (loss < 0.0f) continue;  // over a length limit
    total += loss;
    ++counted;
  }
  if (num_counted != nullptr) *num_counted = counted;
  return counted ? total / static_cast<float>(counted) : -1.0f;
}

float Seq2SeqTrainer::TrainEpoch(const std::vector<TrainingInstance>& instances,
                                 Rng* rng) {
  std::vector<size_t> order(instances.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng->Shuffle(&order);

  const size_t batch_size =
      static_cast<size_t>(std::max(1, options_.batch_size));
  double epoch_loss = 0.0;
  size_t counted = 0;
  std::vector<const TrainingInstance*> batch;
  batch.reserve(batch_size);
  auto flush = [&]() {
    if (batch.empty()) return;
    int in_batch = 0;
    float mean = BatchLoss(batch, /*backprop=*/true, &in_batch);
    batch.clear();
    if (mean < 0.0f) return;  // everything in the batch was over-length
    optimizer_.Step();
    epoch_loss += static_cast<double>(mean) * in_batch;
    counted += static_cast<size_t>(in_batch);
    if (options_.on_step) {
      options_.on_step(optimizer_.step_count(), mean);
    }
  };
  for (size_t oi = 0; oi < order.size(); ++oi) {
    batch.push_back(&instances[order[oi]]);
    if (batch.size() == batch_size) flush();
  }
  flush();
  return counted ? static_cast<float>(epoch_loss / counted) : 0.0f;
}

void Seq2SeqTrainer::Train(const std::vector<TrainingInstance>& instances,
                           Rng* rng) {
  for (int e = 0; e < options_.epochs; ++e) {
    TrainEpoch(instances, rng);
  }
}

EvalResult Seq2SeqTrainer::Evaluate(
    const std::vector<TrainingInstance>& instances, size_t max_instances) {
  EvalResult result;
  ByteTokenizer tokenizer;
  double loss_sum = 0.0;
  double aned_sum = 0.0;
  size_t exact = 0;
  size_t n = instances.size();
  if (max_instances > 0) n = std::min(n, max_instances);
  const size_t batch_size =
      static_cast<size_t>(std::max(1, options_.batch_size));
  // Kept instances and their inputs, decoded in lockstep batches.
  std::vector<const TrainingInstance*> kept;
  std::vector<std::vector<int>> kept_inputs;
  for (size_t i = 0; i < n; ++i) {
    const auto& inst = instances[i];
    float loss = InstanceLoss(inst, /*backprop=*/false);
    if (loss < 0.0f) continue;
    loss_sum += loss;
    Prompt prompt{inst.context, inst.input_source};
    kept.push_back(&inst);
    kept_inputs.push_back(serializer_.EncodePrompt(prompt));
  }
  for (size_t begin = 0; begin < kept.size(); begin += batch_size) {
    const size_t end = std::min(kept.size(), begin + batch_size);
    std::vector<std::vector<int>> inputs(kept_inputs.begin() + begin,
                                         kept_inputs.begin() + end);
    std::vector<std::vector<int>> outs =
        model_->GenerateBatch(inputs, options_.max_label_tokens);
    for (size_t j = 0; j < outs.size(); ++j) {
      std::string text = tokenizer.Decode(outs[j]);
      if (text == kept[begin + j]->label) ++exact;
      aned_sum += NormalizedEditDistance(text, kept[begin + j]->label);
      ++result.evaluated;
    }
  }
  if (result.evaluated > 0) {
    result.mean_loss = static_cast<float>(loss_sum / result.evaluated);
    result.exact_match = static_cast<double>(exact) / result.evaluated;
    result.mean_aned = aned_sum / result.evaluated;
  }
  return result;
}

}  // namespace nn
}  // namespace dtt
