#ifndef DTT_NN_TRAINER_H_
#define DTT_NN_TRAINER_H_

#include <functional>
#include <vector>

#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "text/serializer.h"
#include "transform/training_data.h"

namespace dtt {
namespace nn {

/// Training configuration for the masked-target objective of §5.1.
struct TrainerOptions {
  int epochs = 3;
  /// Instances per optimizer step. Each runs its own unpadded
  /// forward/backward, in batch order, and their gradients accumulate.
  int batch_size = 16;
  AdamOptions adam;
  /// Upper bound on serialized input length; instances longer than this are
  /// skipped (mirrors the model's hard input limit).
  int max_input_tokens = 512;
  int max_label_tokens = 64;
  /// Called after every optimizer step with (step, mean loss of the batch).
  std::function<void(int64_t, float)> on_step;
};

/// Evaluation summary on a held-out instance set.
struct EvalResult {
  float mean_loss = 0.0f;
  double exact_match = 0.0;   // fraction of greedy decodes equal to the label
  double mean_aned = 0.0;     // mean normalized edit distance of decodes
  int evaluated = 0;
};

/// Runs teacher-forced training of a byte-level Transformer on masked
/// transformation instances ("mask all characters in the target and predict
/// the masked bytes", §4.2). Each optimizer step sums the gradients of one
/// unpadded forward/backward per instance of its batch.
class Seq2SeqTrainer {
 public:
  Seq2SeqTrainer(Transformer* model, Serializer serializer,
                 TrainerOptions options);

  /// One full pass over `instances` in a random order; returns mean loss.
  float TrainEpoch(const std::vector<TrainingInstance>& instances, Rng* rng);

  /// Trains for options().epochs epochs.
  void Train(const std::vector<TrainingInstance>& instances, Rng* rng);

  /// Teacher-forced loss of one instance (no gradient side effects unless
  /// `backprop`).
  float InstanceLoss(const TrainingInstance& inst, bool backprop);

  /// Mean teacher-forced loss of a batch of instances: InstanceLoss over
  /// each in batch order, summed in float and divided by the count.
  /// Instances over the length limits are skipped (`num_counted`, if given,
  /// receives how many contributed); returns -1 if nothing remains. When
  /// `backprop`, accumulates the gradient of the SUM of per-instance
  /// losses, bit for bit the per-instance gradients added in batch order.
  float BatchLoss(const std::vector<const TrainingInstance*>& batch,
                  bool backprop, int* num_counted = nullptr);

  /// Greedy-decodes every instance (batched) and scores exact match / ANED;
  /// decodes at most `max_instances` (0 = all).
  EvalResult Evaluate(const std::vector<TrainingInstance>& instances,
                      size_t max_instances = 0);

  Adam& optimizer() { return optimizer_; }

 private:
  Transformer* model_;
  Serializer serializer_;
  TrainerOptions options_;
  Adam optimizer_;

  /// Serialized (input, decoder-input, targets) of one instance; valid is
  /// false when a length limit was exceeded.
  struct EncodedInstance {
    std::vector<int> input_ids;
    std::vector<int> decoder_ids;
    std::vector<int> targets;
    bool valid = false;
  };
  EncodedInstance EncodeInstance(const TrainingInstance& inst) const;
};

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_TRAINER_H_
