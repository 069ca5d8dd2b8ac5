// Training the neural byte-level transformer end to end (§5.1-§5.3 at
// miniature scale): generate synthetic transformation groupings, fine-tune
// with the masked-target objective, checkpoint, and run the trained model
// through the full DTT pipeline.
//
//   $ ./build/examples/train_model        (~1 minute on a laptop core)
#include <cstdio>

#include "core/pipeline.h"
#include "io/model_artifact.h"
#include "models/neural_model.h"
#include "nn/trainer.h"

int main() {
  using namespace dtt;
  Rng rng(2024);

  nn::TransformerConfig cfg;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.ff_hidden = 96;
  cfg.encoder_layers = 3;  // ByT5-style deep encoder, shallow decoder
  cfg.decoder_layers = 1;
  cfg.max_len = 160;
  auto model = std::make_shared<nn::Transformer>(cfg, &rng);
  std::printf("transformer with %zu parameters\n", model->NumParameters());

  // Synthetic training data: 80 groupings x 10 pairs, short rows.
  TrainingDataOptions dopts;
  dopts.num_groups = 80;
  dopts.source.min_len = 4;
  dopts.source.max_len = 9;
  dopts.program.min_steps = 1;
  dopts.program.max_steps = 1;
  TrainingDataGenerator gen(dopts);
  auto data = gen.Generate(&rng);

  SerializerOptions sopts;
  sopts.max_tokens = 160;
  nn::TrainerOptions topts;
  topts.epochs = 2;
  topts.batch_size = 8;
  topts.adam.lr = 2e-3f;
  nn::Seq2SeqTrainer trainer(model.get(), Serializer(sopts), topts);
  for (int epoch = 1; epoch <= topts.epochs; ++epoch) {
    float loss = trainer.TrainEpoch(data.train, &rng);
    auto eval = trainer.Evaluate(data.validation, 40);
    std::printf("epoch %d: train loss %.3f, val exact %.2f, val ANED %.2f\n",
                epoch, loss, eval.exact_match, eval.mean_aned);
  }

  std::string artifact = "/tmp/dtt_example_model.dttart";
  auto params = model->Params();
  if (io::SaveArtifact(artifact, params).ok()) {
    std::printf("saved model artifact: %s\n", artifact.c_str());
  }

  // The trained model as a DTT backend.
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 16;
  PipelineOptions popts;
  popts.decomposer.num_trials = 3;
  DttPipeline pipeline(
      std::make_shared<NeuralSeq2SeqModel>(model, Serializer(sopts), nopts),
      popts);
  std::vector<ExamplePair> examples = {
      {"ab-cd", "ab"}, {"xy-zw", "xy"}, {"pq-rs", "pq"}};
  Rng prng(9);
  auto row = pipeline.TransformRow("mn-op", examples, &prng);
  std::printf("pipeline with neural backend: mn-op -> \"%s\"\n",
              row.prediction.c_str());
  return 0;
}
