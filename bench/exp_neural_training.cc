// Experiment E10 — the genuine neural path end to end (§5.1-§5.3 mechanism):
// generate synthetic transformation groupings, fine-tune the from-scratch
// byte-level transformer with the masked-target objective, report the loss
// curve and held-out exact-match / ANED, and show sample predictions. No
// dataset×method grid here — the shared exp_common harness still provides
// the env contract (DTT_SEED) and the stamped bench JSON document.
//
// Env knobs: DTT_NEURAL_GROUPS=120  DTT_NEURAL_EPOCHS=3
#include <cstdio>

#include "bench/exp_common.h"
#include "eval/report.h"
#include "io/model_artifact.h"
#include "nn/trainer.h"
#include "text/tokenizer.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace dtt {
namespace {

constexpr uint64_t kSeed = 20249;

int Main() {
  auto ctx = bench::BeginExperiment(
      "exp_neural_training",
      "neural training demo (miniature ByT5-style model, see "
      "docs/architecture.md, \"Substitutions\")",
      /*default_row_scale=*/1.0, kSeed);
  const int groups = bench::IntFromEnv("DTT_NEURAL_GROUPS", 120);
  const int epochs = bench::IntFromEnv("DTT_NEURAL_EPOCHS", 3);
  std::printf("groupings: %d   epochs: %d\n", groups, epochs);

  Rng rng(ctx.seed);
  nn::TransformerConfig cfg;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.ff_hidden = 96;
  cfg.encoder_layers = 3;  // unbalanced 3:1 encoder/decoder, §4.2
  cfg.decoder_layers = 1;
  cfg.max_len = 160;
  auto model = std::make_shared<nn::Transformer>(cfg, &rng);
  std::printf("model parameters: %zu\n", model->NumParameters());

  TrainingDataOptions dopts;
  dopts.num_groups = groups;
  dopts.pairs_per_group = 10;
  dopts.sets_per_group = 4;
  dopts.source.min_len = 4;
  dopts.source.max_len = 10;
  dopts.program.min_steps = 1;
  dopts.program.max_steps = 2;
  TrainingDataGenerator gen(dopts);
  auto data = gen.Generate(&rng);
  std::printf("train instances: %zu   validation instances: %zu\n",
              data.train.size(), data.validation.size());

  SerializerOptions sopts;
  sopts.max_tokens = 160;
  nn::TrainerOptions topts;
  topts.epochs = 1;  // manual epoch loop below to print the curve
  topts.batch_size = 8;
  topts.adam.lr = 2e-3f;
  topts.max_label_tokens = 24;
  nn::Seq2SeqTrainer trainer(model.get(), Serializer(sopts), topts);

  Stopwatch watch;
  TablePrinter curve({"epoch", "train loss", "val loss", "val exact",
                      "val ANED", "elapsed s"});
  auto ev0 = trainer.Evaluate(data.validation, 50);
  curve.AddRow({"0 (untrained)", "-", TablePrinter::Num(ev0.mean_loss),
                TablePrinter::Num(ev0.exact_match),
                TablePrinter::Num(ev0.mean_aned),
                TablePrinter::Num(watch.Seconds(), 1)});
  ctx.report.AddRun("epoch")
      .Set("epoch", 0)
      .Set("val_loss", static_cast<double>(ev0.mean_loss))
      .Set("val_exact", ev0.exact_match)
      .Set("val_aned", ev0.mean_aned)
      .Set("elapsed_seconds", watch.Seconds());
  for (int e = 1; e <= epochs; ++e) {
    float train_loss = trainer.TrainEpoch(data.train, &rng);
    auto ev = trainer.Evaluate(data.validation, 50);
    curve.AddRow({std::to_string(e), TablePrinter::Num(train_loss),
                  TablePrinter::Num(ev.mean_loss),
                  TablePrinter::Num(ev.exact_match),
                  TablePrinter::Num(ev.mean_aned),
                  TablePrinter::Num(watch.Seconds(), 1)});
    ctx.report.AddRun("epoch")
        .Set("epoch", e)
        .Set("train_loss", static_cast<double>(train_loss))
        .Set("val_loss", static_cast<double>(ev.mean_loss))
        .Set("val_exact", ev.exact_match)
        .Set("val_aned", ev.mean_aned)
        .Set("elapsed_seconds", watch.Seconds());
    std::fprintf(stderr, "[neural] epoch %d done (loss %.3f)\n", e,
                 train_loss);
  }
  curve.Print();

  PrintBanner("sample predictions (validation)");
  ByteTokenizer tokenizer;
  Serializer serializer(sopts);
  // Raw byte-level generations may contain non-printable bytes; escape them
  // so the report stays plain text.
  auto printable = [](const std::string& s) {
    std::string out;
    for (unsigned char c : s) {
      if (c >= 0x20 && c < 0x7F) {
        out.push_back(static_cast<char>(c));
      } else {
        out += StrFormat("\\x%02X", c);
      }
    }
    return out;
  };
  TablePrinter samples({"input", "gold", "prediction"});
  for (size_t i = 0; i < 8 && i < data.validation.size(); ++i) {
    const auto& inst = data.validation[i];
    Prompt prompt{inst.context, inst.input_source};
    auto ids = serializer.EncodePrompt(prompt);
    if (static_cast<int>(ids.size()) > cfg.max_len) continue;
    auto out = model->GenerateBatch({ids}, 24)[0];
    samples.AddRow({printable(inst.input_source), printable(inst.label),
                    printable(tokenizer.Decode(out))});
  }
  samples.Print();

  // Demonstrate checkpointing of the trained model.
  std::string path = "/tmp/dtt_neural_demo.dttart";
  auto params = model->Params();
  if (io::SaveArtifact(path, params).ok()) {
    std::printf("checkpoint written to %s\n", path.c_str());
  }
  ctx.Finish();
  return 0;
}

}  // namespace
}  // namespace dtt

int main() { return dtt::Main(); }
