// Experiment E4 — Figure 4 (a-d): performance of the *neural* DTT model as a
// function of the number of training samples, for models trained on
// shorter-length vs longer-length data.
//
// Substitution note (docs/architecture.md, "Substitutions"): the paper
// fine-tunes ByT5-base on up to 10,000 transformation groupings on GPU; here
// the from-scratch CPU transformer trains on a miniature grid. The paper's
// shape: F1 rises steeply from the untrained model, plateaus after enough
// groupings, and the longer-length regime does not help at short evaluation
// lengths (§5.8). This program checks the first part per regime and prints
// PASS or FAIL (see PrintShapeVerdict).
// Each sweep point's end-to-end join evaluation runs as a 2-dataset ×
// 1-method grid through the sharded ExperimentRunner (the trained
// transformer is thread-safe, so its clones share one pipeline).
//
// Env knobs: DTT_FIG4_GROUPS="0,20,80,200"  DTT_FIG4_EPOCHS=2
#include <cstdio>
#include <vector>

#include "bench/exp_common.h"
#include "data/synthetic_datasets.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "models/neural_model.h"
#include "nn/trainer.h"
#include "util/stopwatch.h"

namespace dtt {
namespace {

constexpr uint64_t kSeed = 20243;

nn::TransformerConfig MiniConfig() {
  nn::TransformerConfig cfg;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.ff_hidden = 96;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;  // unbalanced, ByT5-style
  cfg.max_len = 160;
  return cfg;
}

/// Evaluation benchmark factories: miniature Syn-ST / Syn-RP tables (short
/// rows so the mini model's receptive field suffices).
ExperimentSpec EvalSpec(const bench::ExpContext& ctx, uint64_t seed) {
  SyntheticOptions opts;
  opts.num_tables = 3;
  opts.rows_per_table = 14;
  opts.min_len = 5;
  opts.max_len = 9;
  ExperimentSpec spec = ctx.Spec("fig4");
  spec.seed = seed;
  spec.AddDataset("Syn-ST-mini", [opts] {
    Rng rng(kSeed + 1);
    return MakeSynSt(opts, &rng);
  });
  spec.AddDataset("Syn-RP-mini", [opts] {
    Rng rng(kSeed + 2);
    return MakeSynRp(opts, &rng);
  });
  return spec;
}

struct SweepPoint {
  int groups;
  double f1;
  double aned;
  double val_exact;
  double seconds;
};

SweepPoint RunPoint(const bench::ExpContext& ctx, int groups, int min_len,
                    int max_len, int epochs) {
  Stopwatch watch;
  const uint64_t point_seed = ctx.seed + static_cast<uint64_t>(groups) * 7919 +
                              static_cast<uint64_t>(max_len);
  Rng rng(point_seed);
  auto model = std::make_shared<nn::Transformer>(MiniConfig(), &rng);

  TrainingDataOptions dopts;
  dopts.num_groups = groups;
  dopts.pairs_per_group = 10;
  dopts.sets_per_group = 4;
  dopts.source.min_len = min_len;
  dopts.source.max_len = max_len;
  dopts.program.min_steps = 1;
  dopts.program.max_steps = 2;
  TrainingDataGenerator gen(dopts);
  auto data = gen.Generate(&rng);

  SerializerOptions sopts;
  sopts.max_tokens = 160;
  nn::TrainerOptions topts;
  topts.epochs = epochs;
  topts.batch_size = 8;
  topts.adam.lr = 2e-3f;
  topts.max_label_tokens = 24;
  nn::Seq2SeqTrainer trainer(model.get(), Serializer(sopts), topts);
  if (groups > 0) trainer.Train(data.train, &rng);
  auto val = trainer.Evaluate(data.validation, 40);

  // End-to-end join evaluation through the full pipeline, as a grid.
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 16;
  auto backend = std::make_shared<NeuralSeq2SeqModel>(
      model, Serializer(sopts), nopts);
  PipelineOptions popts;
  popts.decomposer.num_trials = 3;
  ExperimentSpec spec = EvalSpec(ctx, point_seed);
  spec.AddMethod(std::make_unique<DttJoinMethod>(
      "neural", std::vector<std::shared_ptr<TextToTextModel>>{backend},
      popts));
  GridResult grid = ctx.runner().Run(spec);

  // Pool every table of both mini benchmarks (the paper averages one curve).
  std::vector<JoinMetrics> joins;
  std::vector<PredictionMetrics> preds;
  for (const auto& row : grid.evals) {
    for (const DatasetEval& eval : row) {
      for (const TableEval& te : eval.per_table) {
        joins.push_back(te.join);
        preds.push_back(te.pred);
      }
    }
  }
  SweepPoint point;
  point.groups = groups;
  point.f1 = AverageJoin(joins).f1;
  point.aned = AveragePredictions(preds).aned;
  point.val_exact = val.exact_match;
  point.seconds = watch.Seconds();
  return point;
}

/// Fig. 4's shape on one regime's sweep: join F1 at the largest grouping
/// count beats the untrained (0-grouping) point, and ANED there is below 1
/// (1 is what empty predictions score). Prints PASS or FAIL, or that the
/// check did not run when the grid has no untrained point or nothing
/// trained to compare with it.
void PrintShapeVerdict(const char* regime,
                       const std::vector<SweepPoint>& points) {
  const SweepPoint* untrained = nullptr;
  const SweepPoint* largest = nullptr;
  for (const SweepPoint& p : points) {
    if (p.groups == 0) untrained = &p;
    if (largest == nullptr || p.groups > largest->groups) largest = &p;
  }
  if (untrained == nullptr || largest == untrained) {
    std::printf("Fig. 4 shape check (%s): not run, the grid needs 0 and a "
                "larger grouping count\n", regime);
    return;
  }
  const bool f1_rises = largest->f1 > untrained->f1;
  const bool aned_below_1 = largest->aned < 1.0;
  std::printf("Fig. 4 shape check (%s): F1 %.3f at %d groupings vs %.3f "
              "untrained (%s), ANED %.3f (%s): %s\n",
              regime, largest->f1, largest->groups, untrained->f1,
              f1_rises ? "rises" : "does not rise", largest->aned,
              aned_below_1 ? "< 1" : "not < 1",
              f1_rises && aned_below_1 ? "PASS" : "FAIL");
}

int Main() {
  auto ctx = bench::BeginExperiment(
      "exp_fig4",
      "Figure 4 (a-d): neural model vs #training groupings "
      "(mini scale; see docs/architecture.md, \"Substitutions\")",
      /*default_row_scale=*/1.0, kSeed);
  const int epochs = bench::IntFromEnv("DTT_FIG4_EPOCHS", 2);
  auto grid = bench::IntListFromEnv("DTT_FIG4_GROUPS", {0, 20, 80, 200});
  std::printf("grid:");
  for (int g : grid) std::printf(" %d", g);
  std::printf("   epochs: %d\n", epochs);

  for (auto [regime, min_len, max_len] :
       {std::tuple<const char*, int, int>{"short (paper 8-35)", 4, 9},
        std::tuple<const char*, int, int>{"long (paper 5-60)", 4, 16}}) {
    PrintBanner(std::string("training length regime: ") + regime);
    TablePrinter table(
        {"groups", "join-F1", "ANED", "val-exact", "train+eval s"});
    std::vector<SweepPoint> points;
    for (int g : grid) {
      SweepPoint p = RunPoint(ctx, g, min_len, max_len, epochs);
      points.push_back(p);
      table.AddRow({std::to_string(p.groups), TablePrinter::Num(p.f1),
                    TablePrinter::Num(p.aned), TablePrinter::Num(p.val_exact),
                    TablePrinter::Num(p.seconds, 1)});
      ctx.report.AddRun("fig4.point")
          .Set("regime", regime)
          .Set("groups", p.groups)
          .Set("f1", p.f1)
          .Set("aned", p.aned)
          .Set("val_exact", p.val_exact)
          .Set("seconds", p.seconds);
      std::fprintf(stderr, "[fig4] %s groups=%d done (%.1fs)\n", regime, g,
                   p.seconds);
    }
    table.Print();
    PrintShapeVerdict(regime, points);
  }
  ctx.Finish();
  return 0;
}

}  // namespace
}  // namespace dtt

int main() { return dtt::Main(); }
