// Experiment E9 — ablations of the DTT design choices of the paper's §4:
//   1. aggregation (n=1 vs n=5 trials, Eq. 3-4);
//   2. context size k (1 vs 2 vs 3 examples per prompt, §4.1);
//   3. reverse/replace generalization in the model (§5.5's "not limited to
//      training units" claim);
//   4. edit-distance join vs exact-match join (Eq. 5).
// All six variants × four datasets run as one grid through the sharded
// ExperimentRunner.
#include <cstdio>

#include "bench/exp_common.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "models/pattern_induction.h"

namespace dtt {
namespace {

constexpr uint64_t kSeed = 20248;

std::unique_ptr<JoinMethod> DttVariant(const std::string& name,
                                       PatternInductionOptions mopts,
                                       int trials, int k,
                                       JoinerOptions joiner = {}) {
  mopts.kb = KnowledgeBase::Builtin()->Subsample(kDttKbCoverage, mopts.seed);
  PipelineOptions popts;
  popts.decomposer.num_trials = trials;
  popts.decomposer.context_size = k;
  return std::make_unique<DttJoinMethod>(
      name,
      std::vector<std::shared_ptr<TextToTextModel>>{
          std::make_shared<PatternInductionModel>(std::move(mopts))},
      popts, joiner);
}

int Main() {
  auto ctx = bench::BeginExperiment("exp_ablation", "ablation studies",
                                    /*default_row_scale=*/0.25, kSeed);

  ExperimentSpec spec = ctx.Spec("ablation");
  for (const char* ds_name : {"WT", "Syn", "Syn-RP", "Syn-RV"}) {
    spec.AddNamedDataset(ds_name);
  }
  spec.AddMethod(DttVariant("full (n=5,k=2)", {}, 5, 2));
  spec.AddMethod(DttVariant("no-aggregation (n=1)", {}, 1, 2));
  spec.AddMethod(DttVariant("k=1 context", {}, 5, 1));
  spec.AddMethod(DttVariant("k=3 context", {}, 5, 3));
  {
    PatternInductionOptions no_gen;
    no_gen.detect_reverse = false;
    no_gen.detect_replace = false;
    spec.AddMethod(DttVariant("no reverse/replace", std::move(no_gen), 5, 2));
  }
  {
    JoinerOptions exact;
    exact.max_distance_ratio = 1e-9;  // rejects every non-exact match
    spec.AddMethod(DttVariant("exact-match join", {}, 5, 2, exact));
  }
  GridResult grid = ctx.runner().Run(spec);

  for (const std::string& ds : grid.datasets) {
    PrintBanner("dataset: " + ds);
    TablePrinter table({"variant", "P", "R", "F1", "ANED"});
    for (const std::string& variant : grid.methods) {
      const DatasetEval& e = grid.Eval(ds, variant);
      table.AddRow({variant, TablePrinter::Num(e.join.precision),
                    TablePrinter::Num(e.join.recall),
                    TablePrinter::Num(e.join.f1),
                    TablePrinter::Num(e.pred.aned)});
    }
    table.Print();
  }
  bench::ReportGrid(grid, "ablation", &ctx.report);
  std::printf(
      "\nExpected: removing aggregation hurts under noise/ambiguity; k=1 "
      "hurts everywhere (ambiguous single example); disabling "
      "reverse/replace zeroes Syn-RV and Syn-RP; exact-match join hurts "
      "whenever generations are imperfect (Syn-RV especially).\n");
  ctx.Finish();
  return 0;
}

}  // namespace
}  // namespace dtt

int main() { return dtt::Main(); }
