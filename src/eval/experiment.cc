#include "eval/experiment.h"

#include <cstdlib>

#include "data/realworld_datasets.h"
#include "data/synthetic_datasets.h"

namespace dtt {

std::shared_ptr<TextToTextModel> MakeDttModel(uint64_t seed) {
  PatternInductionOptions options;
  options.seed = seed;
  options.kb = KnowledgeBase::Builtin()->Subsample(kDttKbCoverage, seed);
  return std::make_shared<PatternInductionModel>(std::move(options));
}

std::shared_ptr<TextToTextModel> MakeGpt3Model(uint64_t seed) {
  KnowledgeLMOptions options;
  options.seed = seed;
  options.kb = KnowledgeBase::Builtin()->Subsample(kGpt3KbCoverage, seed);
  return std::make_shared<KnowledgeLM>(std::move(options));
}

std::unique_ptr<JoinMethod> MakeDttMethod(int num_trials, int context_size,
                                          uint64_t seed) {
  PipelineOptions options;
  options.decomposer.num_trials = num_trials;
  options.decomposer.context_size = context_size;
  return std::make_unique<DttJoinMethod>(
      "DTT", std::vector<std::shared_ptr<TextToTextModel>>{
                 MakeDttModel(seed)},
      options);
}

std::unique_ptr<JoinMethod> MakeGpt3PlainMethod(int num_examples) {
  return std::make_unique<PlainLlmJoinMethod>(
      "GPT3-" + std::to_string(num_examples) + "e", MakeGpt3Model(),
      num_examples);
}

std::unique_ptr<JoinMethod> MakeGpt3FrameworkMethod(int num_examples,
                                                    int num_trials) {
  PipelineOptions options;
  options.decomposer.num_trials = num_trials;
  options.decomposer.context_size = num_examples;
  return std::make_unique<DttJoinMethod>(
      "GPT3-DTT-" + std::to_string(num_examples) + "e",
      std::vector<std::shared_ptr<TextToTextModel>>{MakeGpt3Model()}, options);
}

std::unique_ptr<JoinMethod> MakeCombinedMethod(int num_trials) {
  PipelineOptions options;
  options.decomposer.num_trials = num_trials;
  options.decomposer.context_size = 2;
  return std::make_unique<DttJoinMethod>(
      "DTT+GPT3",
      std::vector<std::shared_ptr<TextToTextModel>>{MakeDttModel(),
                                                    MakeGpt3Model()},
      options);
}

std::vector<Dataset> MakeAllDatasets(uint64_t seed, double row_scale) {
  std::vector<Dataset> all;
  all.push_back(MakeDatasetByName("WT", seed, row_scale));
  all.push_back(MakeDatasetByName("SS", seed, row_scale));
  all.push_back(MakeDatasetByName("KBWT", seed, row_scale));
  all.push_back(MakeDatasetByName("Syn", seed, row_scale));
  all.push_back(MakeDatasetByName("Syn-RP", seed, row_scale));
  all.push_back(MakeDatasetByName("Syn-ST", seed, row_scale));
  all.push_back(MakeDatasetByName("Syn-RV", seed, row_scale));
  return all;
}

Dataset MakeDatasetByName(const std::string& name, uint64_t seed,
                          double row_scale) {
  Rng rng(seed ^ Rng::HashString(name));
  RealWorldOptions rw;
  rw.row_scale = row_scale;
  SyntheticOptions syn;
  syn.rows_per_table = std::max(4, static_cast<int>(100 * row_scale));
  SyntheticOptions syn_small;
  syn_small.num_tables = 5;
  syn_small.rows_per_table = std::max(4, static_cast<int>(50 * row_scale));

  if (name == "WT") return MakeWebTables(rw, &rng);
  if (name == "SS") return MakeSpreadsheet(rw, &rng);
  if (name == "KBWT") return MakeKbwt(rw, &rng);
  if (name == "Syn") return MakeSyn(syn, &rng);
  if (name == "Syn-RP") return MakeSynRp(syn_small, &rng);
  if (name == "Syn-ST") return MakeSynSt(syn_small, &rng);
  if (name == "Syn-RV") return MakeSynRv(syn_small, &rng);
  return Dataset{name, {}};
}

double RowScaleFromEnv(double fallback) {
  const char* env = std::getenv("DTT_ROW_SCALE");
  if (env == nullptr) return fallback;
  double v = std::atof(env);
  return v > 0.0 ? v : fallback;
}

}  // namespace dtt
