#ifndef DTT_EVAL_EXPERIMENT_H_
#define DTT_EVAL_EXPERIMENT_H_

#include <memory>
#include <vector>

#include "eval/join_eval.h"
#include "models/knowledge_lm.h"
#include "models/pattern_induction.h"

namespace dtt {

/// Knowledge-coverage constants of the simulated models (docs/architecture.md,
/// "Substitutions"):
/// the benchmark KB (KnowledgeBase::Builtin()) is the *world truth* the KBWT
/// tables are generated from; each model only knows a slice of it, which is
/// what produces the partial KBWT scores the paper reports.
constexpr double kDttKbCoverage = 0.30;          // fine-tuned byte model
constexpr double kGpt3KbCoverage = 0.50;         // large general-purpose LLM
constexpr double kDataXFormerKbCoverage = 0.35;  // DataXFormer's table corpus

/// The paper-default DTT backend (simulated fine-tuned ByT5).
std::shared_ptr<TextToTextModel> MakeDttModel(uint64_t seed = 0xD77);

/// The simulated GPT-3 backend.
std::shared_ptr<TextToTextModel> MakeGpt3Model(uint64_t seed = 0x6F3);

/// DTT with paper defaults: 2-example contexts, 5 trials, edit-distance join.
std::unique_ptr<JoinMethod> MakeDttMethod(int num_trials = 5,
                                          int context_size = 2,
                                          uint64_t seed = 0xD77);

/// GPT3-ke: plain few-shot prompting outside the framework (§5.6).
std::unique_ptr<JoinMethod> MakeGpt3PlainMethod(int num_examples);

/// GPT3-DTT-ke: GPT-3 inside the DTT framework (decomposer + aggregator).
std::unique_ptr<JoinMethod> MakeGpt3FrameworkMethod(int num_examples,
                                                    int num_trials = 5);

/// DTT + GPT3 multi-model configuration of §5.7 (5 + 5 equally weighted
/// trials pooled in one aggregator).
std::unique_ptr<JoinMethod> MakeCombinedMethod(int num_trials = 5);

/// All seven evaluation benchmarks of §5.2, generated deterministically.
/// `row_scale` uniformly shrinks table sizes (sub-sampling for quick runs and
/// scaling sweeps); 1.0 reproduces the paper-default statistics.
std::vector<Dataset> MakeAllDatasets(uint64_t seed, double row_scale = 1.0);

/// Single benchmark by name ("WT", "SS", "KBWT", "Syn", "Syn-RP", "Syn-ST",
/// "Syn-RV").
Dataset MakeDatasetByName(const std::string& name, uint64_t seed,
                          double row_scale = 1.0);

/// Reads a row-scale override from the DTT_ROW_SCALE environment variable
/// (used by bench binaries so CI and quick local runs can shrink the work).
double RowScaleFromEnv(double fallback = 1.0);

}  // namespace dtt

#endif  // DTT_EVAL_EXPERIMENT_H_
