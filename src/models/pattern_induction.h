#ifndef DTT_MODELS_PATTERN_INDUCTION_H_
#define DTT_MODELS_PATTERN_INDUCTION_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/knowledge_base.h"
#include "models/alignment.h"
#include "models/model.h"
#include "util/rng.h"

namespace dtt {

/// Behavioural knobs of the simulated fine-tuned byte-level model. The
/// defaults are calibrated to the qualitative profile §5.5 reports for DTT:
/// near-exact outputs on transformations expressible as character-level copy
/// programs, lossy-but-joinable outputs on whole-string reversal (the paper
/// measures ANED 0.85 with F1 0.63 on Syn-RV), tiny generation noise
/// elsewhere, and limited world knowledge (a subsampled KB).
struct PatternInductionOptions {
  induction::InductionConfig induction;
  bool detect_reverse = true;
  bool detect_replace = true;
  /// Per-character probability of emitting the *correct* character when
  /// realizing a reversal (auto-regressive degradation on a transformation
  /// never seen in training, §5.9). Errors substitute, drop or double
  /// characters, so length drifts as well.
  double reverse_fidelity = 0.21;
  /// Per-character error rate when realizing a character-replacement pattern.
  double replace_noise = 0.01;
  /// Per-character error rate on ordinary program outputs.
  double generation_noise = 0.005;
  /// When no program is consistent with all context examples, fall back to
  /// the best program of a single example (produces plausible-but-wrong
  /// predictions the aggregator can out-vote).
  bool fallback_single_example = true;
  /// Optional world knowledge (pass KnowledgeBase::Builtin()->Subsample(...)
  /// to model the limited prior knowledge of a small fine-tuned model).
  std::shared_ptr<const KnowledgeBase> kb;
  uint64_t seed = 0xD77;
};

/// The single-example fallback's memo. For each context example it keeps the
/// first kPrograms distinct programs of SynthesizePrograms(example, cfg) and
/// whether the list ends there. The decomposer draws every prompt's examples
/// from one Se, so an example comes back in many prompts of its table, and a
/// hit replaces a beam search by running at most kPrograms programs.
///
/// Bounded and thread-safe: at most kCapacity examples, the oldest insertion
/// evicted first; lookups and insertions hold one mutex, and a missing entry
/// is computed outside it. Only materialized programs are stored, never
/// candidate tables or search arenas.
class FallbackMemo {
 public:
  static constexpr size_t kPrograms = 4;
  static constexpr size_t kCapacity = 256;

  explicit FallbackMemo(induction::InductionConfig cfg);

  /// Equals induction::FirstProgramOutput(example, source, cfg) bit for bit,
  /// whatever the call history. The cached programs are a prefix of the list
  /// that walk visits; when all of them are empty on `source` and the list
  /// goes on, this calls FirstProgramOutput itself.
  std::optional<induction::ProgramOutput> FirstProgramOutput(
      const ExamplePair& example, const induction::TokenCache& source);

 private:
  struct Entry {
    std::vector<induction::AtomProgram> programs;
    bool complete = false;  // no program of the list follows `programs`
  };
  struct ExampleHash {
    size_t operator()(const ExamplePair& example) const;
  };

  std::shared_ptr<const Entry> Find(const ExamplePair& example);
  void Insert(const ExamplePair& example, std::shared_ptr<const Entry> entry);

  const induction::InductionConfig cfg_;
  std::mutex mu_;
  std::unordered_map<ExamplePair, std::shared_ptr<const Entry>, ExampleHash>
      entries_;
  std::deque<ExamplePair> order_;  // keys of entries_, oldest first
};

/// Simulated fine-tuned ByT5: an example-driven character-level program
/// synthesizer with the behavioural envelope of the paper's DTT model
/// (docs/architecture.md, "Substitutions", documents the substitution).
class PatternInductionModel : public TextToTextModel {
 public:
  explicit PatternInductionModel(PatternInductionOptions options = {});

  std::string name() const override { return "dtt"; }
  Result<std::string> Transform(const Prompt& prompt) override;

  /// Transform derives its RNG purely from (seed, prompt). Its only mutable
  /// state is the mutex-guarded fallback memo, which never changes an
  /// output, so concurrent calls are safe and deterministic.
  bool thread_safe() const override { return true; }

 private:
  PatternInductionOptions options_;
  FallbackMemo fallback_memo_;
};

}  // namespace dtt

#endif  // DTT_MODELS_PATTERN_INDUCTION_H_
