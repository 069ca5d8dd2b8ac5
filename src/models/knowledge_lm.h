#ifndef DTT_MODELS_KNOWLEDGE_LM_H_
#define DTT_MODELS_KNOWLEDGE_LM_H_

#include <memory>

#include "data/knowledge_base.h"
#include "models/alignment.h"
#include "models/model.h"
#include "util/rng.h"

namespace dtt {

/// Behavioural knobs of the simulated general-purpose LLM (the GPT-3 Curie
/// stand-in of §5.6). Mechanisms, not per-dataset constants, produce the
/// paper's observed profile:
///  * rich world knowledge: the full built-in KB;
///  * strong induction on natural-language-like content, degraded induction
///    on random-character content (GPT-3 "may not have encountered them
///    during its training");
///  * pronounced one-example ambiguity: with a single example the model
///    samples among the top plausible programs;
///  * echoes the input rather than abstaining when lost (LLM behaviour).
struct KnowledgeLMOptions {
  std::shared_ptr<const KnowledgeBase> kb;  // defaults to Builtin()
  /// Full-power synthesis used on natural content.
  induction::InductionConfig natural;
  /// Degraded synthesis for random-character content: token copies and
  /// literals only.
  induction::InductionConfig random_text;
  /// Chance that the degraded mode still finds character-level alignments.
  double char_range_prob = 0.25;
  /// Fraction of word-like tokens above which content counts as natural.
  double naturalness_threshold = 0.5;
  bool detect_replace = true;
  bool detect_reverse = false;  // GPT-3 fails Syn-RV in the paper
  double replace_noise = 0.03;
  /// Base per-character generation noise; shrinks as 2/k with more examples.
  double generation_noise = 0.02;
  /// With one example, sample uniformly among the top-N candidate programs.
  int one_example_top_n = 5;
  /// With one example, probability that the model mis-reads the task
  /// entirely and rambles (Figure 3: GPT3-1e F1 0.15-0.72 vs ~0.93+ at two
  /// examples). Does not apply to KB-grounded prompts — one example is
  /// enough to recognize a known relation (Table 2: KBWT barely changes
  /// between 1 and 2 examples).
  double one_example_fail_prob = 0.35;
  /// Probability of echoing the input when no program applies.
  double echo_prob = 0.9;
  /// Per-character corruption of a lost echo: an LLM with no usable pattern
  /// rambles, and differently per prompt (ANED ~0.9 on Syn-RV, Table 2).
  double echo_noise = 0.12;
  uint64_t seed = 0x6F3;
};

/// Simulated large general-purpose language model used (a) stand-alone as the
/// GPT3-ke baselines and (b) inside the DTT framework as GPT3-DTT-ke
/// (Table 2 / Figure 3) and in the multi-model aggregator (Table 3).
class KnowledgeLM : public TextToTextModel {
 public:
  explicit KnowledgeLM(KnowledgeLMOptions options = {});

  std::string name() const override { return "gpt3-sim"; }
  Result<std::string> Transform(const Prompt& prompt) override;

  /// Transform derives its RNG purely from (seed, prompt) and keeps no
  /// mutable state, so concurrent calls are safe and deterministic.
  bool thread_safe() const override { return true; }

  /// Fraction of word-like tokens across a prompt's cells in [0,1];
  /// exposed for tests.
  static double Naturalness(const Prompt& prompt,
                            std::string_view separators);

 private:
  KnowledgeLMOptions options_;
};

}  // namespace dtt

#endif  // DTT_MODELS_KNOWLEDGE_LM_H_
