#include "models/pattern_induction.h"

#include "models/noisy_model.h"

namespace dtt {

namespace {

// Lossy realization of a reversal: each character is correct with
// probability `fidelity`; wrong characters are substituted, occasionally
// dropped or doubled (auto-regressive drift also distorts length). The
// output remains *statistically* closest to the true reversed target, which
// is why the edit-distance join still recovers many rows even at ANED > 0.8
// (the §5.5 Syn-RV observation: ANED 0.852 yet F1 0.632).
std::string LossyReverse(const std::string& exact, double fidelity, Rng* rng) {
  static constexpr char kPool[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .-_/";
  std::string out;
  out.reserve(exact.size());
  for (char c : exact) {
    if (rng->NextBool(fidelity)) {
      out.push_back(c);
      continue;
    }
    switch (rng->NextBounded(10)) {
      case 0:
      case 1:
      case 2:  // dropped character
        break;
      case 3:
      case 4: {  // doubled garbage
        char g = kPool[rng->NextBounded(sizeof(kPool) - 1)];
        out.push_back(g);
        out.push_back(kPool[rng->NextBounded(sizeof(kPool) - 1)]);
        break;
      }
      default:
        out.push_back(kPool[rng->NextBounded(sizeof(kPool) - 1)]);
        break;
    }
  }
  return out;
}

}  // namespace

PatternInductionModel::PatternInductionModel(PatternInductionOptions options)
    : options_(std::move(options)) {}

Result<std::string> PatternInductionModel::Transform(const Prompt& prompt) {
  if (prompt.examples.empty()) {
    return Status::InvalidArgument(
        "PatternInductionModel requires at least one context example");
  }
  Serializer serializer;
  Rng rng =
      Rng(options_.seed).Fork(Rng::HashString(serializer.RenderPrompt(prompt)));

  // 1. Whole-string patterns (identity / case / replace / reverse).
  auto global = induction::DetectGlobalPattern(
      prompt.examples, options_.detect_replace, options_.detect_reverse);
  if (global) {
    std::string exact = global->Apply(prompt.source);
    switch (global->kind) {
      case induction::GlobalPattern::Kind::kReverse: {
        // Decoding errors on a transformation outside the training
        // distribution are intrinsic to (model, input) — a greedy decoder
        // emits the same imperfect string for the same input regardless of
        // which context subset framed it. Seeding by the input keeps the
        // trials self-consistent, which is what lets the aggregator side
        // with this model in the §5.7 ensemble.
        Rng input_rng =
            Rng(options_.seed).Fork(Rng::HashString(prompt.source));
        return LossyReverse(exact, options_.reverse_fidelity, &input_rng);
      }
      case induction::GlobalPattern::Kind::kCharReplace:
        return CorruptChars(exact, options_.replace_noise, &rng);
      default:
        return CorruptChars(exact, options_.generation_noise, &rng);
    }
  }

  // 2. Prior world knowledge (limited KB): if every example is explained by a
  // KB relation, answer from that relation when the input is covered.
  if (options_.kb) {
    auto rels = options_.kb->MatchingRelations(prompt.examples);
    for (const auto* rel : rels) {
      auto v = rel->Lookup(prompt.source);
      if (v) return *v;
    }
    if (!rels.empty()) {
      // Semantically grounded but input not covered: abstain rather than
      // hallucinate a value.
      return std::string();
    }
  }

  // 3. Character-level program synthesis across all context examples.
  const induction::TokenCache source(prompt.source,
                                     options_.induction.separators);
  auto common = induction::FirstCommonProgramOutput(prompt.examples, source,
                                                    options_.induction);
  if (common) {
    return CorruptChars(common->output, options_.generation_noise, &rng);
  }

  // 4. Noise fallback: no program explains all examples (inconsistent or
  // noisy context). A language model in this situation follows the example
  // whose pattern is *cleaner* — and synthesis score is exactly that signal:
  // a genuine transformation yields a high-scoring copy-heavy program, while
  // a random-garbage target only admits literal-stitched low-score programs.
  // This selection is what gives the framework its §5.10 noise robustness:
  // trials containing one clean example still vote for the right answer.
  if (options_.fallback_single_example) {
    double best_score = -1e18;
    std::string best_output;
    for (const auto& example : prompt.examples) {
      // Top applicable program per example.
      auto single =
          induction::FirstProgramOutput(example, source, options_.induction);
      if (single && single->score > best_score) {
        best_score = single->score;
        best_output = std::move(single->output);
      }
    }
    if (!best_output.empty()) {
      return CorruptChars(best_output, options_.generation_noise, &rng);
    }
  }

  return std::string();  // abstain (<eos> only)
}

}  // namespace dtt
