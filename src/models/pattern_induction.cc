#include "models/pattern_induction.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "models/noisy_model.h"
#include "obs/metrics.h"

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

// Process-wide fallback-memo counters, resolved once. Purely observational.
struct MemoMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  static const MemoMetrics& Get() {
    static const MemoMetrics m{
        obs::GlobalMetrics().GetCounter("models.induction.memo_hits"),
        obs::GlobalMetrics().GetCounter("models.induction.memo_misses"),
        obs::GlobalMetrics().GetCounter("models.induction.memo_evictions"),
    };
    return m;
  }
};

}  // namespace

FallbackMemo::FallbackMemo(induction::InductionConfig cfg)
    : cfg_(std::move(cfg)) {}

size_t FallbackMemo::ExampleHash::operator()(
    const ExamplePair& example) const {
  const std::hash<std::string> hash;
  return hash(example.source) * 31 + hash(example.target);
}

std::optional<induction::ProgramOutput> FallbackMemo::FirstProgramOutput(
    const ExamplePair& example, const induction::TokenCache& source) {
  const MemoMetrics& metrics = MemoMetrics::Get();
  std::shared_ptr<const Entry> entry = Find(example);
  if (entry) {
    metrics.hits->Increment();
  } else {
    metrics.misses->Increment();
    // A lower cap on distinct programs only ends the same walk sooner, so
    // this is a prefix of the list FirstProgramOutput walks.
    const int cap = static_cast<int>(kPrograms);
    induction::InductionConfig top = cfg_;
    top.max_programs = std::min(cfg_.max_programs, cap);
    auto fresh = std::make_shared<Entry>();
    fresh->programs = induction::SynthesizePrograms(example, top);
    fresh->complete =
        fresh->programs.size() < kPrograms || cfg_.max_programs <= cap;
    entry = fresh;
    Insert(example, std::move(fresh));
  }
  for (const auto& program : entry->programs) {
    std::optional<std::string> out = program.Apply(source);
    if (out && !out->empty()) {
      return induction::ProgramOutput{std::move(*out), program.score};
    }
  }
  if (entry->complete) return std::nullopt;
  return induction::FirstProgramOutput(example, source, cfg_);
}

std::shared_ptr<const FallbackMemo::Entry> FallbackMemo::Find(
    const ExamplePair& example) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(example);
  return it == entries_.end() ? nullptr : it->second;
}

void FallbackMemo::Insert(const ExamplePair& example,
                          std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  // Another thread may have computed the same entry meanwhile.
  if (!entries_.emplace(example, std::move(entry)).second) return;
  order_.push_back(example);
  if (order_.size() > kCapacity) {
    entries_.erase(order_.front());
    order_.pop_front();
    MemoMetrics::Get().evictions->Increment();
  }
}

PatternInductionModel::PatternInductionModel(PatternInductionOptions options)
    : options_(std::move(options)), fallback_memo_(options_.induction) {}

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
  // The decomposer reuses each Se example across many prompts, so the
  // per-example programs come from the memo.
  if (options_.fallback_single_example) {
    double best_score = -1e18;
    std::string best_output;
    for (const auto& example : prompt.examples) {
      // Top applicable program per example.
      auto single = fallback_memo_.FirstProgramOutput(example, source);
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
