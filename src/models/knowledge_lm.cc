#include "models/knowledge_lm.h"

#include <cctype>

#include "models/noisy_model.h"
#include "util/string_util.h"

namespace dtt {

KnowledgeLM::KnowledgeLM(KnowledgeLMOptions options)
    : options_(std::move(options)) {
  if (!options_.kb) options_.kb = KnowledgeBase::Builtin();
  // Degraded mode: no sub-token alignment on unfamiliar byte soup.
  options_.random_text.allow_char_range = false;
  options_.random_text.allow_token_slice = false;
}

double KnowledgeLM::Naturalness(const Prompt& prompt,
                                std::string_view separators) {
  std::vector<std::string_view> cells;
  for (const auto& ex : prompt.examples) {
    cells.push_back(ex.source);
    cells.push_back(ex.target);
  }
  cells.push_back(prompt.source);
  return ContentNaturalness(cells, separators);
}

Result<std::string> KnowledgeLM::Transform(const Prompt& prompt) {
  if (prompt.examples.empty()) {
    return Status::InvalidArgument(
        "KnowledgeLM requires at least one context example (zero-shot table "
        "transformation is ill-posed, §5.6)");
  }
  Serializer serializer;
  Rng rng =
      Rng(options_.seed).Fork(Rng::HashString(serializer.RenderPrompt(prompt)));
  const size_t k = prompt.examples.size();
  const double noise =
      options_.generation_noise * 2.0 / static_cast<double>(k + 1);

  // 1. World knowledge: examples grounded in a KB relation.
  auto rels = options_.kb->MatchingRelations(prompt.examples);
  for (const auto* rel : rels) {
    auto v = rel->Lookup(prompt.source);
    if (v) return *v;
  }

  // 2. Whole-string character replacement (reversal intentionally absent).
  auto global = induction::DetectGlobalPattern(
      prompt.examples, options_.detect_replace, options_.detect_reverse);
  if (global) {
    std::string exact = global->Apply(prompt.source);
    double err = global->kind == induction::GlobalPattern::Kind::kCharReplace
                     ? options_.replace_noise
                     : noise;
    // One-example replace hypotheses are shaky: sometimes the model follows a
    // different reading of the single example.
    if (k == 1 && rng.NextBool(0.5)) {
      return CorruptChars(prompt.source, options_.echo_noise, &rng);
    }
    return CorruptChars(exact, err, &rng);
  }

  // 3. Content-dependent program induction.
  double naturalness = Naturalness(prompt, options_.natural.separators);
  induction::InductionConfig cfg;
  if (naturalness >= options_.naturalness_threshold) {
    cfg = options_.natural;
  } else {
    cfg = options_.random_text;
    // Occasionally the LLM still "sees" the character-level alignment.
    if (rng.NextBool(options_.char_range_prob)) {
      cfg.allow_char_range = true;
      cfg.allow_token_slice = true;
    }
  }

  if (k == 1) {
    // A single example underdetermines the transformation: sometimes the
    // model mis-reads the task entirely and rambles ...
    if (rng.NextBool(options_.one_example_fail_prob)) {
      return CorruptChars(prompt.source, options_.echo_noise, &rng);
    }
    // ... otherwise it samples among the top candidate programs (both are
    // the Figure 3 one-shot failure mode).
    auto programs = induction::SynthesizePrograms(prompt.examples[0], cfg);
    std::vector<const induction::AtomProgram*> applicable;
    for (const auto& p : programs) {
      auto out = p.Apply(prompt.source, cfg.separators);
      if (out && !out->empty()) applicable.push_back(&p);
      if (static_cast<int>(applicable.size()) >= options_.one_example_top_n) {
        break;
      }
    }
    if (!applicable.empty()) {
      const auto* pick = applicable[rng.NextBounded(applicable.size())];
      auto out = pick->Apply(prompt.source, cfg.separators);
      return CorruptChars(*out, noise, &rng);
    }
  } else {
    const induction::TokenCache source(prompt.source, cfg.separators);
    auto common =
        induction::FirstCommonProgramOutput(prompt.examples, source, cfg);
    if (common) return CorruptChars(common->output, noise, &rng);
    // Inconsistent context: follow the first example alone half the time.
    if (rng.NextBool(0.5)) {
      auto single =
          induction::FirstProgramOutput(prompt.examples[0], source, cfg);
      if (single) return CorruptChars(single->output, noise, &rng);
    }
  }

  // 4. Lost: echo the input (LLMs rarely emit nothing). The echo is noisy
  // and context-seeded, so trials disagree and the aggregator discounts it.
  if (rng.NextBool(options_.echo_prob)) {
    return CorruptChars(prompt.source, options_.echo_noise, &rng);
  }
  return std::string();
}

}  // namespace dtt
