#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <thread>

#include "data/realworld_datasets.h"
#include "models/knowledge_lm.h"
#include "models/neural_model.h"
#include "models/noisy_model.h"
#include "models/pattern_induction.h"
#include "obs/metrics.h"
#include "util/edit_distance.h"

namespace dtt {
namespace {

Prompt MakePrompt(std::vector<ExamplePair> examples, std::string source) {
  Prompt p;
  p.examples = std::move(examples);
  p.source = std::move(source);
  return p;
}

TEST(PatternInductionModelTest, RequiresExamples) {
  PatternInductionModel model;
  auto r = model.Transform(MakePrompt({}, "x"));
  EXPECT_FALSE(r.ok());
}

TEST(PatternInductionModelTest, LearnsUserIdPattern) {
  PatternInductionOptions opts;
  opts.generation_noise = 0.0;
  PatternInductionModel model(opts);
  auto r = model.Transform(MakePrompt(
      {{"Justin Trudeau", "jtrudeau"}, {"Stephen Harper", "sharper"}},
      "Kim Campbell"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "kcampbell");
}

TEST(PatternInductionModelTest, LearnsSubstringOnRandomText) {
  PatternInductionOptions opts;
  opts.generation_noise = 0.0;
  PatternInductionModel model(opts);
  auto r = model.Transform(MakePrompt(
      {{"q7x#kpl2vw", "7x#k"}, {"m3z@tyu8ab", "3z@t"}}, "h5d!wqn9rt"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "5d!w");
}

TEST(PatternInductionModelTest, ReverseIsLossyButLengthSimilar) {
  PatternInductionOptions opts;
  opts.reverse_fidelity = 0.3;
  PatternInductionModel model(opts);
  std::string input = "abcdefghijklmnop";
  auto r = model.Transform(MakePrompt(
      {{"Hello", "olleH"}, {"World", "dlroW"}}, input));
  ASSERT_TRUE(r.ok());
  // Length drifts a little (drops/doubles) but stays in the right ballpark.
  EXPECT_GE(r.value().size(), input.size() / 2);
  EXPECT_LE(r.value().size(), input.size() * 2);
  // Lossy: the exact reversal is not reproduced, but remains closer than a
  // fully random string.
  std::string exact = std::string(input.rbegin(), input.rend());
  EXPECT_NE(r.value(), exact);
  EXPECT_LT(EditDistance(r.value(), exact), input.size());
}

TEST(PatternInductionModelTest, ReverseFullFidelityIsExact) {
  PatternInductionOptions opts;
  opts.reverse_fidelity = 1.0;
  PatternInductionModel model(opts);
  auto r = model.Transform(
      MakePrompt({{"Hello", "olleH"}, {"ab", "ba"}}, "xyz"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "zyx");
}

TEST(PatternInductionModelTest, ReplaceNearExact) {
  PatternInductionOptions opts;
  opts.replace_noise = 0.0;
  PatternInductionModel model(opts);
  auto r = model.Transform(MakePrompt(
      {{"2021/03/01", "2021-03-01"}, {"1999/12/31", "1999-12-31"}},
      "2010/07/15"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "2010-07-15");
}

TEST(PatternInductionModelTest, KbAnswersWhenExamplesGrounded) {
  PatternInductionOptions opts;
  opts.kb = KnowledgeBase::Builtin();  // full knowledge for the test
  PatternInductionModel model(opts);
  auto r = model.Transform(MakePrompt(
      {{"California", "CA"}, {"Texas", "TX"}}, "Nevada"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "NV");
}

TEST(PatternInductionModelTest, DeterministicPerPrompt) {
  PatternInductionModel model;
  Prompt p = MakePrompt({{"Hello", "olleH"}, {"World", "dlroW"}}, "abcdef");
  auto r1 = model.Transform(p);
  auto r2 = model.Transform(p);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
}

TEST(PatternInductionModelTest, NoisyContextFallsBackToSingleExample) {
  PatternInductionOptions opts;
  opts.generation_noise = 0.0;
  PatternInductionModel model(opts);
  // Second example is garbage; no common program exists, but the model
  // should still follow the first example rather than abstain.
  auto r = model.Transform(MakePrompt(
      {{"John Smith", "Smith"}, {"Alice Walker", "q#9!z"}}, "Maria Garcia"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().empty());
}

TEST(PatternInductionModelTest, AbstainsWhenNothingApplies) {
  PatternInductionOptions opts;
  opts.fallback_single_example = false;
  PatternInductionModel model(opts);
  // Different target lengths rule out the char-replace detector, and the
  // unrelated literals rule out any common program.
  auto r = model.Transform(
      MakePrompt({{"abc", "xyzw"}, {"defg", "qq"}}, "ghi"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(PatternInductionModelTest, EqualLengthGarbageTriggersReplaceDetector) {
  // Documented behaviour: equal-length targets admit a per-character map, so
  // the model treats it as a (degenerate) replacement pattern.
  PatternInductionOptions opts;
  opts.fallback_single_example = false;
  opts.replace_noise = 0.0;
  PatternInductionModel model(opts);
  auto r = model.Transform(
      MakePrompt({{"abc", "xyz"}, {"def", "qqq"}}, "ad"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "xq");  // a->x, d->q from the learned map
}

// Output golden over WT-sim prompts: six 2-example contexts (the paper's
// k=2), a 3-example context and a 1-example context per table. Noisy rows
// send 76 of the 248 prompts to the single-example fallback. Any change to
// what the model emits moves the digest.
TEST(PatternInductionModelTest, WebTableOutputsMatchGolden) {
  Rng rng(7);
  const Dataset wt = MakeWebTables(RealWorldOptions{}, &rng);
  ASSERT_EQ(wt.tables.size(), 31u);
  PatternInductionModel model;
  std::string outputs;
  for (const auto& table : wt.tables) {
    ASSERT_GE(table.num_rows(), 18u);
    auto row = [&](size_t r) {
      return ExamplePair{table.source[r], table.target[r]};
    };
    std::vector<Prompt> batch;
    for (size_t i = 0; i < 6; ++i) {
      batch.push_back(
          MakePrompt({row(2 * i), row(2 * i + 1)}, table.source[12 + i]));
    }
    batch.push_back(MakePrompt({row(0), row(1), row(2)}, table.source[12]));
    batch.push_back(MakePrompt({row(3)}, table.source[13]));
    for (const auto& prompt : batch) {
      auto r = model.Transform(prompt);
      ASSERT_TRUE(r.ok());
      outputs += r.value();
      outputs += '\n';
    }
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                Rng::HashString(outputs));
  EXPECT_EQ(std::string(digest), "4bd3e949b64f993f");
}

// FallbackMemo against the uncached search: the same output and a
// bit-identical score, or nullopt from both.
struct FallbackCall {
  ExamplePair example;
  std::string source;
};

void ExpectMemoMatches(FallbackMemo* memo, const FallbackCall& call,
                       const induction::InductionConfig& cfg,
                       const std::string& what) {
  const induction::TokenCache source(call.source, cfg.separators);
  auto got = memo->FirstProgramOutput(call.example, source);
  auto want = induction::FirstProgramOutput(call.example, source, cfg);
  const std::string on = what + ": \"" + call.example.source + "\" -> \"" +
                         call.example.target + "\" on \"" + call.source +
                         "\"";
  ASSERT_EQ(got.has_value(), want.has_value()) << on;
  if (!want) return;
  EXPECT_EQ(got->output, want->output) << on;
  EXPECT_EQ(got->score, want->score) << on;
}

uint64_t MemoCounter(const char* name) {
  return obs::GlobalMetrics().GetCounter(name)->Value();
}

// Per WT-sim table: its first six rows as context examples, each applied to
// two later rows, to the first character of one and to the empty string.
// Clamped copies yield "" on the short sources.
std::vector<FallbackCall> WebTableFallbackCalls() {
  Rng rng(7);
  const Dataset wt = MakeWebTables(RealWorldOptions{}, &rng);
  std::vector<FallbackCall> calls;
  for (const auto& table : wt.tables) {
    for (size_t r = 0; r < 6; ++r) {
      const ExamplePair example{table.source[r], table.target[r]};
      for (const std::string& source :
           {table.source[6 + r], table.source[12 + r],
            table.source[6 + r].substr(0, 1), std::string()}) {
        calls.push_back({example, source});
      }
    }
  }
  return calls;
}

TEST(FallbackMemoTest, WebTablesMatchFirstProgramOutput) {
  const auto calls = WebTableFallbackCalls();
  ASSERT_EQ(calls.size(), 31u * 6 * 4);
  const induction::InductionConfig cfg;
  FallbackMemo memo(cfg);
  const uint64_t hits = MemoCounter("models.induction.memo_hits");
  const uint64_t misses = MemoCounter("models.induction.memo_misses");
  for (const auto& call : calls) ExpectMemoMatches(&memo, call, cfg, "WT");
  // One miss per distinct example, then hits for its other sources.
  EXPECT_EQ(MemoCounter("models.induction.memo_misses") - misses, 31u * 6);
  EXPECT_EQ(MemoCounter("models.induction.memo_hits") - hits, 31u * 6 * 3);
}

TEST(FallbackMemoTest, AllCachedProgramsEmptyRunsTheSearch) {
  // On a 1-character or empty source the best programs are clamped copies
  // that yield "", so the memo's prefix holds no answer and the uncached
  // search runs: it finds a program further down the list for the first two
  // calls and none for the third.
  const induction::InductionConfig cfg;
  const std::vector<FallbackCall> calls = {
      {{"$5,278.99", "5"}, "$"},
      {{"abc", "bc"}, ""},
      {{"Justin Trudeau", "trudeau"}, ""}};
  for (const auto& call : calls) {
    const auto list = induction::SynthesizePrograms(call.example, cfg);
    ASSERT_GT(list.size(), FallbackMemo::kPrograms) << call.example.source;
    for (size_t i = 0; i < FallbackMemo::kPrograms; ++i) {
      ASSERT_EQ(list[i].Apply(call.source, cfg.separators).value(), "")
          << call.example.source << " program " << i;
    }
  }
  FallbackMemo memo(cfg);
  for (int round = 0; round < 2; ++round) {  // a miss, then a hit
    for (const auto& call : calls) {
      ExpectMemoMatches(&memo, call, cfg, "clamped");
      const induction::TokenCache source(call.source, cfg.separators);
      EXPECT_EQ(memo.FirstProgramOutput(call.example, source).has_value(),
                &call != &calls.back());
    }
  }
}

TEST(FallbackMemoTest, MaxProgramsAtOrBelowPrefix) {
  const auto calls = WebTableFallbackCalls();
  for (int max_programs : {1, 3, 4}) {
    induction::InductionConfig cfg;
    cfg.max_programs = max_programs;
    FallbackMemo memo(cfg);
    const std::string what = "max_programs " + std::to_string(max_programs);
    for (size_t i = 0; i < calls.size(); i += 5) {
      ExpectMemoMatches(&memo, calls[i], cfg, what);
    }
    // The first program that applies lies beyond the cap: nullopt.
    ExpectMemoMatches(&memo, {{"abc", "bc"}, ""}, cfg, what);
  }
}

TEST(FallbackMemoTest, EmptyTarget) {
  const induction::InductionConfig cfg;
  FallbackMemo memo(cfg);
  for (int round = 0; round < 2; ++round) {
    for (const char* source : {"xyz", "x", ""}) {
      ExpectMemoMatches(&memo, {{"abc", ""}, source}, cfg, "empty target");
      const induction::TokenCache cache(source, cfg.separators);
      EXPECT_FALSE(memo.FirstProgramOutput({"abc", ""}, cache).has_value());
    }
  }
}

TEST(FallbackMemoTest, IndependentOfCallHistory) {
  // The same calls forward, in reverse on the now warm memo, and forward
  // again after more distinct examples than the capacity have churned
  // through it: every pass gives the uncached outputs.
  const auto calls = WebTableFallbackCalls();
  const induction::InductionConfig cfg;
  std::vector<FallbackCall> subset;
  for (size_t i = 0; i < calls.size(); i += 7) subset.push_back(calls[i]);
  FallbackMemo memo(cfg);
  for (const auto& call : subset) ExpectMemoMatches(&memo, call, cfg, "fwd");
  for (auto it = subset.rbegin(); it != subset.rend(); ++it) {
    ExpectMemoMatches(&memo, *it, cfg, "reverse");
  }
  const uint64_t evictions = MemoCounter("models.induction.memo_evictions");
  for (size_t i = 0; i < FallbackMemo::kCapacity + 20; ++i) {
    const std::string id = std::to_string(i);
    const induction::TokenCache source("q" + id, cfg.separators);
    memo.FirstProgramOutput({"ab " + id, id + "-ab"}, source);
  }
  EXPECT_GE(MemoCounter("models.induction.memo_evictions") - evictions, 20u);
  for (const auto& call : subset) ExpectMemoMatches(&memo, call, cfg, "churn");
}

// Four threads share one model (and so one fallback memo) over overlapping
// WT-sim prompts; each must emit exactly what a single-threaded run emits.
TEST(PatternInductionModelThreadingTest, ConcurrentTransformsMatchSerial) {
  Rng rng(7);
  const Dataset wt = MakeWebTables(RealWorldOptions{}, &rng);
  std::vector<Prompt> prompts;
  for (size_t t = 0; t < wt.tables.size(); t += 3) {
    const TablePair& table = wt.tables[t];
    auto row = [&](size_t r) {
      return ExamplePair{table.source[r], table.target[r]};
    };
    for (size_t i = 0; i < 6; ++i) {
      prompts.push_back(
          MakePrompt({row(i % 4), row((i + 1) % 4)}, table.source[12 + i]));
    }
  }
  std::vector<std::string> serial;
  {
    PatternInductionModel model;
    for (const auto& prompt : prompts) {
      auto r = model.Transform(prompt);
      ASSERT_TRUE(r.ok());
      serial.push_back(r.value());
    }
  }
  PatternInductionModel shared;
  const uint64_t hits = MemoCounter("models.induction.memo_hits");
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> outputs(
      kThreads, std::vector<std::string>(prompts.size()));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Each thread starts at a different prompt, so they race on entries.
      for (size_t k = 0; k < prompts.size(); ++k) {
        const size_t i = (k + w * prompts.size() / kThreads) % prompts.size();
        auto r = shared.Transform(prompts[i]);
        outputs[w][i] = r.ok() ? r.value() : "<error>";
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(MemoCounter("models.induction.memo_hits"), hits);
  for (size_t w = 0; w < kThreads; ++w) {
    EXPECT_EQ(outputs[w], serial) << "thread " << w;
  }
}

TEST(KnowledgeLMTest, NaturalnessHighOnNames) {
  Prompt p = MakePrompt({{"Justin Trudeau", "jtrudeau"}}, "Paul Martin");
  EXPECT_GT(KnowledgeLM::Naturalness(p, " .-_/"), 0.8);
}

TEST(KnowledgeLMTest, NaturalnessLowOnRandomBytes) {
  Prompt p = MakePrompt({{"q7Zx#kPl2vW", "7Zx#k"}}, "m3z@tYu8Ab");
  EXPECT_LT(KnowledgeLM::Naturalness(p, " .-_/#@"), 0.5);
}

TEST(KnowledgeLMTest, AnswersFromKnowledgeBase) {
  KnowledgeLMOptions opts;
  opts.kb = KnowledgeBase::Builtin();
  KnowledgeLM model(opts);
  auto r = model.Transform(MakePrompt(
      {{"France", "Paris"}, {"Japan", "Tokyo"}}, "Canada"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "Ottawa");
}

TEST(KnowledgeLMTest, NoReverseGeneralization) {
  KnowledgeLMOptions opts;
  opts.generation_noise = 0.0;
  KnowledgeLM model(opts);
  auto r = model.Transform(
      MakePrompt({{"Hello", "olleH"}, {"World", "dlroW"}}, "abcdef"));
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value(), "fedcba");  // GPT-3 profile: cannot reverse
}

TEST(KnowledgeLMTest, StrongOnNaturalContent) {
  KnowledgeLMOptions opts;
  opts.generation_noise = 0.0;
  KnowledgeLM model(opts);
  auto r = model.Transform(MakePrompt(
      {{"John Smith", "Smith, John"}, {"Alice Walker", "Walker, Alice"}},
      "Maria Garcia"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "Garcia, Maria");
}

TEST(KnowledgeLMTest, OneExampleLessReliableThanTwo) {
  KnowledgeLMOptions opts;
  opts.generation_noise = 0.0;
  KnowledgeLM model(opts);
  // Score both settings over many inputs; 2 examples must win.
  std::vector<std::pair<std::string, std::string>> rows = {
      {"Maria Garcia", "Garcia"}, {"David Miller", "Miller"},
      {"Sarah Davis", "Davis"},   {"Emma Wilson", "Wilson"},
      {"James Moore", "Moore"},   {"Olivia Taylor", "Taylor"},
      {"Henry White", "White"},   {"Grace Harris", "Harris"}};
  int correct1 = 0, correct2 = 0;
  for (const auto& [src, tgt] : rows) {
    auto r1 = model.Transform(
        MakePrompt({{"John Smith", "Smith"}}, src));
    if (r1.ok() && r1.value() == tgt) ++correct1;
    auto r2 = model.Transform(MakePrompt(
        {{"John Smith", "Smith"}, {"Alice Walker", "Walker"}}, src));
    if (r2.ok() && r2.value() == tgt) ++correct2;
  }
  EXPECT_GE(correct2, correct1);
  EXPECT_EQ(correct2, static_cast<int>(rows.size()));
}

TEST(KnowledgeLMTest, EchoesInsteadOfAbstaining) {
  KnowledgeLMOptions opts;
  opts.echo_prob = 1.0;
  opts.generation_noise = 0.0;
  opts.echo_noise = 0.0;
  KnowledgeLM model(opts);
  // Unlearnable: target unrelated to source.
  auto r = model.Transform(
      MakePrompt({{"abc", "###"}, {"def", "%%%"}}, "ghi"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "ghi");
}

TEST(KnowledgeLMTest, DeterministicPerPrompt) {
  KnowledgeLM model;
  Prompt p = MakePrompt({{"q7x2vw", "7x"}, {"m3z8ab", "3z"}}, "h5d9rt");
  auto a = model.Transform(p);
  auto b = model.Transform(p);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(CorruptCharsTest, ZeroRateIsIdentity) {
  Rng rng(1);
  EXPECT_EQ(CorruptChars("hello world", 0.0, &rng), "hello world");
}

TEST(CorruptCharsTest, FullRateChangesMostCharacters) {
  Rng rng(2);
  std::string s(200, 'a');
  std::string out = CorruptChars(s, 1.0, &rng);
  int same = 0;
  for (size_t i = 0; i < std::min(out.size(), s.size()); ++i) {
    if (out[i] == 'a') ++same;
  }
  EXPECT_LT(same, 40);  // only accidental re-draws of 'a'
}

TEST(NeuralModelTest, ProducesSomeOutputUntrained) {
  Rng rng(4);
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 128;
  auto transformer = std::make_shared<nn::Transformer>(cfg, &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 128;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 8;
  NeuralSeq2SeqModel model(transformer, Serializer(sopts), nopts);
  auto r = model.Transform(MakePrompt({{"ab", "b"}}, "cd"));
  ASSERT_TRUE(r.ok());  // untrained output is arbitrary but must not error
  EXPECT_LE(r.value().size(), 8u);
}

TEST(NeuralModelTest, RejectsOverlongPrompt) {
  Rng rng(5);
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 16;
  auto transformer = std::make_shared<nn::Transformer>(cfg, &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 512;  // serializer permits more than the model
  NeuralSeq2SeqModel model(transformer, Serializer(sopts));
  auto r = model.Transform(MakePrompt(
      {{"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "b"}}, "cc"));
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace dtt
