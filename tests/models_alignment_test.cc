#include "models/alignment.h"

#include <gtest/gtest.h>

#include "data/realworld_datasets.h"
#include "testing/reference_synthesis.h"

namespace dtt {
namespace induction {
namespace {

TEST(PosRefTest, ResolveFromStart) {
  PosRef p{2, false};
  EXPECT_EQ(p.Resolve(5).value(), 2u);
  EXPECT_EQ(PosRef({5, false}).Resolve(5).value(), 5u);
  EXPECT_FALSE(PosRef({6, false}).Resolve(5).has_value());
}

TEST(PosRefTest, ResolveFromEnd) {
  PosRef p{2, true};
  EXPECT_EQ(p.Resolve(5).value(), 3u);
  EXPECT_EQ(PosRef({0, true}).Resolve(5).value(), 5u);
  EXPECT_FALSE(PosRef({6, true}).Resolve(5).has_value());
}

TEST(ApplyCaseTest, AllOps) {
  EXPECT_EQ(ApplyCase(CaseOp::kNone, "AbC"), "AbC");
  EXPECT_EQ(ApplyCase(CaseOp::kLower, "AbC"), "abc");
  EXPECT_EQ(ApplyCase(CaseOp::kUpper, "AbC"), "ABC");
}

TEST(TokenCacheTest, TokensStayValidAcrossNewFamilies) {
  TokenCache cache("a-b c-d e", " -");
  const std::vector<std::string>& dash = cache.Tokens('-');
  // First-time requests for other families must not move `dash`.
  cache.Tokens(' ');
  cache.Tokens(0);
  ASSERT_EQ(dash.size(), 3u);
  EXPECT_EQ(dash[0], "a");
  EXPECT_EQ(dash[1], "b c");
  EXPECT_EQ(dash[2], "d e");
}

TEST(TokenCacheTest, FamiliesDecomposeDifferently) {
  TokenCache cache("a-b c", " -");
  ASSERT_EQ(cache.Tokens(0).size(), 3u);         // all separators
  ASSERT_EQ(cache.Tokens(' ').size(), 2u);       // "a-b", "c"
  EXPECT_EQ(cache.Tokens(' ')[0], "a-b");
  ASSERT_EQ(cache.Tokens('-').size(), 2u);       // "a", "b c"
  EXPECT_EQ(cache.Tokens('-')[1], "b c");
  EXPECT_EQ(cache.present_separators(), " -");
}

TEST(AtomTest, LiteralApply) {
  Atom a;
  a.kind = Atom::Kind::kLiteral;
  a.literal = "::";
  TokenCache cache("whatever", " ");
  EXPECT_EQ(a.Apply(cache).value(), "::");
}

TEST(AtomTest, CopyRangeApply) {
  Atom a;
  a.kind = Atom::Kind::kCopyRange;
  a.begin = {1, false};
  a.end = {4, false};
  TokenCache cache("abcdef", " ");
  EXPECT_EQ(a.Apply(cache).value(), "bcd");
  a.begin = {3, true};  // from end: 6-3 = 3
  a.end = {0, true};    // 6
  EXPECT_EQ(a.Apply(cache).value(), "def");
}

TEST(AtomTest, CopyRangeOutOfRangeClampsToEmpty) {
  // Clamping semantics mirror the transformation DSL: an out-of-range
  // substr yields "" rather than failing the whole program.
  Atom a;
  a.kind = Atom::Kind::kCopyRange;
  a.begin = {10, false};
  a.end = {12, false};
  TokenCache cache("abc", " ");
  ASSERT_TRUE(a.Apply(cache).has_value());
  EXPECT_EQ(a.Apply(cache).value(), "");
}

TEST(AtomTest, CopyRangeClampsTailOnShorterInput) {
  // substr(4, 11) on a 9-char input yields chars [4, 9) like the DSL.
  Atom a;
  a.kind = Atom::Kind::kCopyRange;
  a.begin = {4, false};
  a.end = {11, false};
  TokenCache cache("unkf_afx0", " _");
  EXPECT_EQ(a.Apply(cache).value(), "_afx0");
}

TEST(AtomTest, CopyTokenApply) {
  Atom a;
  a.kind = Atom::Kind::kCopyToken;
  a.token = {1, false};
  TokenCache cache("John Smith", " ");
  EXPECT_EQ(a.Apply(cache).value(), "Smith");
  a.token = {1, true};  // last token
  EXPECT_EQ(a.Apply(cache).value(), "Smith");
  a.case_op = CaseOp::kLower;
  EXPECT_EQ(a.Apply(cache).value(), "smith");
}

TEST(AtomTest, CopyTokenFamilySpecific) {
  Atom a;
  a.kind = Atom::Kind::kCopyToken;
  a.family = '-';
  a.token = {0, false};
  TokenCache cache("ab cd-ef", " -");
  // Family '-' splits only on '-': first token is "ab cd".
  EXPECT_EQ(a.Apply(cache).value(), "ab cd");
}

TEST(AtomTest, CopyTokenSliceApply) {
  Atom a;
  a.kind = Atom::Kind::kCopyTokenSlice;
  a.token = {0, false};
  a.begin = {0, false};
  a.end = {1, false};
  a.case_op = CaseOp::kLower;
  TokenCache cache("John Smith", " ");
  EXPECT_EQ(a.Apply(cache).value(), "j");
}

TEST(AtomTest, CopyTokenMidSlice) {
  Atom a;
  a.kind = Atom::Kind::kCopyTokenSlice;
  a.token = {0, false};
  a.begin = {1, false};
  a.end = {3, false};
  TokenCache cache("abcdef", " ");
  EXPECT_EQ(a.Apply(cache).value(), "bc");
}

TEST(AtomTest, KeysDistinguishDescriptors) {
  Atom a, b;
  a.kind = b.kind = Atom::Kind::kCopyToken;
  a.token = {1, false};
  b.token = {1, true};
  EXPECT_NE(a.Key(), b.Key());
  b.token = {1, false};
  EXPECT_EQ(a.Key(), b.Key());
}

TEST(TokenizeCellTest, SplitsOnConfiguredSeparators) {
  auto tokens = TokenizeCell("a-b c/d", " -/");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[3], "d");
}

InductionConfig DefaultCfg() { return InductionConfig{}; }

TEST(SynthesizeTest, FindsIdentityCopy) {
  auto programs = SynthesizePrograms({"hello", "hello"}, DefaultCfg());
  ASSERT_FALSE(programs.empty());
  auto out = programs[0].Apply("world", DefaultCfg().separators);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "world");  // best program is positional copy, not literal
}

TEST(SynthesizeTest, FindsTokenExtraction) {
  auto programs =
      SynthesizePrograms({"John Smith", "Smith"}, DefaultCfg());
  ASSERT_FALSE(programs.empty());
  auto out = programs[0].Apply("Alice Walker", DefaultCfg().separators);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "Walker");
}

TEST(SynthesizeTest, EmptyTargetYieldsNothing) {
  EXPECT_TRUE(SynthesizePrograms({"abc", ""}, DefaultCfg()).empty());
}

TEST(SynthesizeTest, LiteralOnlyTargetStillExplained) {
  auto programs = SynthesizePrograms({"abc", "zz"}, DefaultCfg());
  ASSERT_FALSE(programs.empty());
  // Pure literal program reproduces the example's target on any input.
  auto out = programs[0].Apply("other", DefaultCfg().separators);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "zz");
}

TEST(SynthesizeCommonTest, GeneralizesUserIdPattern) {
  // The Figure-1 pattern: first-initial.lastname, lower-cased.
  std::vector<ExamplePair> examples = {
      {"Justin Trudeau", "j.trudeau"},
      {"Kim Campbell", "k.campbell"},
  };
  auto programs = SynthesizeCommonPrograms(examples, DefaultCfg());
  ASSERT_FALSE(programs.empty());
  auto out = programs[0].Apply("Paul Martin", DefaultCfg().separators);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "p.martin");
}

TEST(SynthesizeCommonTest, GeneralizesSubstring) {
  std::vector<ExamplePair> examples = {
      {"abcdefgh", "cdef"},
      {"12345678", "3456"},
  };
  auto programs = SynthesizeCommonPrograms(examples, DefaultCfg());
  ASSERT_FALSE(programs.empty());
  auto out = programs[0].Apply("qwertyui", DefaultCfg().separators);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "erty");
}

TEST(SynthesizeCommonTest, GeneralizesTokenSwapWithLiteral) {
  std::vector<ExamplePair> examples = {
      {"John Smith", "Smith, John"},
      {"Alice Walker", "Walker, Alice"},
  };
  auto programs = SynthesizeCommonPrograms(examples, DefaultCfg());
  ASSERT_FALSE(programs.empty());
  auto out = programs[0].Apply("Maria Garcia", DefaultCfg().separators);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "Garcia, Maria");
}

TEST(SynthesizeCommonTest, GeneralizesSplitThenSubstring) {
  // The stacked unit split(' ',1) |> substr(1,4): a mid-token slice.
  std::vector<ExamplePair> examples = {
      {"qq abcdef", "bcd"},
      {"zz tuvwxy", "uvw"},
  };
  auto programs = SynthesizeCommonPrograms(examples, DefaultCfg());
  ASSERT_FALSE(programs.empty());
  auto out = programs[0].Apply("kk mnopqr", DefaultCfg().separators);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "nop");
}

TEST(SynthesizeCommonTest, GeneralizesSingleSeparatorSplit) {
  // split('-', 1) on strings that also contain spaces: only the '-' family
  // decomposition explains both examples.
  std::vector<ExamplePair> examples = {
      {"ab cd-ef gh", "ef gh"},
      {"xy-z w", "z w"},
  };
  auto programs = SynthesizeCommonPrograms(examples, DefaultCfg());
  ASSERT_FALSE(programs.empty());
  auto out = programs[0].Apply("q r-stu v", DefaultCfg().separators);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "stu v");
}

TEST(SynthesizeCommonTest, InconsistentExamplesYieldNoCommonProgram) {
  std::vector<ExamplePair> examples = {
      {"John Smith", "Smith"},
      {"Alice Walker", "zzzzz"},  // noise
  };
  auto programs = SynthesizeCommonPrograms(examples, DefaultCfg());
  // No positional program maps both; literal "Smith" != literal "zzzzz".
  EXPECT_TRUE(programs.empty());
}

TEST(SynthesizeCommonTest, CaseOperationLearned) {
  std::vector<ExamplePair> examples = {
      {"Green Day", "GREEN"},
      {"Pink Floyd", "PINK"},
  };
  auto programs = SynthesizeCommonPrograms(examples, DefaultCfg());
  ASSERT_FALSE(programs.empty());
  auto out = programs[0].Apply("Daft Punk", DefaultCfg().separators);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, "DAFT");
}

TEST(SynthesizeCommonTest, DegradedConfigCannotDoSubstring) {
  InductionConfig cfg;
  cfg.allow_char_range = false;
  cfg.allow_token_slice = false;
  std::vector<ExamplePair> examples = {
      {"abcdefgh", "cdef"},
      {"12345678", "3456"},
  };
  auto programs = SynthesizeCommonPrograms(examples, cfg);
  // Only whole tokens and literals available -> mid-string substring of a
  // single token is inexpressible.
  for (const auto& p : programs) {
    auto out = p.Apply("qwertyui", cfg.separators);
    if (out) {
      EXPECT_NE(*out, "erty");
    }
  }
}

TEST(GlobalPatternTest, Identity) {
  auto p = DetectGlobalPattern({{"abc", "abc"}, {"xy", "xy"}}, true, true);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, GlobalPattern::Kind::kIdentity);
  EXPECT_EQ(p->Apply("zz"), "zz");
}

TEST(GlobalPatternTest, LowerUpper) {
  auto lower = DetectGlobalPattern({{"AbC", "abc"}}, true, true);
  ASSERT_TRUE(lower.has_value());
  EXPECT_EQ(lower->kind, GlobalPattern::Kind::kLower);
  auto upper = DetectGlobalPattern({{"AbC", "ABC"}}, true, true);
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(upper->kind, GlobalPattern::Kind::kUpper);
}

TEST(GlobalPatternTest, ReverseDetected) {
  auto p = DetectGlobalPattern({{"Hello", "olleH"}, {"ab", "ba"}}, true, true);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, GlobalPattern::Kind::kReverse);
  EXPECT_EQ(p->Apply("xyz"), "zyx");
}

TEST(GlobalPatternTest, ReverseDisabled) {
  auto p = DetectGlobalPattern({{"Hello", "olleH"}, {"abc", "cba"}}, true,
                               /*detect_reverse=*/false);
  EXPECT_FALSE(p.has_value());
}

TEST(GlobalPatternTest, CharReplaceDetected) {
  auto p = DetectGlobalPattern(
      {{"2021/03/01", "2021-03-01"}, {"1999/12/31", "1999-12-31"}}, true, true);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, GlobalPattern::Kind::kCharReplace);
  EXPECT_EQ(p->Apply("2000/01/02"), "2000-01-02");
}

TEST(GlobalPatternTest, InconsistentReplaceRejected) {
  auto p = DetectGlobalPattern({{"aa", "ab"}}, true, true);
  // 'a' would need to map to both 'a' and 'b'.
  EXPECT_FALSE(p.has_value());
}

TEST(GlobalPatternTest, ReplaceDisabled) {
  auto p = DetectGlobalPattern({{"a/b", "a-b"}, {"c/d", "c-d"}},
                               /*detect_replace=*/false, true);
  EXPECT_FALSE(p.has_value());
}

TEST(GlobalPatternTest, NoExamplesNoPattern) {
  EXPECT_FALSE(DetectGlobalPattern({}, true, true).has_value());
}

TEST(AtomProgramTest, KeyStableAcrossEquivalentPrograms) {
  auto p1 = SynthesizePrograms({"ab cd", "cd"}, DefaultCfg());
  auto p2 = SynthesizePrograms({"xy zw", "zw"}, DefaultCfg());
  ASSERT_FALSE(p1.empty());
  ASSERT_FALSE(p2.empty());
  // Both best programs should be "copy last token" with identical keys.
  EXPECT_EQ(p1[0].Key(), p2[0].Key());
}

// The arena-beam searches against the copy-based reference kept in
// tests/testing: same programs, same order, bit-identical scores.
void ExpectSamePrograms(const std::vector<AtomProgram>& got,
                        const std::vector<AtomProgram>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].Key(), want[i].Key()) << what << " program " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " program " << i;
  }
}

void ExpectParity(const std::vector<ExamplePair>& examples,
                  const InductionConfig& cfg, const std::string& what) {
  for (size_t i = 0; i < examples.size(); ++i) {
    ExpectSamePrograms(SynthesizePrograms(examples[i], cfg),
                       testing::ReferenceSynthesizePrograms(examples[i], cfg),
                       what + " single " + std::to_string(i));
  }
  for (size_t n = 2; n <= examples.size(); ++n) {
    std::vector<ExamplePair> context(examples.begin(), examples.begin() + n);
    ExpectSamePrograms(
        SynthesizeCommonPrograms(context, cfg),
        testing::ReferenceSynthesizeCommonPrograms(context, cfg),
        what + " common " + std::to_string(n));
  }
}

Dataset WebTables() {
  Rng rng(7);
  return MakeWebTables(RealWorldOptions{}, &rng);
}

std::vector<std::vector<ExamplePair>> WebTableContexts() {
  const Dataset wt = WebTables();
  std::vector<std::vector<ExamplePair>> contexts;
  for (const auto& table : wt.tables) {
    std::vector<ExamplePair> context;
    for (size_t r = 0; r < table.num_rows() && context.size() < 3; ++r) {
      context.push_back({table.source[r], table.target[r]});
    }
    contexts.push_back(std::move(context));
  }
  return contexts;
}

TEST(SynthesisParityTest, WebTablesMatchReference) {
  auto contexts = WebTableContexts();
  ASSERT_EQ(contexts.size(), 31u);
  for (size_t t = 0; t < contexts.size(); ++t) {
    ExpectParity(contexts[t], DefaultCfg(), "table " + std::to_string(t));
  }
}

TEST(SynthesisParityTest, MaxAtomsBound) {
  InductionConfig cfg;
  cfg.max_atoms = 2;
  ExpectParity({{"John Smith", "Smith, John"},
                {"Alice Walker", "Walker, Alice"},
                {"Maria Garcia", "Garcia, Maria"}},
               cfg, "max_atoms 2");
  auto contexts = WebTableContexts();
  for (size_t t = 0; t < contexts.size(); t += 5) {
    ExpectParity(contexts[t], cfg, "max_atoms 2, table " + std::to_string(t));
  }
}

TEST(SynthesisParityTest, MaxProgramsTruncation) {
  InductionConfig cfg;
  cfg.max_programs = 3;
  ExamplePair ex{"Justin Trudeau", "j.trudeau"};
  ASSERT_GT(SynthesizePrograms(ex, DefaultCfg()).size(), 3u);
  ExpectSamePrograms(SynthesizePrograms(ex, cfg),
                     testing::ReferenceSynthesizePrograms(ex, cfg),
                     "max_programs 3");
  ExpectParity({ex, {"Kim Campbell", "k.campbell"}}, cfg, "max_programs 3");
}

TEST(SynthesisParityTest, DegradedConfig) {
  InductionConfig cfg;
  cfg.allow_char_range = false;
  cfg.allow_token_slice = false;
  cfg.max_literal_len = 2;
  cfg.beam_width = 8;
  auto contexts = WebTableContexts();
  for (size_t t = 0; t < contexts.size(); t += 3) {
    ExpectParity(contexts[t], cfg, "degraded, table " + std::to_string(t));
  }
}

TEST(SynthesisParityTest, EmptyTarget) {
  ExpectParity({{"abc", ""}, {"de", "d"}}, DefaultCfg(), "empty first");
  ExpectParity({{"de", "d"}, {"abc", ""}}, DefaultCfg(), "empty second");
  EXPECT_TRUE(SynthesizeCommonPrograms({{"abc", ""}, {"de", "d"}},
                                       DefaultCfg())
                  .empty());
}

// FirstProgramOutput / FirstCommonProgramOutput against the first program of
// the materialized list whose output on the source is non-empty: the same
// output and a bit-identical score, or nullopt from both.
std::optional<ProgramOutput> FirstInList(const std::vector<AtomProgram>& list,
                                         const TokenCache& source) {
  for (const auto& program : list) {
    auto out = program.Apply(source);
    if (out && !out->empty()) return ProgramOutput{*out, program.score};
  }
  return std::nullopt;
}

void ExpectSameFirst(const std::optional<ProgramOutput>& got,
                     const std::optional<ProgramOutput>& want,
                     const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) return;
  EXPECT_EQ(got->output, want->output) << what;
  EXPECT_EQ(got->score, want->score) << what;
}

void ExpectFirstParity(const std::vector<ExamplePair>& examples,
                       const std::string& source_text,
                       const InductionConfig& cfg, const std::string& what) {
  const TokenCache source(source_text, cfg.separators);
  const std::string on = " on \"" + source_text + "\"";
  for (size_t i = 0; i < examples.size(); ++i) {
    ExpectSameFirst(FirstProgramOutput(examples[i], source, cfg),
                    FirstInList(SynthesizePrograms(examples[i], cfg), source),
                    what + " single " + std::to_string(i) + on);
  }
  for (size_t n = 2; n <= examples.size(); ++n) {
    std::vector<ExamplePair> context(examples.begin(), examples.begin() + n);
    ExpectSameFirst(
        FirstCommonProgramOutput(context, source, cfg),
        FirstInList(SynthesizeCommonPrograms(context, cfg), source),
        what + " common " + std::to_string(n) + on);
  }
}

TEST(FirstProgramOutputTest, WebTablesMatchList) {
  // 3-example contexts; the sources are other rows of the same table, plus
  // their first character and the empty string, on which clamped copies
  // yield "" and the walk has to skip, key and count programs.
  const Dataset wt = WebTables();
  for (size_t t = 0; t < wt.tables.size(); ++t) {
    const TablePair& table = wt.tables[t];
    ASSERT_GE(table.num_rows(), 5u);
    const std::vector<ExamplePair> context = {
        {table.source[0], table.target[0]},
        {table.source[1], table.target[1]},
        {table.source[2], table.target[2]}};
    const std::string what = "table " + std::to_string(t);
    for (size_t r = 3; r < 5; ++r) {
      ExpectFirstParity(context, table.source[r], DefaultCfg(), what);
    }
    ExpectFirstParity(context, table.source[3].substr(0, 1), DefaultCfg(),
                      what);
    ExpectFirstParity(context, "", DefaultCfg(), what);
  }
}

TEST(FirstProgramOutputTest, ThirdExampleRejectsTopPrograms) {
  // "Copy token 1" explains the first two examples but not the third, whose
  // last token is its third.
  const std::vector<ExamplePair> context = {{"John Smith", "Smith"},
                                            {"Alice Walker", "Walker"},
                                            {"Mary Ann Lee", "Lee"}};
  ExpectFirstParity(context, "Maria Garcia", DefaultCfg(), "last token");
  const TokenCache source("Anna Maria Garcia", DefaultCfg().separators);
  auto two = FirstCommonProgramOutput({context[0], context[1]}, source,
                                      DefaultCfg());
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->output, "Maria");
  auto first = FirstCommonProgramOutput(context, source, DefaultCfg());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->output, "Garcia");
}

TEST(FirstProgramOutputTest, EmptyTarget) {
  const TokenCache source("xyz", DefaultCfg().separators);
  EXPECT_FALSE(FirstProgramOutput({"abc", ""}, source, DefaultCfg()));
  EXPECT_FALSE(FirstCommonProgramOutput({{"abc", ""}, {"de", "d"}}, source,
                                        DefaultCfg()));
  EXPECT_FALSE(FirstCommonProgramOutput({{"de", "d"}, {"abc", ""}}, source,
                                        DefaultCfg()));
  EXPECT_FALSE(FirstCommonProgramOutput({}, source, DefaultCfg()));
  ExpectFirstParity({{"abc", ""}, {"de", "d"}}, "xyz", DefaultCfg(), "empty");
}

TEST(FirstProgramOutputTest, OneCharacterSourceSkipsClampedPrograms) {
  const ExamplePair ex{"Justin Trudeau", "trudeau"};
  const TokenCache source("x", DefaultCfg().separators);
  // The best program copies token 1, which "x" does not have.
  const auto list = SynthesizePrograms(ex, DefaultCfg());
  ASSERT_FALSE(list.empty());
  ASSERT_EQ(list[0].Apply(source).value(), "");
  ExpectFirstParity({ex, {"Kim Campbell", "campbell"}}, "x", DefaultCfg(),
                    "one character");
  auto first = FirstProgramOutput(ex, source, DefaultCfg());
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->output.empty());
}

TEST(FirstProgramOutputTest, FirstApplicableBeyondCapIsNullopt) {
  // On an empty source every copy yields ""; only programs with a literal
  // apply, and the three best programs are pure copies.
  const ExamplePair ex{"abc", "bc"};
  const TokenCache source("", DefaultCfg().separators);
  ASSERT_TRUE(FirstProgramOutput(ex, source, DefaultCfg()).has_value());
  InductionConfig cfg;
  cfg.max_programs = 3;
  ASSERT_EQ(SynthesizePrograms(ex, cfg).size(), 3u);
  EXPECT_FALSE(FirstInList(SynthesizePrograms(ex, cfg), source).has_value());
  EXPECT_FALSE(FirstProgramOutput(ex, source, cfg).has_value());
  const std::vector<ExamplePair> context = {ex, {"xbc", "bc"}};
  ASSERT_TRUE(
      FirstCommonProgramOutput(context, source, DefaultCfg()).has_value());
  EXPECT_FALSE(FirstCommonProgramOutput(context, source, cfg).has_value());
  ExpectFirstParity(context, "", cfg, "max_programs 3");
}

}  // namespace
}  // namespace induction
}  // namespace dtt
