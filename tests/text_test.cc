#include <gtest/gtest.h>

#include "text/decomposer.h"
#include "text/serializer.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "transform/sampler.h"

namespace dtt {
namespace {

TEST(VocabTest, Layout) {
  EXPECT_EQ(Vocab::kPad, 0);
  EXPECT_EQ(Vocab::kSize, 261);
  EXPECT_EQ(Vocab::ByteToken(0), Vocab::kByteOffset);
  EXPECT_EQ(Vocab::ByteToken(255), Vocab::kSize - 1);
}

TEST(VocabTest, ByteRoundTrip) {
  for (int b = 0; b < 256; ++b) {
    int id = Vocab::ByteToken(static_cast<uint8_t>(b));
    EXPECT_TRUE(Vocab::IsByte(id));
    EXPECT_EQ(Vocab::TokenByte(id), b);
  }
  EXPECT_FALSE(Vocab::IsByte(Vocab::kSos));
  EXPECT_FALSE(Vocab::IsByte(Vocab::kSize));
}

TEST(TokenizerTest, EncodeDecodeRoundTrip) {
  ByteTokenizer tok;
  std::string text = "Hello, DTT! \xC3\xA9";  // includes multi-byte UTF-8
  auto ids = tok.Encode(text);
  EXPECT_EQ(ids.size(), text.size());
  EXPECT_EQ(tok.Decode(ids), text);
}

TEST(TokenizerTest, SosEosWrapping) {
  ByteTokenizer tok;
  auto ids = tok.Encode("ab", /*add_sos_eos=*/true);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids.front(), Vocab::kSos);
  EXPECT_EQ(ids.back(), Vocab::kEos);
  EXPECT_EQ(tok.Decode(ids), "ab");  // specials skipped

  const std::vector<int> empty = tok.Encode("", /*add_sos_eos=*/true);
  EXPECT_EQ(empty, (std::vector<int>{Vocab::kSos, Vocab::kEos}));
  EXPECT_TRUE(tok.Encode("").empty());

  // Bytes >= 0x80 map through unsigned char, never a negative id.
  const std::vector<int> high = tok.Encode("\xFFz", /*add_sos_eos=*/true);
  EXPECT_EQ(high, (std::vector<int>{Vocab::kSos, Vocab::ByteToken(0xFF),
                                    Vocab::ByteToken('z'), Vocab::kEos}));
  EXPECT_EQ(tok.Decode(high), "\xFFz");
}

TEST(TokenizerTest, DecodeStopsAtEos) {
  ByteTokenizer tok;
  std::vector<int> ids = {Vocab::ByteToken('x'), Vocab::kEos,
                          Vocab::ByteToken('y')};
  EXPECT_EQ(tok.Decode(ids), "x");
}

class TokenizerRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(TokenizerRoundTripTest, RandomStrings) {
  ByteTokenizer tok;
  Rng rng(static_cast<uint64_t>(GetParam()));
  SourceTextOptions opts;
  for (int i = 0; i < 30; ++i) {
    std::string s = RandomSourceText(opts, &rng);
    EXPECT_EQ(tok.Decode(tok.Encode(s)), s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerRoundTripTest, ::testing::Range(0, 5));

TEST(SerializerTest, RenderMatchesPaperFormat) {
  Serializer s;
  Prompt p;
  p.examples = {{"Justin Trudeau", "jtrudeau"}, {"Paul Martin", "pmartin"}};
  p.source = "Jean Chretien";
  EXPECT_EQ(s.RenderPrompt(p),
            "<sos>Justin Trudeau<tr>jtrudeau<eoe>Paul Martin<tr>pmartin<eoe>"
            "Jean Chretien<tr><eos>");
}

TEST(SerializerTest, EncodeStructure) {
  Serializer s;
  Prompt p;
  p.examples = {{"ab", "c"}};
  p.source = "xy";
  auto ids = s.EncodePrompt(p);
  // <sos> a b <tr> c <eoe> x y <tr> <eos>
  std::vector<int> expected = {
      Vocab::kSos,           Vocab::ByteToken('a'), Vocab::ByteToken('b'),
      Vocab::kTr,            Vocab::ByteToken('c'), Vocab::kEoe,
      Vocab::ByteToken('x'), Vocab::ByteToken('y'), Vocab::kTr,
      Vocab::kEos};
  EXPECT_EQ(ids, expected);
}

TEST(SerializerTest, LabelEncoding) {
  Serializer s;
  auto ids = s.EncodeLabel("ok");
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids.front(), Vocab::kSos);
  EXPECT_EQ(ids.back(), Vocab::kEos);
}

TEST(SerializerTest, RowBudgetFormula) {
  SerializerOptions opts;
  opts.max_tokens = 512;
  Serializer s(opts);
  // floor((L - specials) / (2k+1)), §4.1 with the 2k+3 specials reserved.
  EXPECT_EQ(s.RowBudget(2), (512 - 7) / 5);
  EXPECT_EQ(s.RowBudget(1), (512 - 5) / 3);
  EXPECT_EQ(s.RowBudget(5), (512 - 13) / 11);
}

// Two examples under a 22-token budget: each row keeps its first
// (22 - 7) / 5 = 3 bytes. Longer rows lose their tail, a row of exactly 3
// bytes and a shorter one stay whole.
TEST(SerializerTest, TruncatedPromptFitsMaxTokens) {
  SerializerOptions opts;
  opts.max_tokens = 22;
  Serializer s(opts);
  ASSERT_EQ(s.RowBudget(2), 3);
  Prompt p;
  p.examples = {{"abcdefghij", "0123456789"}, {"xyz", "78"}};
  p.source = "klmnopqrst";

  std::vector<int> want = {Vocab::kSos};
  const auto bytes = [&want](const std::string& row) {
    for (unsigned char b : row) want.push_back(Vocab::ByteToken(b));
  };
  bytes("abc");
  want.push_back(Vocab::kTr);
  bytes("012");
  want.push_back(Vocab::kEoe);
  bytes("xyz");
  want.push_back(Vocab::kTr);
  bytes("78");
  want.push_back(Vocab::kEoe);
  bytes("klm");
  want.push_back(Vocab::kTr);
  want.push_back(Vocab::kEos);
  const std::vector<int> ids = s.EncodePrompt(p);
  EXPECT_EQ(ids, want);
  EXPECT_LE(ids.size(), 22u);
  EXPECT_EQ(s.RenderPrompt(p),
            "<sos>abc<tr>012<eoe>xyz<tr>78<eoe>klm<tr><eos>");
}

TEST(SerializerTest, NoBudgetEnforcementWhenDisabled) {
  SerializerOptions opts;
  opts.max_tokens = 10;
  opts.enforce_row_budget = false;
  Serializer s(opts);
  Prompt p;
  p.examples = {{"aaaaaaaaaaaa", "b"}};
  p.source = "c";
  EXPECT_GT(s.EncodePrompt(p).size(), 10u);
}

TEST(DecomposerTest, EnumeratesAllSubsetsWhenFew) {
  DecomposerOptions opts;
  opts.context_size = 2;
  opts.num_trials = 5;
  Decomposer d(opts);
  std::vector<ExamplePair> ex = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  Rng rng(1);
  auto contexts = d.MakeContexts(ex, &rng);
  EXPECT_EQ(contexts.size(), 3u);  // C(3,2) = 3 <= 5 trials
  for (const auto& ctx : contexts) EXPECT_EQ(ctx.size(), 2u);
}

TEST(DecomposerTest, DrawsDistinctRandomSubsetsWhenMany) {
  DecomposerOptions opts;
  opts.context_size = 2;
  opts.num_trials = 5;
  Decomposer d(opts);
  std::vector<ExamplePair> ex;
  for (int i = 0; i < 20; ++i) {
    ex.push_back({"s" + std::to_string(i), "t" + std::to_string(i)});
  }
  Rng rng(2);
  auto contexts = d.MakeContexts(ex, &rng);
  EXPECT_EQ(contexts.size(), 5u);
  std::set<std::string> keys;
  for (const auto& ctx : contexts) {
    std::string key;
    for (const auto& e : ctx) key += e.source + "|";
    keys.insert(key);
  }
  EXPECT_EQ(keys.size(), 5u);  // all distinct
}

TEST(DecomposerTest, ContextSizeClampedToAvailableExamples) {
  DecomposerOptions opts;
  opts.context_size = 4;
  opts.num_trials = 3;
  Decomposer d(opts);
  std::vector<ExamplePair> ex = {{"a", "1"}, {"b", "2"}};
  Rng rng(3);
  auto contexts = d.MakeContexts(ex, &rng);
  ASSERT_EQ(contexts.size(), 1u);  // C(2,2) = 1
  EXPECT_EQ(contexts[0].size(), 2u);
}

TEST(DecomposerTest, EmptyExamplesYieldNoContexts) {
  Decomposer d;
  Rng rng(4);
  EXPECT_TRUE(d.MakeContexts({}, &rng).empty());
}

TEST(DecomposerTest, MakePromptsAttachesSource) {
  Decomposer d;
  std::vector<ExamplePair> ex = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  Rng rng(5);
  auto prompts = d.MakePrompts("input", ex, &rng);
  ASSERT_FALSE(prompts.empty());
  for (const auto& p : prompts) EXPECT_EQ(p.source, "input");
}

}  // namespace
}  // namespace dtt
