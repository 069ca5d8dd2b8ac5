// DecodeSession pinned to the GenerateBatch and autograd GreedyDecode
// goldens: the step-resumable slotted engine must reproduce them
// bit-for-bit under every admission schedule — single slot == greedy, a
// filled session == the fixed batch, interleaved mid-decode installs == the
// same sequences in any batch permutation — and keep that identity across
// mid-decode eviction and KV-row reuse.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/decode_session.h"
#include "nn/transformer.h"
#include "testing/reference_decode.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace dtt {
namespace {

nn::TransformerConfig TinyConfig() {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 96;
  return cfg;
}

std::vector<int> RandomIds(int len, Rng* rng) {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    ids.push_back(
        Vocab::ByteToken(static_cast<uint8_t>(rng->NextBounded(256))));
  }
  return ids;
}

/// Steps until every installed sequence in `handles` is done.
void RunToDone(nn::DecodeSession* session, const std::vector<int>& handles) {
  for (int guard = 0; guard < 1024; ++guard) {
    bool all = true;
    for (int h : handles) {
      if (!session->done(h)) all = false;
    }
    if (all) return;
    session->Step();
  }
  FAIL() << "decode did not finish within the step guard";
}

TEST(DecodeSessionTest, SingleSlotMatchesGreedyDecode) {
  Rng rng(3101);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3102);
  const std::vector<int> input = RandomIds(9, &data_rng);
  auto session = model.NewDecodeSession({4, 24});
  const int handle = session->Install(*session->Encode(input));
  RunToDone(session.get(), {handle});
  EXPECT_EQ(session->output(handle), testing::GreedyDecode(model, input, 24));
}

TEST(DecodeSessionTest, GroupAdmitMatchesGenerateBatch) {
  Rng rng(3111);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3112);
  std::vector<std::vector<int>> inputs;
  for (int len : {3, 11, 7, 1}) inputs.push_back(RandomIds(len, &data_rng));
  auto session = model.NewDecodeSession({4, 20});
  std::vector<int> handles;
  for (const auto& ids : inputs) {
    handles.push_back(session->Install(*session->Encode(ids)));
  }
  RunToDone(session.get(), handles);
  std::vector<std::vector<int>> golden = model.GenerateBatch(inputs, 20);
  for (size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(session->output(handles[i]), golden[i]) << "sequence " << i;
  }
}

TEST(DecodeSessionTest, InterleavedAdmitsMatchPermutedBatch) {
  Rng rng(3121);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3122);
  const std::vector<int> a = RandomIds(8, &data_rng);
  const std::vector<int> b = RandomIds(4, &data_rng);
  const std::vector<int> c = RandomIds(12, &data_rng);
  auto session = model.NewDecodeSession({4, 24});
  const int ha = session->Install(*session->Encode(a));
  session->Step();
  session->Step();
  // b joins mid-decode, 2 steps behind; c joins later still.
  const int hb = session->Install(*session->Encode(b));
  session->Step();
  const int hc = session->Install(*session->Encode(c));
  RunToDone(session.get(), {ha, hb, hc});
  // Whatever the admission schedule, each sequence's output equals its
  // GenerateBatch result — in any batch permutation.
  std::vector<std::vector<int>> golden = model.GenerateBatch({c, a, b}, 24);
  EXPECT_EQ(session->output(ha), golden[1]);
  EXPECT_EQ(session->output(hb), golden[2]);
  EXPECT_EQ(session->output(hc), golden[0]);
}

TEST(DecodeSessionTest, PerSlotBudgetMatchesBudgetedGreedy) {
  Rng rng(3131);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3132);
  const std::vector<int> lo = RandomIds(6, &data_rng);
  const std::vector<int> hi = RandomIds(6, &data_rng);
  auto session = model.NewDecodeSession({2, 32});
  // A per-slot budget below the cap, and the session default (32).
  const int hlo = session->Install(*session->Encode(lo), 5);
  const int hhi = session->Install(*session->Encode(hi));
  RunToDone(session.get(), {hlo, hhi});
  EXPECT_EQ(session->output(hlo), testing::GreedyDecode(model, lo, 5));
  EXPECT_EQ(session->output(hhi), testing::GreedyDecode(model, hi, 32));
  EXPECT_LE(session->output(hlo).size(), 5u);
}

TEST(DecodeSessionTest, EvictMidDecodeLeavesOthersBitExact) {
  Rng rng(3141);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3142);
  const std::vector<int> a = RandomIds(10, &data_rng);
  const std::vector<int> b = RandomIds(5, &data_rng);
  const std::vector<int> c = RandomIds(7, &data_rng);
  auto session = model.NewDecodeSession({3, 24});
  const std::vector<int> handles = {session->Install(*session->Encode(a)),
                                    session->Install(*session->Encode(b)),
                                    session->Install(*session->Encode(c))};
  session->Step();
  session->Step();
  session->Release(handles[1]);  // abandon b mid-decode
  EXPECT_EQ(session->active_slots(), 2);
  RunToDone(session.get(), {handles[0], handles[2]});
  EXPECT_EQ(session->output(handles[0]), testing::GreedyDecode(model, a, 24));
  EXPECT_EQ(session->output(handles[2]), testing::GreedyDecode(model, c, 24));
}

TEST(DecodeSessionTest, ReleasedRowTakesNewPromptBesideLiveNeighbours) {
  // A model that emits no <eos> on these prompts and whose outputs depend on
  // them, so the neighbours are still live, at other decoder positions, when
  // a row is reused, and a mixed-up row changes some output.
  Rng rng(3158);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3152);
  const std::vector<int> a = RandomIds(9, &data_rng);
  const std::vector<int> b = RandomIds(6, &data_rng);
  const std::vector<int> c = RandomIds(13, &data_rng);
  const std::vector<int> d = RandomIds(11, &data_rng);
  const std::vector<int> e = RandomIds(4, &data_rng);
  auto session = model.NewDecodeSession({3, 24});
  const std::vector<int> handles = {session->Install(*session->Encode(a)),
                                    session->Install(*session->Encode(b)),
                                    session->Install(*session->Encode(c), 6)};
  session->Step();
  session->Step();
  session->Step();
  session->Release(handles[1]);  // evict the middle row mid-decode
  session->Step();  // rows 0 and 2 step with a free row between them
  // The next admission takes that same row while both neighbours are four
  // positions in.
  const int hd = session->Install(*session->Encode(d), 16);
  EXPECT_EQ(hd, handles[1]);
  EXPECT_EQ(session->output(handles[0]).size(), 4u);
  EXPECT_EQ(session->output(handles[2]).size(), 4u);
  EXPECT_TRUE(session->output(hd).empty());
  // c finishes at its budget of 6; its row takes e beside a (position 6)
  // and d (position 2).
  session->Step();
  session->Step();
  ASSERT_TRUE(session->done(handles[2]));
  EXPECT_EQ(session->output(handles[2]), testing::GreedyDecode(model, c, 6));
  session->Release(handles[2]);
  const int he = session->Install(*session->Encode(e), 7);
  EXPECT_EQ(he, handles[2]);
  RunToDone(session.get(), {handles[0], hd, he});
  EXPECT_EQ(session->output(handles[0]), testing::GreedyDecode(model, a, 24));
  EXPECT_EQ(session->output(hd), testing::GreedyDecode(model, d, 16));
  EXPECT_EQ(session->output(he), testing::GreedyDecode(model, e, 7));
}

TEST(DecodeSessionTest, SlotReuseAfterReleaseMatchesFreshDecode) {
  Rng rng(3161);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3162);
  auto session = model.NewDecodeSession({2, 16});
  EXPECT_EQ(session->free_slots(), 2);
  const std::vector<int> a = RandomIds(7, &data_rng);
  const std::vector<int> b = RandomIds(7, &data_rng);
  const std::vector<int> first = {session->Install(*session->Encode(a)),
                                  session->Install(*session->Encode(b))};
  EXPECT_EQ(session->free_slots(), 0);
  RunToDone(session.get(), first);
  EXPECT_EQ(session->output(first[0]), testing::GreedyDecode(model, a, 16));
  session->Release(first[0]);
  session->Release(first[1]);
  EXPECT_EQ(session->free_slots(), 2);
  // The reused slots must behave exactly like a fresh session: no state of
  // the previous residents may leak into the new decodes.
  const std::vector<int> c = RandomIds(9, &data_rng);
  const std::vector<int> d = RandomIds(3, &data_rng);
  const std::vector<int> second = {session->Install(*session->Encode(c)),
                                   session->Install(*session->Encode(d))};
  RunToDone(session.get(), second);
  EXPECT_EQ(session->output(second[0]), testing::GreedyDecode(model, c, 16));
  EXPECT_EQ(session->output(second[1]), testing::GreedyDecode(model, d, 16));
}

/// Byte comparison of two decoded outputs (lengths first, then memcmp).
bool SameBytes(const std::vector<int>& a, const std::vector<int>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), sizeof(int) * a.size()) == 0);
}

// Encode() + Install() — the split the serve layer runs on two threads — is
// byte-identical to GenerateBatch, which encodes its batch in one shared
// pass: shuffled groups, a prompt installed twice in one group, and a group
// of one. Each prompt carries its own budget, and a greedy decode under a
// budget is the prefix of its decode under a larger one, so GenerateBatch
// at the session cap, cut to the budget, is the golden.
TEST(DecodeSessionTest, EncodeThenInstallMatchesGroupAdmit) {
  Rng rng(3181);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3182);
  std::vector<std::vector<int>> inputs;
  for (int len : {5, 17, 1, 9, 30}) inputs.push_back(RandomIds(len, &data_rng));
  inputs.push_back(inputs[1]);  // duplicated prompt
  const std::vector<std::vector<size_t>> orders = {
      {0, 1, 2, 3, 4, 5}, {5, 3, 0, 4, 1, 2}, {2, 1, 5, 3, 0, 4}, {3}};
  for (const std::vector<size_t>& order : orders) {
    auto split = model.NewDecodeSession({6, 20});
    std::vector<std::vector<int>> group;
    std::vector<int> budgets;
    std::vector<int> split_handles;
    for (size_t i : order) {
      const int budget = 4 + static_cast<int>(i) * 3;
      group.push_back(inputs[i]);
      budgets.push_back(budget);
      std::shared_ptr<const nn::EncodedPrompt> encoded =
          split->Encode(inputs[i]);
      ASSERT_EQ(encoded->len, static_cast<int>(inputs[i].size()));
      split_handles.push_back(split->Install(*encoded, budget));
    }
    const std::vector<std::vector<int>> grouped = model.GenerateBatch(group, 20);
    RunToDone(split.get(), split_handles);
    for (size_t g = 0; g < order.size(); ++g) {
      std::vector<int> golden = grouped[g];
      if (golden.size() > static_cast<size_t>(budgets[g])) {
        golden.resize(static_cast<size_t>(budgets[g]));
      }
      EXPECT_TRUE(SameBytes(split->output(split_handles[g]), golden))
          << "prompt " << order[g];
    }
  }
}

// Step() reports every installed sequence exactly once, on the step it
// finishes, and never again — GenerateBatch's loop counts finished rows
// from these reports, so a repeat would end it early and a miss never.
TEST(DecodeSessionTest, StepReportsEachFinishedHandleOnce) {
  Rng rng(3191);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3192);
  auto session = model.NewDecodeSession({3, 12});
  const std::vector<int> budgets = {3, 7, 12};
  std::vector<int> handles;
  for (int budget : budgets) {
    handles.push_back(
        session->Install(*session->Encode(RandomIds(8, &data_rng)), budget));
  }
  std::vector<int> reports(handles.size(), 0);
  size_t finished = 0;
  for (int guard = 0; guard < 64 && finished < handles.size(); ++guard) {
    for (int h : session->Step()) {
      const auto it = std::find(handles.begin(), handles.end(), h);
      ASSERT_NE(it, handles.end()) << "unknown handle " << h;
      ++reports[static_cast<size_t>(it - handles.begin())];
      ++finished;
    }
    // done() holds from the reporting step on, and only from then.
    for (size_t i = 0; i < handles.size(); ++i) {
      EXPECT_EQ(session->done(handles[i]), reports[i] > 0) << "handle " << i;
    }
  }
  EXPECT_EQ(reports, std::vector<int>(handles.size(), 1));
  for (size_t i = 0; i < handles.size(); ++i) {
    EXPECT_LE(session->output(handles[i]).size(),
              static_cast<size_t>(budgets[i]));
  }
  // Every row has finished and none is released: nothing is left to step.
  EXPECT_TRUE(session->Step().empty());
  EXPECT_TRUE(session->Step().empty());
}

TEST(DecodeSessionTest, StepOnEmptySessionReturnsNothing) {
  Rng rng(3171);
  nn::Transformer model(TinyConfig(), &rng);
  auto session = model.NewDecodeSession({2, 8});
  EXPECT_TRUE(session->Step().empty());
}

}  // namespace
}  // namespace dtt
