// GEMM contracts (nn/gemm.h):
//  - GemmAcc / GemmAtAcc / GemmBtAcc are bit-identical to naive
//    ascending-p loops that skip no term, on odd/tail dims with a nonzero
//    initial C — the accumulation order every matrix product in the system
//    (autograd MatMul, the decode engines' AffineRows) relies on — and stay
//    so on the bits when zero A terms meet -0.0f in C or inf/NaN in B;
//  - the GenerateBatch/BeamDecodeBatch outputs pinned byte-for-byte to the
//    pre-refactor engine outputs.
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "nn/gemm.h"
#include "nn/transformer.h"
#include "testing/matchers.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace dtt {
namespace nn {
namespace {

using ::dtt::testing::TensorEq;

Tensor RandomTensor(const std::vector<int>& shape, Rng* rng) {
  Tensor t(shape);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] =
        static_cast<float>(rng->NextInt(-1000, 1000)) / 1000.0f;
  }
  return t;
}

// Plants exact zeros in a row-major [rows, cols] operand: every fifth
// element, plus the whole last row when there is more than one, so zero A
// terms are on every kernel's path.
void SprinkleZeros(Tensor* t) {
  for (size_t i = 0; i < t->size(); i += 5) t->data()[i] = 0.0f;
  const int rows = t->rows();
  const int cols = t->cols();
  if (rows < 2) return;
  for (int j = 0; j < cols; ++j) t->at(rows - 1, j) = 0.0f;
}

// The reference loops: per output element, terms in ascending p with no
// zero skip. GemmAcc/GemmAtAcc resume from the element's existing value;
// GemmBtAcc forms a fresh dot product and adds it once.
void NaiveGemmAcc(const Tensor& a, const Tensor& b, Tensor* c) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int p = 0; p < k; ++p) c->at(i, j) += a.at(i, p) * b.at(p, j);
    }
  }
}

void NaiveGemmAtAcc(const Tensor& at, const Tensor& b, Tensor* c) {
  const int k = at.rows(), m = at.cols(), n = b.cols();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int p = 0; p < k; ++p) c->at(i, j) += at.at(p, i) * b.at(p, j);
    }
  }
}

void NaiveGemmBtAcc(const Tensor& a, const Tensor& bt, Tensor* c) {
  const int m = a.rows(), k = a.cols(), n = bt.rows();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float dot = 0.0f;
      for (int p = 0; p < k; ++p) dot += a.at(i, p) * bt.at(j, p);
      c->at(i, j) += dot;
    }
  }
}

// 4, 8 and 9 put m and n on GemmAcc's 4-row tile and its 8-lane width and
// one past them; 12 (the head width), 24, 28 and 31 give n an 8-lane tile
// next to a 4-lane one and a scalar tail after a 16-lane tile. So each
// build pins every column path it has (16-, 8- and 4-lane vectors under
// AVX2, 8- and 4-lane without, and the scalar tail) against the naive loop.
constexpr int kDims[] = {1, 3, 4, 7, 8, 9, 12, 17, 24, 28, 31, 64, 65};

TEST(GemmContract, BitIdenticalToNaiveAscendingLoopsWithoutZeroSkip) {
  Rng rng(17);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        Tensor a = RandomTensor({m, k}, &rng);
        Tensor at = RandomTensor({k, m}, &rng);
        Tensor b = RandomTensor({k, n}, &rng);
        Tensor bt = RandomTensor({n, k}, &rng);
        // Nonzero initial C exercises the accumulate-into contract.
        const Tensor c0 = RandomTensor({m, n}, &rng);
        SprinkleZeros(&a);
        SprinkleZeros(&at);

        Tensor want = c0, got = c0;
        NaiveGemmAcc(a, b, &want);
        internal::GemmAcc(a.data(), b.data(), got.data(), m, k, n);
        ASSERT_TRUE(TensorEq(got, want))
            << "GemmAcc m=" << m << " k=" << k << " n=" << n;

        want = c0;
        got = c0;
        NaiveGemmAtAcc(at, b, &want);
        internal::GemmAtAcc(at.data(), b.data(), got.data(), k, m, n);
        ASSERT_TRUE(TensorEq(got, want))
            << "GemmAtAcc m=" << m << " k=" << k << " n=" << n;

        want = c0;
        got = c0;
        NaiveGemmBtAcc(a, bt, &want);
        internal::GemmBtAcc(a.data(), bt.data(), got.data(), m, k, n);
        ASSERT_TRUE(TensorEq(got, want))
            << "GemmBtAcc m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// The encoder's products at a serialized DTT prompt (150 rows, dim 48):
// Q/K/V/W_o and the FFN input (n 48 and 96), the FFN output (k 96), and the
// lm_head width (n 261, a vector tail plus one scalar column); and
// AttendSequences' two per-head products at the served 71-token prompt
// (head width 12): a 4-query block's scores over 71 keys and its weights
// times V.
TEST(GemmContract, EncoderShapesBitIdenticalToNaiveLoops) {
  Rng rng(18);
  const int shapes[][3] = {{150, 48, 48}, {150, 48, 96}, {150, 48, 261},
                           {150, 96, 48}, {4, 12, 71},   {4, 71, 12}};
  for (const auto& shape : shapes) {
    const int m = shape[0], k = shape[1], n = shape[2];
    Tensor a = RandomTensor({m, k}, &rng);
    Tensor b = RandomTensor({k, n}, &rng);
    const Tensor c0 = RandomTensor({m, n}, &rng);
    SprinkleZeros(&a);
    Tensor want = c0, got = c0;
    NaiveGemmAcc(a, b, &want);
    internal::GemmAcc(a.data(), b.data(), got.data(), m, k, n);
    EXPECT_TRUE(TensorEq(got, want))
        << "GemmAcc m=" << m << " k=" << k << " n=" << n;
  }
}

// Plants the B values that make a zero A term's product NaN: in every third
// column of B (every third row of a transposed B) one +inf, in the next one
// NaN. One special value per output column keeps at most one NaN source per
// element, so the NaN that comes out does not depend on operand order.
void PlantInfAndNan(Tensor* b, bool b_transposed) {
  const int cols = b_transposed ? b->rows() : b->cols();
  const int depth = b_transposed ? b->cols() : b->rows();
  for (int j = 0; j < cols; ++j) {
    if (j % 3 == 0) continue;
    const float value = j % 3 == 1 ? std::numeric_limits<float>::infinity()
                                   : std::numeric_limits<float>::quiet_NaN();
    const int p = (j * 7) % depth;
    (b_transposed ? b->at(j, p) : b->at(p, j)) = value;
  }
}

bool SameBits(const Tensor& x, const Tensor& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// No term is skipped: 0 * b is added like any other product, so -0.0f in C
// turns into +0.0f, and 0 * inf turns the element into NaN, in the kernels
// exactly as in the naive loops. Compared on the bits, since == would equate
// -0 with +0 and never match a NaN.
TEST(GemmContract, ZeroTermsMeetSignedZerosInfAndNanBitForBit) {
  Rng rng(19);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        Tensor a = RandomTensor({m, k}, &rng);
        Tensor at = RandomTensor({k, m}, &rng);
        Tensor b = RandomTensor({k, n}, &rng);
        Tensor bt = RandomTensor({n, k}, &rng);
        Tensor c0 = RandomTensor({m, n}, &rng);
        SprinkleZeros(&a);
        SprinkleZeros(&at);
        a.data()[a.size() / 2] = -0.0f;
        at.data()[at.size() / 2] = -0.0f;
        for (size_t i = 0; i < c0.size(); i += 3) c0.data()[i] = -0.0f;
        PlantInfAndNan(&b, /*b_transposed=*/false);
        PlantInfAndNan(&bt, /*b_transposed=*/true);

        Tensor want = c0, got = c0;
        NaiveGemmAcc(a, b, &want);
        internal::GemmAcc(a.data(), b.data(), got.data(), m, k, n);
        ASSERT_TRUE(SameBits(got, want))
            << "GemmAcc m=" << m << " k=" << k << " n=" << n;

        want = c0;
        got = c0;
        NaiveGemmAtAcc(at, b, &want);
        internal::GemmAtAcc(at.data(), b.data(), got.data(), k, m, n);
        ASSERT_TRUE(SameBits(got, want))
            << "GemmAtAcc m=" << m << " k=" << k << " n=" << n;

        want = c0;
        got = c0;
        NaiveGemmBtAcc(a, bt, &want);
        internal::GemmBtAcc(a.data(), bt.data(), got.data(), m, k, n);
        ASSERT_TRUE(SameBits(got, want))
            << "GemmBtAcc m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine outputs: pre-refactor goldens
// ---------------------------------------------------------------------------

TransformerConfig GoldenConfig() {
  TransformerConfig cfg;
  cfg.dim = 32;
  cfg.num_heads = 4;
  cfg.ff_hidden = 64;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 64;
  return cfg;
}

std::vector<std::vector<int>> GoldenPrompts() {
  Rng rng(99);
  std::vector<std::vector<int>> prompts(3);
  for (size_t i = 0; i < prompts.size(); ++i) {
    prompts[i].resize(12 + 5 * i);
    for (auto& id : prompts[i]) {
      id = Vocab::ByteToken(static_cast<uint8_t>(rng.NextBounded(256)));
    }
  }
  return prompts;
}

// Captured from the original decode engines (raw GemmAcc calls) for
// Transformer(GoldenConfig(), Rng(7)) on GoldenPrompts(), 10 steps, beam 4.
// The decode engines must keep reproducing these byte-for-byte.
const std::vector<std::vector<int>> kGoldenGenerate = {
    {4, 159, 151, 151, 151, 151, 151, 159, 159, 69},
    {4, 4, 252, 252, 252, 151, 159, 159, 159, 79},
    {4, 252, 252, 252, 252, 151, 151, 159, 159, 79},
};
const std::vector<std::vector<int>> kGoldenBeam = {
    {4, 159, 151, 151, 151, 151, 151, 159, 159, 69},
    {4, 4, 252, 252, 252, 151, 159, 159, 159, 79},
    {4, 252, 252, 252, 252, 151, 151, 159, 159, 79},
};

TEST(ScalarProvider, GenerateBatchMatchesPreRefactorGolden) {
  Rng rng(7);
  Transformer model(GoldenConfig(), &rng);
  EXPECT_EQ(model.GenerateBatch(GoldenPrompts(), 10), kGoldenGenerate);
  EXPECT_EQ(model.BeamDecodeBatch(GoldenPrompts(), 10, 4), kGoldenBeam);
}

}  // namespace
}  // namespace nn
}  // namespace dtt
