#ifndef DTT_NN_OPS_H_
#define DTT_NN_OPS_H_

#include <vector>

#include "nn/autograd.h"

namespace dtt {
namespace nn {

/// Matrix product: [m,k] x [k,n] -> [m,n].
Var MatMul(const Var& a, const Var& b);

/// 2-D transpose.
Var Transpose(const Var& a);

/// Elementwise sum of equal-shaped tensors.
Var Add(const Var& a, const Var& b);

/// Adds a [D] bias row-wise to a [T,D] matrix.
Var AddRowBroadcast(const Var& x, const Var& bias);

/// Elementwise product of equal-shaped tensors.
Var Mul(const Var& a, const Var& b);

/// Multiplication by a compile-time constant scalar.
Var Scale(const Var& a, float s);

/// Adds a constant tensor (no gradient for the constant); used for additive
/// attention masks.
Var AddConst(const Var& a, Tensor c);

Var Relu(const Var& x);

/// Row-wise softmax of a rank-2 tensor (rank-1 treated as a single row).
Var Softmax(const Var& x);

/// Row-wise layer normalization with learnable gain/bias ([D] each).
Var LayerNormOp(const Var& x, const Var& gamma, const Var& beta,
                float eps = 1e-5f);

/// Gathers rows of `weight` ([V,D]) by token id -> [T,D]. Ids must be in
/// range.
Var EmbeddingGather(const Var& weight, const std::vector<int>& ids);

/// Column slice [*, begin:begin+len) of a rank-2 tensor.
Var SliceCols(const Var& x, int begin, int len);

/// Concatenates rank-2 tensors with equal row counts along columns.
Var ConcatCols(const std::vector<Var>& parts);

/// Mean cross-entropy from logits [T,V] against integer targets (length T).
/// Positions whose target equals `ignore_index` contribute nothing.
Var CrossEntropyLoss(const Var& logits, const std::vector<int>& targets,
                     int ignore_index = -1);

/// Sum of all elements -> scalar [1].
Var SumAll(const Var& x);

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_OPS_H_
