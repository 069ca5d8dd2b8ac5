#ifndef DTT_NN_ATTENTION_H_
#define DTT_NN_ATTENTION_H_

#include <memory>

#include "nn/layers.h"

namespace dtt {
namespace nn {

/// Multi-head scaled-dot-product attention; serves as both self-attention
/// (queries == keys/values source) and cross-attention (decoder queries over
/// encoder memory).
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int dim, int num_heads, Rng* rng);

  /// `causal` masks position i from attending to j > i (self-attention in the
  /// decoder). Query input [Tq,D], key/value input [Tk,D] -> [Tq,D].
  Var Forward(const Var& query_input, const Var& kv_input, bool causal) const;

  void CollectParams(const std::string& prefix,
                     std::vector<NamedParam>* out) override;

  int num_heads() const { return num_heads_; }
  int head_dim() const { return head_dim_; }
  const Linear& wq() const { return wq_; }
  const Linear& wk() const { return wk_; }
  const Linear& wv() const { return wv_; }
  const Linear& wo() const { return wo_; }

 private:
  int dim_;
  int num_heads_;
  int head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_ATTENTION_H_
