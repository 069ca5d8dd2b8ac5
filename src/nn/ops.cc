#include "nn/ops.h"

#include <cassert>
#include <cmath>

#include "nn/gemm.h"
#include "nn/softmax.h"

namespace dtt {
namespace nn {

using internal::GemmAcc;
using internal::GemmAtAcc;
using internal::GemmBtAcc;
using internal::ReluRow;
using internal::SoftmaxRows;

Var MatMul(const Var& a, const Var& b) {
  assert(a.value().rank() == 2 && b.value().rank() == 2);
  const int m = a.value().rows();
  const int k = a.value().cols();
  const int n = b.value().cols();
  assert(b.value().rows() == k);
  Tensor out({m, n});
  GemmAcc(a.value().data(), b.value().data(), out.data(), m, k, n);
  Var av = a, bv = b;
  return MakeOpNode(std::move(out), {a, b}, [av, bv, m, k, n](Node* self) {
    if (av.node()->requires_grad) {
      Tensor da({m, k});
      GemmBtAcc(self->grad.data(), bv.value().data(), da.data(), m, n, k);
      av.node()->AccumulateGrad(da);
    }
    if (bv.node()->requires_grad) {
      Tensor db({k, n});
      GemmAtAcc(av.value().data(), self->grad.data(), db.data(), m, k, n);
      bv.node()->AccumulateGrad(db);
    }
  });
}

Var Transpose(const Var& a) {
  assert(a.value().rank() == 2);
  const int m = a.value().rows();
  const int n = a.value().cols();
  Tensor out({n, m});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out.at(j, i) = a.value().at(i, j);
  }
  Var av = a;
  return MakeOpNode(std::move(out), {a}, [av, m, n](Node* self) {
    if (!av.node()->requires_grad) return;
    Tensor da({m, n});
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) da.at(j, i) = self->grad.at(i, j);
    }
    av.node()->AccumulateGrad(da);
  });
}

Var Add(const Var& a, const Var& b) {
  assert(a.value().SameShape(b.value()));
  Tensor out = a.value();
  out.AddInPlace(b.value());
  Var av = a, bv = b;
  return MakeOpNode(std::move(out), {a, b}, [av, bv](Node* self) {
    if (av.node()->requires_grad) av.node()->AccumulateGrad(self->grad);
    if (bv.node()->requires_grad) bv.node()->AccumulateGrad(self->grad);
  });
}

Var AddRowBroadcast(const Var& x, const Var& bias) {
  assert(x.value().rank() == 2 && bias.value().rank() == 1);
  const int t = x.value().rows();
  const int d = x.value().cols();
  assert(bias.value().dim(0) == d);
  Tensor out = x.value();
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < d; ++j) out.at(i, j) += bias.value().at(j);
  }
  Var xv = x, bv = bias;
  return MakeOpNode(std::move(out), {x, bias}, [xv, bv, t, d](Node* self) {
    if (xv.node()->requires_grad) xv.node()->AccumulateGrad(self->grad);
    if (bv.node()->requires_grad) {
      Tensor db({d});
      for (int i = 0; i < t; ++i) {
        for (int j = 0; j < d; ++j) db.at(j) += self->grad.at(i, j);
      }
      bv.node()->AccumulateGrad(db);
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  assert(a.value().SameShape(b.value()));
  Tensor out = a.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] *= b.value().data()[i];
  Var av = a, bv = b;
  return MakeOpNode(std::move(out), {a, b}, [av, bv](Node* self) {
    if (av.node()->requires_grad) {
      Tensor da(av.value().shape());
      for (size_t i = 0; i < da.size(); ++i) {
        da.data()[i] = self->grad.data()[i] * bv.value().data()[i];
      }
      av.node()->AccumulateGrad(da);
    }
    if (bv.node()->requires_grad) {
      Tensor db(bv.value().shape());
      for (size_t i = 0; i < db.size(); ++i) {
        db.data()[i] = self->grad.data()[i] * av.value().data()[i];
      }
      bv.node()->AccumulateGrad(db);
    }
  });
}

Var Scale(const Var& a, float s) {
  Tensor out = a.value();
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] *= s;
  Var av = a;
  return MakeOpNode(std::move(out), {a}, [av, s](Node* self) {
    if (!av.node()->requires_grad) return;
    Tensor da(av.value().shape());
    for (size_t i = 0; i < da.size(); ++i) da.data()[i] = self->grad.data()[i] * s;
    av.node()->AccumulateGrad(da);
  });
}

Var AddConst(const Var& a, Tensor c) {
  assert(a.value().SameShape(c));
  Tensor out = a.value();
  out.AddInPlace(c);
  Var av = a;
  return MakeOpNode(std::move(out), {a}, [av](Node* self) {
    if (av.node()->requires_grad) av.node()->AccumulateGrad(self->grad);
  });
}

Var Relu(const Var& x) {
  Tensor out = x.value();
  ReluRow(out.data(), out.size());
  Var xv = x;
  return MakeOpNode(std::move(out), {x}, [xv](Node* self) {
    if (!xv.node()->requires_grad) return;
    Tensor dx(xv.value().shape());
    for (size_t i = 0; i < dx.size(); ++i) {
      dx.data()[i] = xv.value().data()[i] > 0.0f ? self->grad.data()[i] : 0.0f;
    }
    xv.node()->AccumulateGrad(dx);
  });
}

// Contract relied on by the graph-free decoders (nn/infer_internal.h): this
// op and their attention kernels run the one SoftmaxRows (nn/softmax.h), and
// a -1e9 additive mask drives its exp to an exact +0 weight. Adding 0 * v to
// a sum that started at +0 changes nothing, so causally masked attention is
// bit-identical to unmasked attention over only the visible positions.
Var Softmax(const Var& x) {
  const Tensor& in = x.value();
  const int rows = in.rank() == 2 ? in.rows() : 1;
  const int cols = in.rank() == 2 ? in.cols() : in.dim(0);
  Tensor out = in;
  SoftmaxRows(out.data(), rows, cols);
  Var xv = x;
  Tensor saved = out;
  return MakeOpNode(std::move(out), {x},
                    [xv, saved, rows, cols](Node* self) {
    if (!xv.node()->requires_grad) return;
    Tensor dx(xv.value().shape());
    for (int r = 0; r < rows; ++r) {
      const float* y = saved.data() + static_cast<size_t>(r) * cols;
      const float* dy = self->grad.data() + static_cast<size_t>(r) * cols;
      float* d = dx.data() + static_cast<size_t>(r) * cols;
      float dot = 0.0f;
      for (int j = 0; j < cols; ++j) dot += y[j] * dy[j];
      for (int j = 0; j < cols; ++j) d[j] = y[j] * (dy[j] - dot);
    }
    xv.node()->AccumulateGrad(dx);
  });
}

Var LayerNormOp(const Var& x, const Var& gamma, const Var& beta, float eps) {
  assert(x.value().rank() == 2);
  const int t = x.value().rows();
  const int d = x.value().cols();
  assert(gamma.value().dim(0) == d && beta.value().dim(0) == d);
  Tensor out({t, d});
  Tensor xhat({t, d});
  Tensor inv_std({t});
  for (int i = 0; i < t; ++i) {
    const float* row = x.value().data() + static_cast<size_t>(i) * d;
    float mean = 0.0f;
    for (int j = 0; j < d; ++j) mean += row[j];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (int j = 0; j < d; ++j) {
      float c = row[j] - mean;
      var += c * c;
    }
    var /= static_cast<float>(d);
    float istd = 1.0f / std::sqrt(var + eps);
    inv_std.at(i) = istd;
    for (int j = 0; j < d; ++j) {
      float xh = (row[j] - mean) * istd;
      xhat.at(i, j) = xh;
      out.at(i, j) = gamma.value().at(j) * xh + beta.value().at(j);
    }
  }
  Var xv = x, gv = gamma, bv = beta;
  return MakeOpNode(
      std::move(out), {x, gamma, beta},
      [xv, gv, bv, xhat, inv_std, t, d](Node* self) {
        // dbeta = sum_i dy; dgamma = sum_i dy*xhat
        if (gv.node()->requires_grad) {
          Tensor dg({d});
          for (int i = 0; i < t; ++i) {
            for (int j = 0; j < d; ++j) {
              dg.at(j) += self->grad.at(i, j) * xhat.at(i, j);
            }
          }
          gv.node()->AccumulateGrad(dg);
        }
        if (bv.node()->requires_grad) {
          Tensor db({d});
          for (int i = 0; i < t; ++i) {
            for (int j = 0; j < d; ++j) db.at(j) += self->grad.at(i, j);
          }
          bv.node()->AccumulateGrad(db);
        }
        if (xv.node()->requires_grad) {
          Tensor dx({t, d});
          for (int i = 0; i < t; ++i) {
            // dxhat = dy * gamma
            float mean_dxhat = 0.0f;
            float mean_dxhat_xhat = 0.0f;
            for (int j = 0; j < d; ++j) {
              float dxh = self->grad.at(i, j) * gv.value().at(j);
              mean_dxhat += dxh;
              mean_dxhat_xhat += dxh * xhat.at(i, j);
            }
            mean_dxhat /= static_cast<float>(d);
            mean_dxhat_xhat /= static_cast<float>(d);
            for (int j = 0; j < d; ++j) {
              float dxh = self->grad.at(i, j) * gv.value().at(j);
              dx.at(i, j) = inv_std.at(i) *
                            (dxh - mean_dxhat - xhat.at(i, j) * mean_dxhat_xhat);
            }
          }
          xv.node()->AccumulateGrad(dx);
        }
      });
}

Var EmbeddingGather(const Var& weight, const std::vector<int>& ids) {
  assert(weight.value().rank() == 2);
  const int d = weight.value().cols();
  const int t = static_cast<int>(ids.size());
  Tensor out({t, d});
  for (int i = 0; i < t; ++i) {
    assert(ids[static_cast<size_t>(i)] >= 0 &&
           ids[static_cast<size_t>(i)] < weight.value().rows());
    const float* src = weight.value().data() +
                       static_cast<size_t>(ids[static_cast<size_t>(i)]) * d;
    float* dst = out.data() + static_cast<size_t>(i) * d;
    for (int j = 0; j < d; ++j) dst[j] = src[j];
  }
  Var wv = weight;
  std::vector<int> ids_copy = ids;
  return MakeOpNode(std::move(out), {weight}, [wv, ids_copy, d](Node* self) {
    if (!wv.node()->requires_grad) return;
    Tensor dw(wv.value().shape());
    for (size_t i = 0; i < ids_copy.size(); ++i) {
      float* dst = dw.data() + static_cast<size_t>(ids_copy[i]) * d;
      const float* src = self->grad.data() + i * static_cast<size_t>(d);
      for (int j = 0; j < d; ++j) dst[j] += src[j];
    }
    wv.node()->AccumulateGrad(dw);
  });
}

Var SliceCols(const Var& x, int begin, int len) {
  assert(x.value().rank() == 2);
  const int t = x.value().rows();
  const int d = x.value().cols();
  assert(begin >= 0 && begin + len <= d);
  Tensor out({t, len});
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < len; ++j) out.at(i, j) = x.value().at(i, begin + j);
  }
  Var xv = x;
  return MakeOpNode(std::move(out), {x}, [xv, begin, len, t, d](Node* self) {
    if (!xv.node()->requires_grad) return;
    Tensor dx({t, d});
    for (int i = 0; i < t; ++i) {
      for (int j = 0; j < len; ++j) dx.at(i, begin + j) = self->grad.at(i, j);
    }
    xv.node()->AccumulateGrad(dx);
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  assert(!parts.empty());
  const int t = parts[0].value().rows();
  int total = 0;
  for (const auto& p : parts) {
    assert(p.value().rows() == t);
    total += p.value().cols();
  }
  Tensor out({t, total});
  int off = 0;
  for (const auto& p : parts) {
    const int d = p.value().cols();
    for (int i = 0; i < t; ++i) {
      for (int j = 0; j < d; ++j) out.at(i, off + j) = p.value().at(i, j);
    }
    off += d;
  }
  std::vector<Var> saved = parts;
  return MakeOpNode(std::move(out), parts, [saved, t](Node* self) {
    int off2 = 0;
    for (const auto& p : saved) {
      const int d = p.value().cols();
      if (p.node()->requires_grad) {
        Tensor dp({t, d});
        for (int i = 0; i < t; ++i) {
          for (int j = 0; j < d; ++j) dp.at(i, j) = self->grad.at(i, off2 + j);
        }
        p.node()->AccumulateGrad(dp);
      }
      off2 += d;
    }
  });
}

Var CrossEntropyLoss(const Var& logits, const std::vector<int>& targets,
                     int ignore_index) {
  assert(logits.value().rank() == 2);
  const int t = logits.value().rows();
  const int v = logits.value().cols();
  assert(static_cast<int>(targets.size()) == t);
  // Stable softmax probabilities, saved for the pullback.
  Tensor probs = logits.value();
  SoftmaxRows(probs.data(), t, v);
  double loss_sum = 0.0;
  int counted = 0;
  for (int i = 0; i < t; ++i) {
    const float* prow = probs.data() + static_cast<size_t>(i) * v;
    int tgt = targets[static_cast<size_t>(i)];
    if (tgt == ignore_index) continue;
    assert(tgt >= 0 && tgt < v);
    loss_sum += -std::log(std::max(prow[tgt], 1e-12f));
    ++counted;
  }
  Tensor out({1});
  out.at(0) = counted > 0 ? static_cast<float>(loss_sum / counted) : 0.0f;
  Var lv = logits;
  std::vector<int> tg = targets;
  return MakeOpNode(std::move(out), {logits},
                    [lv, tg, probs, t, v, ignore_index, counted](Node* self) {
    if (!lv.node()->requires_grad || counted == 0) return;
    const float g = self->grad.at(0) / static_cast<float>(counted);
    Tensor dl({t, v});
    for (int i = 0; i < t; ++i) {
      int tgt = tg[static_cast<size_t>(i)];
      if (tgt == ignore_index) continue;
      const float* prow = probs.data() + static_cast<size_t>(i) * v;
      float* drow = dl.data() + static_cast<size_t>(i) * v;
      for (int j = 0; j < v; ++j) drow[j] = g * prow[j];
      drow[tgt] -= g;
    }
    lv.node()->AccumulateGrad(dl);
  });
}

Var SumAll(const Var& x) {
  Tensor out({1});
  out.at(0) = x.value().Sum();
  Var xv = x;
  return MakeOpNode(std::move(out), {x}, [xv](Node* self) {
    if (!xv.node()->requires_grad) return;
    Tensor dx(xv.value().shape());
    dx.Fill(self->grad.at(0));
    xv.node()->AccumulateGrad(dx);
  });
}

}  // namespace nn
}  // namespace dtt
