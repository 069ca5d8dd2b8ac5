#include "testing/reference_decode.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "text/vocab.h"

namespace dtt {
namespace testing {

using nn::Tensor;
using nn::Var;

std::vector<int> GreedyDecode(const nn::Transformer& model,
                              const std::vector<int>& input_ids,
                              int max_steps) {
  Var memory = model.Encode(input_ids);
  std::vector<int> generated;
  std::vector<int> dec = {Vocab::kSos};
  for (int step = 0; step < max_steps; ++step) {
    Var logits = model.DecodeLogits(memory, dec);
    const Tensor& lv = logits.value();
    const int last = lv.rows() - 1;
    int best = 0;
    float best_v = lv.at(last, 0);
    for (int j = 1; j < lv.cols(); ++j) {
      if (lv.at(last, j) > best_v) {
        best_v = lv.at(last, j);
        best = j;
      }
    }
    if (best == Vocab::kEos) break;
    generated.push_back(best);
    dec.push_back(best);
    if (static_cast<int>(dec.size()) >= model.config().max_len) break;
  }
  return generated;
}

// The legacy per-prompt beam search, kept verbatim as the acceptance oracle
// for the batched engine: nn_beam_test asserts BeamDecodeBatch reproduces
// this function's output bit-for-bit, which only holds while the scoring
// arithmetic below (float log-softmax reads, double score sums, the exact
// partial_sort/sort calls) stays untouched.
std::vector<int> BeamDecode(const nn::Transformer& model,
                            const std::vector<int>& input_ids, int max_steps,
                            int beam_size) {
  struct Hyp {
    std::vector<int> ids;  // includes <sos>
    double logp = 0.0;
    bool done = false;
  };
  Var memory = model.Encode(input_ids);
  std::vector<Hyp> beams = {{{Vocab::kSos}, 0.0, false}};
  for (int step = 0; step < max_steps; ++step) {
    std::vector<Hyp> next;
    for (const auto& hyp : beams) {
      if (hyp.done) {
        next.push_back(hyp);
        continue;
      }
      Var logits = model.DecodeLogits(memory, hyp.ids);
      const Tensor& lv = logits.value();
      const int last = lv.rows() - 1;
      // Log-softmax of the last row.
      float mx = lv.at(last, 0);
      for (int j = 1; j < lv.cols(); ++j) mx = std::max(mx, lv.at(last, j));
      double lse = 0.0;
      for (int j = 0; j < lv.cols(); ++j) {
        lse += std::exp(static_cast<double>(lv.at(last, j) - mx));
      }
      lse = std::log(lse) + mx;
      // Top beam_size continuations of this hypothesis.
      std::vector<std::pair<double, int>> scored;
      scored.reserve(static_cast<size_t>(lv.cols()));
      for (int j = 0; j < lv.cols(); ++j) {
        scored.emplace_back(static_cast<double>(lv.at(last, j)) - lse, j);
      }
      std::partial_sort(scored.begin(),
                        scored.begin() + std::min<size_t>(scored.size(),
                                                          beam_size),
                        scored.end(), std::greater<>());
      for (int c = 0; c < beam_size && c < static_cast<int>(scored.size());
           ++c) {
        Hyp h2 = hyp;
        h2.logp += scored[static_cast<size_t>(c)].first;
        int tok = scored[static_cast<size_t>(c)].second;
        if (tok == Vocab::kEos) {
          h2.done = true;
        } else {
          h2.ids.push_back(tok);
        }
        next.push_back(std::move(h2));
      }
    }
    std::sort(next.begin(), next.end(),
              [](const Hyp& a, const Hyp& b) { return a.logp > b.logp; });
    if (static_cast<int>(next.size()) > beam_size) next.resize(beam_size);
    beams = std::move(next);
    bool all_done = true;
    for (const auto& h : beams) all_done = all_done && h.done;
    if (all_done) break;
  }
  std::vector<int> out(beams[0].ids.begin() + 1, beams[0].ids.end());
  return out;
}

}  // namespace testing
}  // namespace dtt
