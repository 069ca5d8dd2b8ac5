// The graph-free batched beam-search engine behind
// Transformer::BeamDecodeBatch.
//
// The per-prompt autograd reference (BeamDecode in
// tests/testing/reference_decode.cc) re-runs DecodeLogits over every
// hypothesis's whole prefix at every step — one graph build per hypothesis
// per step. This engine instead:
//
//   * encodes all prompts once (deduplicated: prompts with identical token
//     ids share one encoder pass and one cross-attention K/V projection —
//     encoder-memory reuse across trials sharing a context),
//   * projects the cross-attention keys/values once per layer,
//   * advances every live hypothesis of every prompt as one batch of rows
//     per step through Transformer::DecodeStepRows (the decoder step the
//     greedy DecodeSession shares), each hypothesis owning a self-attention
//     KV-cache slot,
//   * and, after the per-prompt top-k prune/rerank, gathers each surviving
//     hypothesis's KV prefix into a fresh slot by parent beam index
//     (gather-on-beam-index), since several children may extend one parent.
//
// Scoring replicates the legacy arithmetic exactly — the same float
// log-softmax reads, the same double accumulations, the same
// partial_sort/sort calls on identically ordered inputs — and the kernels
// produce bit-identical logits, so the returned sequences are bit-exact with
// the per-prompt reference (enforced by nn_beam_test).
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "nn/infer_internal.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/vocab.h"

namespace dtt {
namespace nn {

namespace {

using internal::AffineRows;

// One live or finished hypothesis. `ids` includes <sos>; `slot` is the
// KV-cache slot in the current (front) buffers, -1 once the hypothesis is
// done and needs no further decoding.
struct Hyp {
  std::vector<int> ids;
  double logp = 0.0;
  bool done = false;
  int slot = -1;
};

// Per-layer beam state: double-buffered self-attention caches (children
// gather their parent's prefix into the back buffer each step) plus the
// once-projected cross-attention K/V of the deduplicated encoder memory.
struct BeamLayerState {
  Tensor self_k[2];  // [slots, cap, D]
  Tensor self_v[2];  // [slots, cap, D]
  Tensor cross_k;    // [sum of unique prompt lengths, D]
  Tensor cross_v;    // [sum of unique prompt lengths, D]
};

// Process-wide beam-decode counters, resolved once (see infer.cc).
struct BeamMetrics {
  obs::Counter* calls;
  obs::Counter* prompts;
  obs::Counter* steps;
  obs::Histogram* batch_size;
  static const BeamMetrics& Get() {
    static const BeamMetrics m{
        obs::GlobalMetrics().GetCounter("nn.beam.calls"),
        obs::GlobalMetrics().GetCounter("nn.beam.prompts"),
        obs::GlobalMetrics().GetCounter("nn.beam.steps"),
        obs::GlobalMetrics().GetHistogram("nn.beam.batch_size"),
    };
    return m;
  }
};

}  // namespace

std::vector<std::vector<int>> Transformer::BeamDecodeBatch(
    const std::vector<std::vector<int>>& input_ids, int max_steps,
    int beam_size) const {
  const int num_prompts = static_cast<int>(input_ids.size());
  std::vector<std::vector<int>> out(input_ids.size());
  if (num_prompts == 0 || max_steps <= 0) return out;
  const int width = std::max(1, beam_size);

  // Deduplicate prompts: identical token sequences (e.g. repeated trials of
  // one context) share a single encoder pass and cross-attention projection.
  std::map<std::vector<int>, int> uniq_index;
  std::vector<std::vector<int>> uniq_prompts;
  std::vector<int> prompt_uniq(static_cast<size_t>(num_prompts));
  for (int p = 0; p < num_prompts; ++p) {
    auto [it, inserted] = uniq_index.try_emplace(
        input_ids[static_cast<size_t>(p)],
        static_cast<int>(uniq_prompts.size()));
    if (inserted) uniq_prompts.push_back(input_ids[static_cast<size_t>(p)]);
    prompt_uniq[static_cast<size_t>(p)] = it->second;
  }

  const BeamMetrics& metrics = BeamMetrics::Get();
  metrics.calls->Increment();
  metrics.prompts->Add(num_prompts);
  metrics.batch_size->Record(num_prompts);
  obs::TraceSpan span("nn", "nn.beam_batch");
  if (span.enabled()) {
    span.Arg("prompts", static_cast<int64_t>(num_prompts));
    span.Arg("uniq", static_cast<int64_t>(uniq_prompts.size()));
    span.Arg("width", static_cast<int64_t>(width));
  }

  std::vector<int> offsets;
  const Tensor memory = EncodeRows(uniq_prompts, &offsets);
  const int d = cfg_.dim;

  // A hypothesis at step s has prefix length s+1, so position s must stay
  // inside the model's hard length limit (the same bound the legacy path
  // asserts inside Embed).
  const int cap = std::min(max_steps, cfg_.max_len);
  const int slots = num_prompts * width;
  const size_t self_stride = static_cast<size_t>(cap) * d;
  std::vector<BeamLayerState> layers(decoder_.size());
  for (size_t l = 0; l < decoder_.size(); ++l) {
    for (int buf = 0; buf < 2; ++buf) {
      layers[l].self_k[buf] = Tensor({slots, cap, d});
      layers[l].self_v[buf] = Tensor({slots, cap, d});
    }
    const MultiHeadAttention& cross = decoder_[l]->cross_attn();
    AffineRows(memory, cross.wk(), &layers[l].cross_k);
    AffineRows(memory, cross.wv(), &layers[l].cross_v);
  }
  int front = 0;  // index of the buffer holding the live caches

  // Each prompt starts with the single <sos> hypothesis in its first slot.
  std::vector<std::vector<Hyp>> beams(static_cast<size_t>(num_prompts));
  for (int p = 0; p < num_prompts; ++p) {
    beams[static_cast<size_t>(p)].push_back(
        Hyp{{Vocab::kSos}, 0.0, false, p * width});
  }

  // One batch row per live hypothesis, rebuilt each step.
  internal::DecodeScratch scratch;
  scratch.layers.resize(decoder_.size());

  int steps_run = 0;
  for (int step = 0; step < cap; ++step) {
    // Collect the live hypotheses, in (prompt, beam) order: each feeds its
    // newest token at position `step` and attends over its prompt's memory.
    scratch.ClearRows();
    for (int p = 0; p < num_prompts; ++p) {
      const size_t u =
          static_cast<size_t>(prompt_uniq[static_cast<size_t>(p)]);
      for (const Hyp& hyp : beams[static_cast<size_t>(p)]) {
        if (hyp.done) continue;
        scratch.AddRow(hyp.ids.back(), step,
                       static_cast<size_t>(hyp.slot) * self_stride,
                       static_cast<size_t>(offsets[u]) * d,
                       offsets[u + 1] - offsets[u]);
      }
    }
    const int rows = scratch.rows();
    if (rows == 0) break;
    ++steps_run;
    obs::TraceSpan step_span("nn", "nn.beam_step");
    if (step_span.enabled()) {
      step_span.Arg("step", static_cast<int64_t>(step));
      step_span.Arg("rows", static_cast<int64_t>(rows));
    }
    for (size_t l = 0; l < decoder_.size(); ++l) {
      BeamLayerState& state = layers[l];
      scratch.layers[l] = {state.self_k[front].data(),
                           state.self_v[front].data(), state.cross_k.data(),
                           state.cross_v.data()};
    }
    const Tensor& logits = DecodeStepRows(&scratch);  // [rows, V]
    const int vocab = logits.cols();

    // Per-prompt expansion + prune, replicating the reference BeamDecode
    // arithmetic and selection calls exactly (same float reads, same double
    // sums, same partial_sort/sort invocations on identically ordered
    // input), so scores and tie-breaks match the reference bit-for-bit.
    int next_row = 0;
    bool all_prompts_done = true;
    for (int p = 0; p < num_prompts; ++p) {
      auto& prompt_beams = beams[static_cast<size_t>(p)];
      // A prompt whose hypotheses are all done is frozen: the legacy loop
      // breaks right after the sort of its final step, so re-sorting here
      // could permute equal-score hypotheses away from the reference.
      bool prompt_live = false;
      for (const Hyp& hyp : prompt_beams) {
        prompt_live = prompt_live || !hyp.done;
      }
      if (!prompt_live) continue;
      std::vector<Hyp> next;
      for (const Hyp& hyp : prompt_beams) {
        if (hyp.done) {
          next.push_back(hyp);
          continue;
        }
        const float* row =
            logits.data() + static_cast<size_t>(next_row++) * vocab;
        // Log-softmax of the hypothesis's logits row.
        float mx = row[0];
        for (int j = 1; j < vocab; ++j) mx = std::max(mx, row[j]);
        double lse = 0.0;
        for (int j = 0; j < vocab; ++j) {
          lse += std::exp(static_cast<double>(row[j] - mx));
        }
        lse = std::log(lse) + mx;
        // Top `width` continuations of this hypothesis.
        std::vector<std::pair<double, int>> scored;
        scored.reserve(static_cast<size_t>(vocab));
        for (int j = 0; j < vocab; ++j) {
          scored.emplace_back(static_cast<double>(row[j]) - lse, j);
        }
        std::partial_sort(
            scored.begin(),
            scored.begin() + std::min<size_t>(scored.size(), width),
            scored.end(), std::greater<>());
        for (int c = 0; c < width && c < static_cast<int>(scored.size());
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
      if (static_cast<int>(next.size()) > width) next.resize(width);
      prompt_beams = std::move(next);
      for (const Hyp& h : prompt_beams) {
        all_prompts_done = all_prompts_done && h.done;
      }
    }
    assert(next_row == rows);

    // Gather-on-beam-index: every surviving live hypothesis copies its
    // parent's KV prefix (positions 0..step, which includes the K/V just
    // written this step) into its own slot of the back buffers. Done
    // hypotheses release their slots.
    const int back = 1 - front;
    const size_t prefix_bytes =
        sizeof(float) * static_cast<size_t>(step + 1) * d;
    for (int p = 0; p < num_prompts; ++p) {
      auto& prompt_beams = beams[static_cast<size_t>(p)];
      for (size_t h = 0; h < prompt_beams.size(); ++h) {
        Hyp& hyp = prompt_beams[h];
        if (hyp.done) {
          hyp.slot = -1;
          continue;
        }
        const int parent_slot = hyp.slot;
        const int child_slot = p * width + static_cast<int>(h);
        for (auto& state : layers) {
          std::memcpy(state.self_k[back].data() +
                          static_cast<size_t>(child_slot) * self_stride,
                      state.self_k[front].data() +
                          static_cast<size_t>(parent_slot) * self_stride,
                      prefix_bytes);
          std::memcpy(state.self_v[back].data() +
                          static_cast<size_t>(child_slot) * self_stride,
                      state.self_v[front].data() +
                          static_cast<size_t>(parent_slot) * self_stride,
                      prefix_bytes);
        }
        hyp.slot = child_slot;
      }
    }
    front = back;
    if (all_prompts_done) break;
  }
  metrics.steps->Add(steps_run);
  span.Arg("steps", static_cast<int64_t>(steps_run));

  for (int p = 0; p < num_prompts; ++p) {
    const Hyp& best = beams[static_cast<size_t>(p)][0];
    out[static_cast<size_t>(p)].assign(best.ids.begin() + 1, best.ids.end());
  }
  return out;
}

}  // namespace nn
}  // namespace dtt
