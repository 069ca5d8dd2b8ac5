// The greedy decode engine: Transformer::GenerateBatch (a session sized to
// its batch) and the serve layer's continuous (token-level) batching.
//
// Sequences occupy KV-cache slots they can enter and leave mid-loop, each
// carrying its own decoder position and step budget; every step feeds the
// live slots, wherever they sit, as rows of the shared
// Transformer::DecodeStepRows. Because every kernel is row-wise, a
// sequence's tokens never depend on its batch-mates, which is what makes
// the continuous batcher bit-identical to the run-to-completion path for
// every admission schedule (nn_decode_session_test, serve_continuous_test).
#include "nn/decode_session.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <memory>

#include "nn/infer_internal.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/vocab.h"

namespace dtt {
namespace nn {

namespace {

using internal::AffineRows;

// Process-wide session counters, resolved once (see infer.cc).
struct SessionMetrics {
  obs::Counter* sessions;
  obs::Counter* admitted;
  obs::Counter* steps;
  static const SessionMetrics& Get() {
    static const SessionMetrics m{
        obs::GlobalMetrics().GetCounter("nn.session.sessions"),
        obs::GlobalMetrics().GetCounter("nn.session.admitted"),
        obs::GlobalMetrics().GetCounter("nn.session.steps"),
    };
    return m;
  }
};

}  // namespace

std::unique_ptr<DecodeSession> Transformer::NewDecodeSession(
    DecodeSessionOptions options) const {
  return std::unique_ptr<DecodeSession>(new DecodeSession(this, options));
}

DecodeSession::DecodeSession(const Transformer* model,
                             DecodeSessionOptions options)
    : model_(model), options_(options) {
  const TransformerConfig& cfg = model_->cfg_;
  max_slots_ = std::max(1, options_.max_slots);
  options_.max_steps = std::max(1, options_.max_steps);
  // Decoder positions are bounded by both the step budget and the model's
  // hard length limit (<sos> is position 0).
  cap_ = std::min(options_.max_steps + 1, cfg.max_len);
  mem_cap_ = cfg.max_len;
  d_ = cfg.dim;
  layers_.resize(model_->decoder_.size());
  for (LayerState& layer : layers_) {
    layer.self_k = Tensor({max_slots_, cap_, d_});
    layer.self_v = Tensor({max_slots_, cap_, d_});
    layer.cross_k = Tensor({max_slots_, mem_cap_, d_});
    layer.cross_v = Tensor({max_slots_, mem_cap_, d_});
  }
  // The caches never reallocate, so every step reuses these pointers.
  scratch_ = std::make_unique<internal::DecodeScratch>();
  for (LayerState& layer : layers_) {
    scratch_->layers.push_back({layer.self_k.data(), layer.self_v.data(),
                                layer.cross_k.data(), layer.cross_v.data()});
  }
  slots_.resize(static_cast<size_t>(max_slots_));
  free_handles_.reserve(static_cast<size_t>(max_slots_));
  for (int i = max_slots_ - 1; i >= 0; --i) free_handles_.push_back(i);
  SessionMetrics::Get().sessions->Increment();
}

DecodeSession::~DecodeSession() = default;

std::vector<std::shared_ptr<const EncodedPrompt>> DecodeSession::EncodeGroup(
    const std::vector<std::vector<int>>& inputs) const {
  // One encoder pass over the whole group, packed without padding, so each
  // prompt's memory rows are bit-identical however the group is composed.
  // The row-wise projection then gives each prompt exactly the cross K/V a
  // group of one would.
  std::vector<int> offsets;
  const Tensor memory = model_->EncodeRows(inputs, &offsets);
  std::vector<std::shared_ptr<EncodedPrompt>> encoded(inputs.size());
  for (size_t g = 0; g < inputs.size(); ++g) {
    assert(static_cast<int>(inputs[g].size()) <= mem_cap_);
    encoded[g] = std::make_shared<EncodedPrompt>();
    encoded[g]->len = offsets[g + 1] - offsets[g];
  }
  Tensor proj_k, proj_v;
  for (const auto& layer : model_->decoder_) {
    const MultiHeadAttention& cross = layer->cross_attn();
    AffineRows(memory, cross.wk(), &proj_k);
    AffineRows(memory, cross.wv(), &proj_v);
    for (size_t g = 0; g < inputs.size(); ++g) {
      EncodedPrompt& prompt = *encoded[g];
      const size_t src =
          static_cast<size_t>(offsets[g]) * static_cast<size_t>(d_);
      const size_t valid =
          static_cast<size_t>(prompt.len) * static_cast<size_t>(d_);
      prompt.cross_k.emplace_back(std::vector<int>{prompt.len, d_});
      prompt.cross_v.emplace_back(std::vector<int>{prompt.len, d_});
      std::memcpy(prompt.cross_k.back().data(), proj_k.data() + src,
                  sizeof(float) * valid);
      std::memcpy(prompt.cross_v.back().data(), proj_v.data() + src,
                  sizeof(float) * valid);
    }
  }
  return {encoded.begin(), encoded.end()};
}

std::shared_ptr<const EncodedPrompt> DecodeSession::Encode(
    const std::vector<int>& input_ids) const {
  return EncodeGroup({input_ids})[0];
}

int DecodeSession::Install(const EncodedPrompt& prompt, int max_steps) {
  assert(free_slots() > 0);
  assert(prompt.len <= mem_cap_ && prompt.cross_k.size() == layers_.size());
  const int handle = free_handles_.back();
  free_handles_.pop_back();
  Slot& slot = slots_[static_cast<size_t>(handle)];
  slot.in_use = true;
  slot.done = false;
  slot.mem_len = prompt.len;
  slot.fed = 0;
  slot.budget = max_steps > 0 ? std::min(max_steps, options_.max_steps)
                              : options_.max_steps;
  slot.cur_token = Vocab::kSos;
  slot.out.clear();
  ++active_;
  // Copy the prompt's cross K/V rows into the slot's cache region.
  const size_t valid =
      static_cast<size_t>(prompt.len) * static_cast<size_t>(d_);
  const size_t dst = static_cast<size_t>(handle) *
                     static_cast<size_t>(mem_cap_) * static_cast<size_t>(d_);
  for (size_t l = 0; l < layers_.size(); ++l) {
    std::memcpy(layers_[l].cross_k.data() + dst, prompt.cross_k[l].data(),
                sizeof(float) * valid);
    std::memcpy(layers_[l].cross_v.data() + dst, prompt.cross_v[l].data(),
                sizeof(float) * valid);
  }
  SessionMetrics::Get().admitted->Increment();
  return handle;
}

std::vector<int> DecodeSession::Step() {
  live_.clear();
  for (int h = 0; h < max_slots_; ++h) {
    const Slot& slot = slots_[static_cast<size_t>(h)];
    if (slot.in_use && !slot.done) live_.push_back(h);
  }
  std::vector<int> finished;
  if (live_.empty()) return finished;
  const int rows = static_cast<int>(live_.size());
  obs::TraceSpan span("nn", "nn.session_step");
  if (span.enabled()) span.Arg("rows", static_cast<int64_t>(rows));

  const size_t self_stride =
      static_cast<size_t>(cap_) * static_cast<size_t>(d_);
  const size_t cross_stride =
      static_cast<size_t>(mem_cap_) * static_cast<size_t>(d_);
  internal::DecodeScratch& scratch = *scratch_;
  scratch.ClearRows();
  for (int handle : live_) {
    // Each slot feeds its current token at its own decoder position.
    const Slot& slot = slots_[static_cast<size_t>(handle)];
    const size_t row = static_cast<size_t>(handle);
    scratch.AddRow(slot.cur_token, slot.fed, row * self_stride,
                   row * cross_stride, slot.mem_len);
  }
  const Tensor& logits = model_->DecodeStepRows(&scratch);  // [rows, V]
  for (int r = 0; r < rows; ++r) {
    const int handle = live_[static_cast<size_t>(r)];
    Slot& slot = slots_[static_cast<size_t>(handle)];
    const float* row = logits.data() + static_cast<size_t>(r) * logits.cols();
    int best = 0;
    float best_v = row[0];
    for (int j = 1; j < logits.cols(); ++j) {
      if (row[j] > best_v) {
        best_v = row[j];
        best = j;
      }
    }
    bool done = false;
    if (best == Vocab::kEos) {
      done = true;
    } else {
      slot.out.push_back(best);
      slot.cur_token = best;
      // GreedyDecode's stopping rules: the prefix (<sos> + output) may not
      // outgrow the model's length limit, and the sequence stops at its
      // budget.
      done = slot.fed + 2 >= model_->cfg_.max_len ||
             static_cast<int>(slot.out.size()) >= slot.budget;
    }
    ++slot.fed;
    if (done) {
      slot.done = true;
      finished.push_back(handle);
    }
  }
  SessionMetrics::Get().steps->Increment();
  return finished;
}

bool DecodeSession::done(int slot) const {
  assert(slot >= 0 && slot < max_slots_ &&
         slots_[static_cast<size_t>(slot)].in_use);
  return slots_[static_cast<size_t>(slot)].done;
}

const std::vector<int>& DecodeSession::output(int slot) const {
  assert(slot >= 0 && slot < max_slots_ &&
         slots_[static_cast<size_t>(slot)].in_use);
  return slots_[static_cast<size_t>(slot)].out;
}

void DecodeSession::Release(int slot) {
  assert(slot >= 0 && slot < max_slots_);
  Slot& state = slots_[static_cast<size_t>(slot)];
  if (!state.in_use) return;
  // A mid-decode eviction returns the KV row like a finished one: no other
  // slot references it.
  state.in_use = false;
  state.done = false;
  state.out.clear();
  free_handles_.insert(
      std::upper_bound(free_handles_.begin(), free_handles_.end(), slot,
                       std::greater<int>()),
      slot);
  --active_;
}

}  // namespace nn
}  // namespace dtt
