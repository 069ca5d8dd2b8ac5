// The greedy decode engine: Transformer::GenerateBatch (a session sized to
// its batch) and the serve layer's continuous (token-level) batching.
//
// Sequences occupy stable KV-cache slots they can enter and leave mid-loop,
// each carrying its own decoder position and step budget; every step feeds
// the live slots as rows of the shared Transformer::DecodeStepRows. Because
// every kernel is row-wise, a sequence's tokens never depend on its
// batch-mates, which is what makes the continuous batcher bit-identical to
// the run-to-completion path for every admission schedule
// (nn_decode_session_test, serve_continuous_test).
#include "nn/decode_session.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>

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
  obs::Counter* compact_moves;
  static const SessionMetrics& Get() {
    static const SessionMetrics m{
        obs::GlobalMetrics().GetCounter("nn.session.sessions"),
        obs::GlobalMetrics().GetCounter("nn.session.admitted"),
        obs::GlobalMetrics().GetCounter("nn.session.steps"),
        obs::GlobalMetrics().GetCounter("nn.session.compact_moves"),
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
  free_phys_.reserve(static_cast<size_t>(max_slots_));
  for (int i = max_slots_ - 1; i >= 0; --i) {
    free_handles_.push_back(i);
    free_phys_.push_back(i);
  }
  SessionMetrics::Get().sessions->Increment();
}

DecodeSession::~DecodeSession() = default;

int DecodeSession::AllocHandle() {
  assert(!free_handles_.empty());
  const int handle = free_handles_.back();
  free_handles_.pop_back();
  return handle;
}

void DecodeSession::FreePhys(int phys) {
  // Keep the free list descending so the lowest physical row is reused
  // first — allocation order is deterministic and stays dense.
  free_phys_.insert(
      std::upper_bound(free_phys_.begin(), free_phys_.end(), phys,
                       std::greater<int>()),
      phys);
}

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
  const int handle = AllocHandle();
  assert(!free_phys_.empty());
  const int phys = free_phys_.back();
  free_phys_.pop_back();
  Slot& slot = slots_[static_cast<size_t>(handle)];
  slot.in_use = true;
  slot.done = false;
  slot.phys = phys;
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
  const size_t dst = static_cast<size_t>(phys) *
                     static_cast<size_t>(mem_cap_) * static_cast<size_t>(d_);
  for (size_t l = 0; l < layers_.size(); ++l) {
    std::memcpy(layers_[l].cross_k.data() + dst, prompt.cross_k[l].data(),
                sizeof(float) * valid);
    std::memcpy(layers_[l].cross_v.data() + dst, prompt.cross_v[l].data(),
                sizeof(float) * valid);
  }
  ++stats_.admitted;
  SessionMetrics::Get().admitted->Increment();
  return handle;
}

std::vector<int> DecodeSession::Admit(const std::vector<Admission>& group) {
  std::vector<int> handles;
  if (group.empty()) return handles;
  assert(static_cast<int>(group.size()) <= free_slots());
  obs::TraceSpan span("nn", "nn.session_admit");
  if (span.enabled()) {
    span.Arg("group", static_cast<int64_t>(group.size()));
    span.Arg("active", static_cast<int64_t>(active_));
  }
  std::vector<std::vector<int>> inputs;
  inputs.reserve(group.size());
  for (const Admission& adm : group) inputs.push_back(adm.input_ids);
  const std::vector<std::shared_ptr<const EncodedPrompt>> encoded =
      EncodeGroup(inputs);
  handles.reserve(group.size());
  for (size_t g = 0; g < group.size(); ++g) {
    handles.push_back(Install(*encoded[g], group[g].max_steps));
  }
  ++stats_.admit_groups;
  return handles;
}

int DecodeSession::Admit(const std::vector<int>& input_ids, int max_steps) {
  return Admit(std::vector<Admission>{{input_ids, max_steps}})[0];
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
    const size_t phys = static_cast<size_t>(slot.phys);
    scratch.AddRow(slot.cur_token, slot.fed, phys * self_stride,
                   phys * cross_stride, slot.mem_len);
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
      FreePhys(slot.phys);
      slot.phys = -1;
      finished.push_back(handle);
      ++stats_.finished;
    }
  }
  ++stats_.steps;
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
  if (state.phys >= 0) {
    // Mid-decode eviction: the KV row is simply returned to the pool; no
    // other slot references it.
    FreePhys(state.phys);
    state.phys = -1;
    ++stats_.evictions;
  }
  state.in_use = false;
  state.done = false;
  state.out.clear();
  free_handles_.insert(
      std::upper_bound(free_handles_.begin(), free_handles_.end(), slot,
                       std::greater<int>()),
      slot);
  --active_;
}

int DecodeSession::Compact() {
  // Collect live physical rows in ascending order and slide each down to
  // the lowest free index below it — the beam engine's gather-by-index
  // copy (nn/beam.cc), with target < source always, so moves never clobber
  // a row that has not been relocated yet.
  std::vector<std::pair<int, int>> live_phys;  // (phys, handle)
  for (int h = 0; h < max_slots_; ++h) {
    const Slot& slot = slots_[static_cast<size_t>(h)];
    if (slot.in_use && slot.phys >= 0) live_phys.emplace_back(slot.phys, h);
  }
  std::sort(live_phys.begin(), live_phys.end());
  int moves = 0;
  for (size_t i = 0; i < live_phys.size(); ++i) {
    const int target = static_cast<int>(i);
    const auto [phys, handle] = live_phys[i];
    if (phys == target) continue;
    Slot& slot = slots_[static_cast<size_t>(handle)];
    const size_t self_rows =
        static_cast<size_t>(slot.fed) * static_cast<size_t>(d_);
    const size_t cross_rows =
        static_cast<size_t>(slot.mem_len) * static_cast<size_t>(d_);
    const size_t self_src = static_cast<size_t>(phys) *
                            static_cast<size_t>(cap_) *
                            static_cast<size_t>(d_);
    const size_t self_dst = static_cast<size_t>(target) *
                            static_cast<size_t>(cap_) *
                            static_cast<size_t>(d_);
    const size_t cross_src = static_cast<size_t>(phys) *
                             static_cast<size_t>(mem_cap_) *
                             static_cast<size_t>(d_);
    const size_t cross_dst = static_cast<size_t>(target) *
                             static_cast<size_t>(mem_cap_) *
                             static_cast<size_t>(d_);
    for (LayerState& layer : layers_) {
      std::memcpy(layer.self_k.data() + self_dst,
                  layer.self_k.data() + self_src, sizeof(float) * self_rows);
      std::memcpy(layer.self_v.data() + self_dst,
                  layer.self_v.data() + self_src, sizeof(float) * self_rows);
      std::memcpy(layer.cross_k.data() + cross_dst,
                  layer.cross_k.data() + cross_src,
                  sizeof(float) * cross_rows);
      std::memcpy(layer.cross_v.data() + cross_dst,
                  layer.cross_v.data() + cross_src,
                  sizeof(float) * cross_rows);
    }
    slot.phys = target;
    ++moves;
  }
  // Rebuild the free list as everything above the live prefix.
  free_phys_.clear();
  for (int p = max_slots_ - 1; p >= static_cast<int>(live_phys.size()); --p) {
    free_phys_.push_back(p);
  }
  if (moves > 0) {
    stats_.compact_moves += static_cast<uint64_t>(moves);
    SessionMetrics::Get().compact_moves->Add(static_cast<uint64_t>(moves));
  }
  return moves;
}

}  // namespace nn
}  // namespace dtt
