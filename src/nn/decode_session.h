#ifndef DTT_NN_DECODE_SESSION_H_
#define DTT_NN_DECODE_SESSION_H_

#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace dtt {
namespace nn {

class Transformer;
namespace internal {
struct DecodeScratch;
}  // namespace internal

/// Session construction knobs (see Transformer::NewDecodeSession).
struct DecodeSessionOptions {
  /// Concurrent sequences the session can hold (KV-cache slots).
  int max_slots = 8;
  /// Hard per-sequence decode-step cap; an admission's own budget may lower
  /// it but never raise it. Sizes the per-slot self-attention cache.
  int max_steps = 64;
};

/// One prompt after the encoder: its memory rows projected through every
/// decoder layer's cross-attention K and V, ready to copy into a session
/// slot. Immutable once DecodeSession::Encode returns it.
struct EncodedPrompt {
  int len = 0;                  // encoder memory rows (the prompt's length)
  std::vector<Tensor> cross_k;  // per decoder layer, [len, D]
  std::vector<Tensor> cross_v;  // per decoder layer, [len, D]
};

/// The greedy decode engine: a persistent slotted KV-cache batch that
/// sequences enter and leave mid-decode. It owns the incremental state —
/// per-layer self-attention caches with one slot per resident sequence, the
/// once-projected cross-attention K/V of each sequence's encoder memory —
/// and exposes the decode step loop. Transformer::GenerateBatch is a session
/// sized to its batch, stepped until empty; the serve layer's continuous
/// batcher keeps one long-lived session per backend, and every greedy
/// NeuralSeq2SeqModel decode runs on one of the two.
///
///   * Encode() runs one prompt through the unpadded EncodeRows pass and
///     projects its cross-attention K/V; Install() copies an encoded prompt
///     into a free slot with its own decode-step budget. Encode then Install
///     is the only way into a slot;
///   * Step() advances every live sequence one token through one
///     Transformer::DecodeStepRows call (the decoder step the beam engine
///     shares), whatever mix of admission times and prefix lengths they
///     have, and reports the sequences that finished (EOS, budget, or the
///     model length cap), each exactly once;
///   * Release() evicts a sequence — finished or mid-decode — freeing its
///     slot for the next admission.
///
/// A slot handle is the sequence's KV-cache row: each row passes its own
/// self/cross cache base to DecodeStepRows, so live rows need not be
/// contiguous and a released row is simply reused by a later Install.
///
/// Determinism contract: every kernel this session runs is row-wise (the
/// shared nn/infer_internal.h kernels), so a sequence's tokens depend only
/// on its own prompt and budget — never on which other sequences share the
/// batch or when they were admitted. For any admission/eviction schedule the
/// per-sequence outputs are bit-identical to the autograd reference
/// testing::GreedyDecode (enforced by nn_decode_session_test).
///
/// Threading: Encode() is const and touches only the model's read-only
/// weights, so any number of threads may call it concurrently with each
/// other and with the session's owner (the serve layer encodes on its worker
/// pool). Everything else is not thread-safe: one session belongs to one
/// decode thread (the serve layer gives each continuous backend its own).
class DecodeSession {
 public:
  ~DecodeSession();
  DecodeSession(const DecodeSession&) = delete;
  DecodeSession& operator=(const DecodeSession&) = delete;

  /// Encodes one prompt and projects its cross-attention K/V for every
  /// decoder layer. Thread-safe (see the class comment); the result is
  /// bit-identical however prompts are grouped or scheduled. Requires the
  /// prompt within the model's input length limit.
  std::shared_ptr<const EncodedPrompt> Encode(
      const std::vector<int>& input_ids) const;

  /// Installs an encoded prompt into a free slot with a decode-step budget
  /// (0 = the session's max_steps) and returns its handle, the lowest free
  /// slot. Requires free_slots() > 0.
  int Install(const EncodedPrompt& prompt, int max_steps = 0);

  /// Advances every live sequence one token. Returns the handles that
  /// finished on this step — each installed sequence is reported exactly
  /// once, so a session whose sequences have all finished steps to an empty
  /// result. Their outputs stay readable until Release.
  std::vector<int> Step();

  /// True once `slot` has finished decoding (EOS, budget, or length cap).
  bool done(int slot) const;

  /// Generated token ids of `slot` so far (without <sos>/<eos>).
  const std::vector<int>& output(int slot) const;

  /// Frees `slot`. Valid on finished and live sequences alike; evicting a
  /// live sequence abandons its decode without touching any other slot.
  void Release(int slot);

  int max_slots() const { return max_slots_; }
  int active_slots() const { return active_; }
  int free_slots() const { return max_slots_ - active_; }

 private:
  friend class Transformer;
  DecodeSession(const Transformer* model, DecodeSessionOptions options);

  struct Slot {
    bool in_use = false;
    bool done = false;
    int mem_len = 0;   // valid encoder-memory rows
    int fed = 0;       // tokens fed so far == next decoder position
    int budget = 0;    // decode-step cap of this sequence
    int cur_token = 0; // token to feed on the next step
    std::vector<int> out;
  };

  // One decoder layer's resident caches, all slot-strided.
  struct LayerState {
    Tensor self_k;   // [slots, cap, D]
    Tensor self_v;   // [slots, cap, D]
    Tensor cross_k;  // [slots, mem_cap, D]
    Tensor cross_v;  // [slots, mem_cap, D]
  };

  /// Encode() for a group: one EncodeRows pass over all prompts
  /// (GenerateBatch's shared encoder pass).
  std::vector<std::shared_ptr<const EncodedPrompt>> EncodeGroup(
      const std::vector<std::vector<int>>& inputs) const;

  const Transformer* model_;
  DecodeSessionOptions options_;
  int max_slots_ = 0;
  int cap_ = 0;      // self-cache positions per slot
  int mem_cap_ = 0;  // cross-cache rows per slot (the model's max_len)
  int d_ = 0;
  int active_ = 0;
  std::vector<LayerState> layers_;
  std::vector<Slot> slots_;        // indexed by handle == KV row
  std::vector<int> free_handles_;  // descending, so the lowest pops last

  // Step inputs and buffers, reused across calls.
  std::vector<int> live_;
  std::unique_ptr<internal::DecodeScratch> scratch_;
};

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_DECODE_SESSION_H_
