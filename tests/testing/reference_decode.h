#ifndef DTT_TESTS_TESTING_REFERENCE_DECODE_H_
#define DTT_TESTS_TESTING_REFERENCE_DECODE_H_

#include <vector>

#include "nn/transformer.h"

namespace dtt {
namespace testing {

/// Autograd reference for greedy decoding: re-runs Transformer::DecodeLogits
/// over the whole prefix at every step, until <eos> or `max_steps`. Returns
/// the generated ids (without <sos>/<eos>). Production decodes greedily on
/// nn::DecodeSession (GenerateBatch and the serve layer's continuous
/// batcher); both must reproduce this function bit-for-bit.
std::vector<int> GreedyDecode(const nn::Transformer& model,
                              const std::vector<int>& input_ids,
                              int max_steps);

/// Autograd reference for beam search (beam = `beam_size`); returns the best
/// hypothesis. Rebuilds the graph over every hypothesis's whole prefix at
/// each step. Transformer::BeamDecodeBatch must reproduce it bit-for-bit
/// (nn_beam_test).
std::vector<int> BeamDecode(const nn::Transformer& model,
                            const std::vector<int>& input_ids, int max_steps,
                            int beam_size);

}  // namespace testing
}  // namespace dtt

#endif  // DTT_TESTS_TESTING_REFERENCE_DECODE_H_
