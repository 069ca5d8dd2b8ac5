#ifndef DTT_MODELS_NOISY_MODEL_H_
#define DTT_MODELS_NOISY_MODEL_H_

#include <string>

#include "util/rng.h"

namespace dtt {

/// Replaces each character with a random printable one with probability
/// `err_rate` (and deletes it with probability err_rate/8). This is the
/// generation-noise model shared by the simulated LLM backends: an
/// auto-regressive decoder does not emit exact strings, and the DTT
/// aggregator must absorb the resulting inconsistency.
std::string CorruptChars(const std::string& s, double err_rate, Rng* rng);

}  // namespace dtt

#endif  // DTT_MODELS_NOISY_MODEL_H_
