#ifndef DTT_MODELS_ALIGNMENT_INTERNAL_H_
#define DTT_MODELS_ALIGNMENT_INTERNAL_H_

// Candidate generation shared by the program searches in models/alignment.cc
// and by the copy-based reference searches the parity test keeps in tests/.
// Both sides must draw the same candidates in the same order for their
// program lists to be comparable bit for bit.

#include <string_view>
#include <vector>

#include "models/alignment.h"

namespace dtt {
namespace induction {
namespace internal {

/// One candidate atom anchored at a target position.
struct Cand {
  Atom atom;
  size_t len;    // target characters produced
  double score;  // contribution to the program score
};

/// Candidate atoms per position of `target` (token, char-range and literal
/// atoms over cache.input()), strongest first, at most 72 per position.
std::vector<std::vector<Cand>> PositionCandidates(const TokenCache& cache,
                                                  std::string_view target,
                                                  const InductionConfig& cfg);

/// Merges adjacent literal atoms so equivalent programs share one key.
void CanonicalizeLiterals(AtomProgram* program);

}  // namespace internal
}  // namespace induction
}  // namespace dtt

#endif  // DTT_MODELS_ALIGNMENT_INTERNAL_H_
