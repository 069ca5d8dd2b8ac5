#ifndef DTT_TESTS_TESTING_REFERENCE_SYNTHESIS_H_
#define DTT_TESTS_TESTING_REFERENCE_SYNTHESIS_H_

#include <vector>

#include "models/alignment.h"

namespace dtt {
namespace testing {

/// Copy-based reference for induction::SynthesizePrograms: every partial
/// program owns its atom vector and every extension copies it. Production
/// searches an arena of backpointer nodes instead; the two must return the
/// same programs, in the same order, with bit-identical scores.
std::vector<induction::AtomProgram> ReferenceSynthesizePrograms(
    const ExamplePair& ex, const induction::InductionConfig& cfg);

/// Copy-based reference for induction::SynthesizeCommonPrograms (joint DP
/// over the first two examples, then verification on the rest).
std::vector<induction::AtomProgram> ReferenceSynthesizeCommonPrograms(
    const std::vector<ExamplePair>& examples,
    const induction::InductionConfig& cfg);

}  // namespace testing
}  // namespace dtt

#endif  // DTT_TESTS_TESTING_REFERENCE_SYNTHESIS_H_
