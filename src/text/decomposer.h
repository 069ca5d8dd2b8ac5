#ifndef DTT_TEXT_DECOMPOSER_H_
#define DTT_TEXT_DECOMPOSER_H_

#include <vector>

#include "text/serializer.h"
#include "util/rng.h"

namespace dtt {

/// Decomposition options (§4.1, §5.3): each input row is paired with
/// `num_trials` different contexts of `context_size` examples each.
struct DecomposerOptions {
  int context_size = 2;  // k: examples per sub-problem (paper default 2)
  int num_trials = 5;    // n: sub-problems per input row (paper default 5)
};

/// Splits the table-transformation problem into per-row sub-problems small
/// enough for a length-limited model, choosing example subsets as contexts.
class Decomposer {
 public:
  explicit Decomposer(DecomposerOptions options = {}) : options_(options) {}

  /// Contexts for a single input row: if the number of distinct
  /// context_size-subsets of `examples` is <= num_trials, enumerates all of
  /// them (the full E_k of Eq. 2); otherwise draws num_trials distinct random
  /// subsets.
  std::vector<std::vector<ExamplePair>> MakeContexts(
      const std::vector<ExamplePair>& examples, Rng* rng) const;

  /// Convenience: builds the prompts for one source row.
  std::vector<Prompt> MakePrompts(const std::string& source,
                                  const std::vector<ExamplePair>& examples,
                                  Rng* rng) const;

 private:
  DecomposerOptions options_;
};

}  // namespace dtt

#endif  // DTT_TEXT_DECOMPOSER_H_
