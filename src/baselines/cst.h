#ifndef DTT_BASELINES_CST_H_
#define DTT_BASELINES_CST_H_

#include <vector>

#include "core/joiner.h"
#include "models/alignment.h"
#include "transform/training_data.h"

namespace dtt {

/// Options of the Common String-based Transformer baseline (Nobari et
/// al. [31]).
struct CstOptions {
  /// Program synthesis configuration. CST's search space is exactly the
  /// substring/split/case/literal atom language (no reverse, no replace —
  /// those detectors are DTT-model behaviours, not part of CST).
  induction::InductionConfig induction;
  /// Size of the final coverage-ranked transformation set.
  int max_transformations = 5;
  /// Candidate programs mined per example pair.
  int candidates_per_example = 60;
  /// Maximum units per transformation. CST/Auto-join bound the length of a
  /// transformation because their search is exponential in it; 6 units is a
  /// realistic budget and is what keeps per-character programs (which could
  /// otherwise fake e.g. short reversals) out of CST's space.
  int max_units = 6;
  /// When true (default, matches the numbers reported for CST in the paper's
  /// Table 1) every ranked transformation is probed against the target
  /// column and any hit counts. When false, the row is decided by the first
  /// transformation that produces output, blindly — the strictly faithful
  /// reading of "the problem of selecting a transformation ... is left
  /// unanswered" (§1); kept as an ablation knob.
  bool probe_all_transformations = true;
};

/// CST: derives candidate textual transformations from each example pair
/// independently (common substrings between source and target are the
/// "textual evidence"), ranks them by coverage over all examples, keeps a
/// greedy cover, and joins by applying the ranked set and looking for exact
/// matches in the target column. Strengths and failure modes follow the
/// paper: exhaustive within its unit language (perfect on Syn-ST), unable to
/// express reversal (0 on Syn-RV), and slowing down polynomially with row
/// length and quadratically with example count.
class CstJoiner {
 public:
  explicit CstJoiner(CstOptions options = {});

  /// The ranked transformation set (exposed for inspection/tests).
  std::vector<induction::AtomProgram> Learn(
      const std::vector<ExamplePair>& examples) const;

  /// End-to-end join: learns from `examples`, transforms `sources`, matches
  /// exactly against `target_values`.
  JoinResult Join(const std::vector<std::string>& sources,
                  const std::vector<ExamplePair>& examples,
                  const std::vector<std::string>& target_values) const;

 private:
  CstOptions options_;
};

}  // namespace dtt

#endif  // DTT_BASELINES_CST_H_
