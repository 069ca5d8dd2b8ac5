#include "baselines/ditto.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/edit_distance.h"
#include "util/string_util.h"

namespace dtt {

std::array<double, kDittoFeatures> DittoPairFeatures(const std::string& a,
                                                     const std::string& b) {
  std::string la = ToLower(a);
  std::string lb = ToLower(b);
  std::array<double, kDittoFeatures> f{};
  f[0] = QGramJaccard(la, lb, 2);
  f[1] = QGramJaccard(la, lb, 3);
  f[2] = TokenJaccard(la, lb);
  f[3] = EditSimilarity(la, lb);
  double maxlen = static_cast<double>(std::max<size_t>(
      1, std::max(la.size(), lb.size())));
  f[4] = static_cast<double>(std::min(la.size(), lb.size())) / maxlen;
  f[5] = static_cast<double>(CommonPrefixLen(la, lb)) / maxlen;
  f[6] = static_cast<double>(CommonSuffixLen(la, lb)) / maxlen;
  f[7] = static_cast<double>(LongestCommonSubstring(la, lb).len) / maxlen;
  // Order-sensitive digit overlap: longest common subsequence of the digit
  // streams (a transformer encoder is order-sensitive, so a reversed or
  // shuffled digit string must not look like a match).
  std::string da, db;
  for (char c : la) {
    if (c >= '0' && c <= '9') da.push_back(c);
  }
  for (char c : lb) {
    if (c >= '0' && c <= '9') db.push_back(c);
  }
  size_t digit_max = std::max(da.size(), db.size());
  f[8] = digit_max == 0
             ? 1.0
             : static_cast<double>(LongestCommonSubsequenceLen(da, db)) /
                   static_cast<double>(digit_max);
  // Containment.
  f[9] = (!lb.empty() && la.find(lb) != std::string::npos) ? 1.0 : 0.0;
  f[10] = 1.0;  // bias
  return f;
}

namespace {

// A fine-tuned language-model matcher degrades on content far from its
// pre-training distribution (random character soup): its pair
// representations blur. Simulated by shrinking the feature vector toward an
// uninformative mid-point plus a deterministic per-pair perturbation
// (docs/architecture.md, "Substitutions"; reproduces Ditto's precision
// collapse on Syn, Table 1).
std::array<double, kDittoFeatures> MaybeBlurFeatures(
    std::array<double, kDittoFeatures> f, const std::string& a,
    const std::string& b) {
  static constexpr std::string_view kSeps = " \t,;:/|_-.()[]{}@";
  double naturalness =
      ContentNaturalness({a, b}, kSeps, /*digits_are_natural=*/false);
  if (naturalness >= 0.5) return f;
  Rng rng(Rng::HashString(a) * 31 + Rng::HashString(b));
  for (size_t i = 0; i + 1 < kDittoFeatures; ++i) {  // keep the bias term
    double noise = (rng.NextDouble() - 0.5) * 0.5;
    f[i] = 0.35 * f[i] + 0.3 + noise;
  }
  return f;
}

}  // namespace

DittoMatcher::DittoMatcher(DittoOptions options)
    : options_(std::move(options)) {}

namespace {
double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

void DittoMatcher::Train(const std::vector<ExamplePair>& examples,
                         const std::vector<std::string>& target_values,
                         Rng* rng) {
  struct Sample {
    std::array<double, kDittoFeatures> f;
    double y;
  };
  std::vector<Sample> samples;
  for (const auto& ex : examples) {
    samples.push_back(
        {MaybeBlurFeatures(DittoPairFeatures(ex.source, ex.target),
                           ex.source, ex.target),
         1.0});
    for (int n = 0; n < options_.negatives_per_positive; ++n) {
      if (target_values.empty()) break;
      const std::string& wrong =
          target_values[rng->NextBounded(target_values.size())];
      if (wrong == ex.target) continue;
      samples.push_back(
          {MaybeBlurFeatures(DittoPairFeatures(ex.source, wrong), ex.source,
                             wrong),
           0.0});
    }
  }
  if (samples.empty()) return;
  w_.fill(0.0);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng->Shuffle(&samples);
    for (const auto& s : samples) {
      double z = 0.0;
      for (size_t i = 0; i < kDittoFeatures; ++i) z += w_[i] * s.f[i];
      double err = Sigmoid(z) - s.y;
      for (size_t i = 0; i < kDittoFeatures; ++i) {
        w_[i] -= options_.lr * (err * s.f[i] + options_.l2 * w_[i]);
      }
    }
  }
}

double DittoMatcher::Score(const std::string& source,
                           const std::string& target) const {
  auto f = MaybeBlurFeatures(DittoPairFeatures(source, target), source, target);
  double z = 0.0;
  for (size_t i = 0; i < kDittoFeatures; ++i) z += w_[i] * f[i];
  if (options_.logit_noise > 0.0) {
    Rng rng(options_.seed ^
            (Rng::HashString(source) * 131 + Rng::HashString(target)));
    z += rng.NextGaussian() * options_.logit_noise;
  }
  return Sigmoid(z);
}

JoinResult DittoMatcher::Join(
    const std::vector<std::string>& sources,
    const std::vector<std::string>& target_values) const {
  JoinResult result;
  result.matches.resize(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    double best = -1.0;
    int best_j = -1;
    for (size_t j = 0; j < target_values.size(); ++j) {
      double p = Score(sources[i], target_values[j]);
      // Entity matchers classify every pair independently: all pairs above
      // the threshold are emitted (the source of Ditto's false positives
      // when target rows resemble each other, §5.5).
      if (p >= options_.accept_threshold) {
        result.all_pairs.emplace_back(static_cast<int>(i),
                                      static_cast<int>(j));
      }
      if (p > best) {
        best = p;
        best_j = static_cast<int>(j);
      }
    }
    if (best_j >= 0 && best >= options_.accept_threshold) {
      result.matches[i].target_index = best_j;
      result.matches[i].edit_distance =
          EditDistance(sources[i], target_values[static_cast<size_t>(best_j)]);
    }
  }
  return result;
}

}  // namespace dtt
