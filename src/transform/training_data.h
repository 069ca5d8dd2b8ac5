#ifndef DTT_TRANSFORM_TRAINING_DATA_H_
#define DTT_TRANSFORM_TRAINING_DATA_H_

#include <string>
#include <vector>

#include "transform/program.h"
#include "transform/sampler.h"
#include "util/rng.h"

namespace dtt {

/// One (source, target) pair produced by a transformation.
struct ExamplePair {
  std::string source;
  std::string target;

  bool operator==(const ExamplePair& other) const {
    return source == other.source && target == other.target;
  }
};

/// A grouping of examples that share one underlying transformation (§5.1.2:
/// "For each transformation tr in T, a set of examples is generated").
struct TransformationGroup {
  TransformProgram program;
  std::vector<ExamplePair> pairs;
};

/// A serialized training instance: context = k examples + a masked source,
/// label = the masked target. Serialization itself (special tokens) happens in
/// text/serializer.h; here we keep the structured form.
struct TrainingInstance {
  std::vector<ExamplePair> context;  // k complete examples
  std::string input_source;          // the row whose target is masked
  std::string label;                 // the masked target
};

/// Options mirroring §5.1.2 / §5.3: 2000 groupings x 10 pairs, lengths 8..35
/// (short) or 5..60 (long), example sets of size 3 (2 context + 1 masked).
struct TrainingDataOptions {
  int num_groups = 2000;
  int pairs_per_group = 10;
  int examples_per_set = 3;  // 2 context examples + 1 masked target
  SourceTextOptions source;
  ProgramOptions program;
  /// Instances drawn per group (subsets of size examples_per_set).
  int sets_per_group = 4;
};

/// Deterministic synthetic training-set generator for the DTT model.
class TrainingDataGenerator {
 public:
  explicit TrainingDataGenerator(TrainingDataOptions options)
      : options_(std::move(options)) {}

  /// Generates `num_groups` transformation groupings.
  std::vector<TransformationGroup> GenerateGroups(Rng* rng) const;

  /// Flattens groups into masked-prediction instances: for each group, draws
  /// `sets_per_group` subsets of size `examples_per_set`; the last pair of a
  /// subset is masked.
  std::vector<TrainingInstance> MakeInstances(
      const std::vector<TransformationGroup>& groups, Rng* rng) const;

  /// Convenience: GenerateGroups + MakeInstances + train/validation split
  /// (80/20 as in §5.1.2).
  struct SplitData {
    std::vector<TrainingInstance> train;
    std::vector<TrainingInstance> validation;
  };
  SplitData Generate(Rng* rng) const;

 private:
  TrainingDataOptions options_;
};

}  // namespace dtt

#endif  // DTT_TRANSFORM_TRAINING_DATA_H_
