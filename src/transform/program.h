#ifndef DTT_TRANSFORM_PROGRAM_H_
#define DTT_TRANSFORM_PROGRAM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "transform/unit.h"

namespace dtt {

/// A *step* is a stack of 1..3 units applied in sequence: the first unit
/// consumes the original row value, each later unit consumes the previous
/// unit's output (§5.1.2 "stacking"). e.g. split('/',1) |> substr(0,3).
class TransformStep {
 public:
  TransformStep() = default;
  explicit TransformStep(std::vector<std::unique_ptr<TransformUnit>> units)
      : units_(std::move(units)) {}

  TransformStep(const TransformStep& other) { *this = other; }
  TransformStep& operator=(const TransformStep& other);
  TransformStep(TransformStep&&) = default;
  TransformStep& operator=(TransformStep&&) = default;

  void Append(std::unique_ptr<TransformUnit> unit) {
    units_.push_back(std::move(unit));
  }

  std::string Apply(std::string_view input) const;

  size_t depth() const { return units_.size(); }
  const TransformUnit& unit(size_t i) const { return *units_[i]; }

  /// "split('/',1)|substr(0,3)".
  std::string ToString() const;

 private:
  std::vector<std::unique_ptr<TransformUnit>> units_;
};

/// A full transformation: a sequence of steps whose outputs are concatenated
/// ("the output of a transformation is the concatenation of the outputs of
/// its units", §5.1.2).
class TransformProgram {
 public:
  TransformProgram() = default;

  void AppendStep(TransformStep step) { steps_.push_back(std::move(step)); }

  /// Applies all steps to `input` and concatenates the pieces.
  std::string Apply(std::string_view input) const;

  size_t num_steps() const { return steps_.size(); }
  const TransformStep& step(size_t i) const { return steps_[i]; }

  /// True if any step stacks a unit of this kind.
  bool UsesKind(UnitKind kind) const;

 private:
  std::vector<TransformStep> steps_;
};

}  // namespace dtt

#endif  // DTT_TRANSFORM_PROGRAM_H_
