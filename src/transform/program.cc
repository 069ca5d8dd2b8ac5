#include "transform/program.h"

namespace dtt {

TransformStep& TransformStep::operator=(const TransformStep& other) {
  if (this == &other) return *this;
  units_.clear();
  units_.reserve(other.units_.size());
  for (const auto& u : other.units_) units_.push_back(u->Clone());
  return *this;
}

std::string TransformStep::Apply(std::string_view input) const {
  std::string current(input);
  for (const auto& unit : units_) {
    current = unit->Apply(current);
  }
  return current;
}

std::string TransformStep::ToString() const {
  std::string out;
  for (size_t i = 0; i < units_.size(); ++i) {
    if (i) out += "|";
    out += units_[i]->ToString();
  }
  return out;
}

std::string TransformProgram::Apply(std::string_view input) const {
  std::string out;
  for (const auto& step : steps_) {
    out += step.Apply(input);
  }
  return out;
}

bool TransformProgram::UsesKind(UnitKind kind) const {
  for (const auto& step : steps_) {
    for (size_t i = 0; i < step.depth(); ++i) {
      if (step.unit(i).kind() == kind) return true;
    }
  }
  return false;
}

}  // namespace dtt
