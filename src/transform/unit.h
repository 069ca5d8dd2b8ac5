#ifndef DTT_TRANSFORM_UNIT_H_
#define DTT_TRANSFORM_UNIT_H_

#include <memory>
#include <string>
#include <string_view>

namespace dtt {

/// Kinds of basic transformation units (§5.1.2 of the paper; same vocabulary
/// as Auto-join and CST). `kReverse` and `kReplaceChar` are *not* part of the
/// training vocabulary — they exist so the evaluation datasets Syn-RV and
/// Syn-RP can be generated with operations the model never saw in training.
enum class UnitKind {
  kSubstring,
  kSplit,
  kLowercase,
  kUppercase,
  kLiteral,
  kReverse,      // eval-only (Syn-RV)
  kReplaceChar,  // eval-only (Syn-RP)
};

const char* UnitKindName(UnitKind kind);

/// A single string transformation unit. Units are pure functions
/// string -> string with total semantics: parameters out of range yield the
/// empty string rather than an error, which matches the forgiving behaviour
/// of program-by-example systems and keeps sampled programs total.
class TransformUnit {
 public:
  virtual ~TransformUnit() = default;

  virtual UnitKind kind() const = 0;

  /// Applies the unit to `input`.
  virtual std::string Apply(std::string_view input) const = 0;

  /// Debug/round-trip representation, e.g. "substr(2,5)".
  virtual std::string ToString() const = 0;

  virtual std::unique_ptr<TransformUnit> Clone() const = 0;
};

/// substr(start, end): byte range [start, end) of the input. Negative indices
/// count from the end of the string (Python-style), so substr(-3, -1) selects
/// the two characters before the last.
class SubstringUnit : public TransformUnit {
 public:
  SubstringUnit(int start, int end) : start_(start), end_(end) {}

  UnitKind kind() const override { return UnitKind::kSubstring; }
  std::string Apply(std::string_view input) const override;
  std::string ToString() const override;
  std::unique_ptr<TransformUnit> Clone() const override {
    return std::make_unique<SubstringUnit>(start_, end_);
  }

 private:
  int start_;
  int end_;
};

/// split(sep, index): splits on `sep` (dropping empty parts) and selects the
/// index-th part; negative index counts from the last part. Out of range ->
/// empty string.
class SplitUnit : public TransformUnit {
 public:
  SplitUnit(char sep, int index) : sep_(sep), index_(index) {}

  UnitKind kind() const override { return UnitKind::kSplit; }
  std::string Apply(std::string_view input) const override;
  std::string ToString() const override;
  std::unique_ptr<TransformUnit> Clone() const override {
    return std::make_unique<SplitUnit>(sep_, index_);
  }

 private:
  char sep_;
  int index_;
};

/// lower(): ASCII lower-case of the input.
class LowercaseUnit : public TransformUnit {
 public:
  UnitKind kind() const override { return UnitKind::kLowercase; }
  std::string Apply(std::string_view input) const override;
  std::string ToString() const override { return "lower()"; }
  std::unique_ptr<TransformUnit> Clone() const override {
    return std::make_unique<LowercaseUnit>();
  }
};

/// upper(): ASCII upper-case of the input.
class UppercaseUnit : public TransformUnit {
 public:
  UnitKind kind() const override { return UnitKind::kUppercase; }
  std::string Apply(std::string_view input) const override;
  std::string ToString() const override { return "upper()"; }
  std::unique_ptr<TransformUnit> Clone() const override {
    return std::make_unique<UppercaseUnit>();
  }
};

/// literal(text): ignores the input and emits a constant.
class LiteralUnit : public TransformUnit {
 public:
  explicit LiteralUnit(std::string text) : text_(std::move(text)) {}

  UnitKind kind() const override { return UnitKind::kLiteral; }
  std::string Apply(std::string_view input) const override;
  std::string ToString() const override;
  std::unique_ptr<TransformUnit> Clone() const override {
    return std::make_unique<LiteralUnit>(text_);
  }

 private:
  std::string text_;
};

/// reverse(): reverses the input bytes. Evaluation-only (Syn-RV, §5.2).
class ReverseUnit : public TransformUnit {
 public:
  UnitKind kind() const override { return UnitKind::kReverse; }
  std::string Apply(std::string_view input) const override;
  std::string ToString() const override { return "reverse()"; }
  std::unique_ptr<TransformUnit> Clone() const override {
    return std::make_unique<ReverseUnit>();
  }
};

/// replace(from, to): replaces every occurrence of one character with another.
/// Evaluation-only (Syn-RP, §5.2).
class ReplaceCharUnit : public TransformUnit {
 public:
  ReplaceCharUnit(char from, char to) : from_(from), to_(to) {}

  UnitKind kind() const override { return UnitKind::kReplaceChar; }
  std::string Apply(std::string_view input) const override;
  std::string ToString() const override;
  std::unique_ptr<TransformUnit> Clone() const override {
    return std::make_unique<ReplaceCharUnit>(from_, to_);
  }

 private:
  char from_;
  char to_;
};

}  // namespace dtt

#endif  // DTT_TRANSFORM_UNIT_H_
