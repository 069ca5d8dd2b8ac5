#ifndef DTT_MODELS_ALIGNMENT_H_
#define DTT_MODELS_ALIGNMENT_H_

#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "transform/training_data.h"

namespace dtt {
namespace induction {

/// Character-case operation attached to copy atoms.
enum class CaseOp { kNone, kLower, kUpper };

std::string ApplyCase(CaseOp op, std::string_view s);

/// A position descriptor resolvable against a string/token of length n:
/// either `index` from the start or `index` back from the end. Descriptors
/// are what make a program *positional* (content-independent), so the same
/// program generalizes from the context examples to the input row.
struct PosRef {
  int index = 0;
  bool from_end = false;

  /// Resolved offset in [0, n], or nullopt when out of range.
  std::optional<size_t> Resolve(size_t n) const;

  /// Resolution with the transformation-DSL's clamping semantics: from-start
  /// indices clamp to n, from-end indices clamp to 0. Atoms use this so a
  /// program generalizes to shorter inputs the way substr()/split() do.
  size_t ResolveClamped(size_t n) const;
};

/// Per-input token decompositions, lazily computed per separator *family*:
/// family 0 splits on every configured separator at once; family c splits on
/// the single character c (matching the semantics of a split(c, k) unit).
class TokenCache {
 public:
  TokenCache(std::string_view input, std::string_view separators);

  /// Tokens of a family (0 = all separators). The reference stays valid for
  /// the cache's lifetime, across later first-time calls for other families.
  const std::vector<std::string>& Tokens(char family) const;

  /// Separator characters that actually occur in the input.
  const std::string& present_separators() const { return present_; }

  std::string_view input() const { return input_; }

 private:
  std::string input_;
  std::string separators_;
  std::string present_;
  // A deque so that adding a family never moves the ones already handed out.
  mutable std::deque<std::pair<char, std::vector<std::string>>> families_;
};

/// One output segment of a synthesized program.
struct Atom {
  enum class Kind {
    kLiteral,        // constant text
    kCopyRange,      // source[begin:end] (character coordinates)
    kCopyToken,      // k-th token of the source
    kCopyTokenSlice  // [begin:end) slice of the k-th token
  };

  Kind kind = Kind::kLiteral;
  std::string literal;
  PosRef token;       // for token-based atoms (index may be from_end)
  PosRef begin, end;  // char range (kCopyRange) or slice bounds within token
  CaseOp case_op = CaseOp::kNone;
  /// Separator family of token-based atoms (0 = all separators at once,
  /// otherwise the single separator character the split uses).
  char family = 0;

  /// Output of this atom on the cached input. Descriptors clamp like the
  /// transformation DSL's substr()/split(): an out-of-range token or span
  /// yields the empty string, so a valid atom never returns nullopt.
  std::optional<std::string> Apply(const TokenCache& cache) const;

  /// Structural key; equal keys <=> same transformation behaviour.
  std::string Key() const;
};

/// A full synthesized program: the concatenation of its atoms' outputs.
struct AtomProgram {
  std::vector<Atom> atoms;
  double score = 0.0;

  /// Concatenated atom outputs on the input. Atoms clamp (see Atom::Apply),
  /// so every program applies to every input and never returns nullopt;
  /// a program whose descriptors all fall outside the input yields "".
  std::optional<std::string> Apply(std::string_view input,
                                   std::string_view separators) const;
  std::optional<std::string> Apply(const TokenCache& cache) const;
  std::string Key() const;
};

/// Synthesis configuration; the power switches are what differentiate the
/// simulated fine-tuned byte model from the simulated general-purpose LLM
/// (see docs/architecture.md, "Substitutions").
struct InductionConfig {
  bool allow_char_range = true;   // absolute substring atoms
  bool allow_token_slice = true;  // token prefixes/suffixes (initials)
  bool allow_tokens = true;       // whole-token copies
  int max_literal_len = 4;
  int max_atoms = 10;
  /// Minimum span of a raw character-range copy. A byte-level model aligns
  /// at 2 characters; CST-style systems need longer "textual evidence"
  /// anchors (their search prunes on long common substrings).
  int min_char_range_len = 2;
  /// Minimum span of a token slice that is NOT a prefix (prefix slices model
  /// initials/truncation, which every system in this space supports).
  int min_nonprefix_slice_len = 1;
  int beam_width = 64;            // partial programs kept per target position
  int max_programs = 200;         // programs returned per example
  std::string separators = " \t,;:/|_-.()[]{}@\"'";
};

/// Splits into tokens using cfg.separators (empty tokens dropped).
std::vector<std::string> TokenizeCell(std::string_view s,
                                      std::string_view separators);

/// All programs (up to cfg.max_programs, best score first) that map
/// ex.source to ex.target exactly.
std::vector<AtomProgram> SynthesizePrograms(const ExamplePair& ex,
                                            const InductionConfig& cfg);

/// Programs valid for every example: a joint search over the first two
/// examples, verified on the rest; result sorted by score (descending).
std::vector<AtomProgram> SynthesizeCommonPrograms(
    const std::vector<ExamplePair>& examples, const InductionConfig& cfg);

/// The output of one synthesized program on some input, with its score.
struct ProgramOutput {
  std::string output;
  double score = 0.0;
};

/// The output on `source` of the first program in SynthesizePrograms(ex, cfg)
/// whose output there is non-empty, with that program's score; nullopt when
/// no listed program has one (including when it lies beyond
/// cfg.max_programs). Output and score equal those of scanning the list, bit
/// for bit, but the walk stops at that program instead of materializing the
/// list. `source` must tokenize with cfg.separators.
std::optional<ProgramOutput> FirstProgramOutput(const ExamplePair& ex,
                                                const TokenCache& source,
                                                const InductionConfig& cfg);

/// FirstProgramOutput over SynthesizeCommonPrograms(examples, cfg): the
/// first common program with a non-empty output on `source`.
std::optional<ProgramOutput> FirstCommonProgramOutput(
    const std::vector<ExamplePair>& examples, const TokenCache& source,
    const InductionConfig& cfg);

/// Whole-string pattern detectors that cover transformations outside the
/// atom language (the paper's §5.5 observation that DTT handles reversal and
/// character replacement although they were never in its training units).
struct GlobalPattern {
  enum class Kind { kIdentity, kLower, kUpper, kReverse, kCharReplace };
  Kind kind = Kind::kIdentity;
  CaseOp reverse_case = CaseOp::kNone;          // for kReverse
  std::vector<std::pair<char, char>> char_map;  // for kCharReplace

  std::string Apply(std::string_view input) const;
};

/// Detects a global pattern consistent with ALL examples; the order of
/// checks is identity, case, replace, reverse.
std::optional<GlobalPattern> DetectGlobalPattern(
    const std::vector<ExamplePair>& examples, bool detect_replace,
    bool detect_reverse);

}  // namespace induction
}  // namespace dtt

#endif  // DTT_MODELS_ALIGNMENT_H_
