#ifndef DTT_UTIL_STRING_UTIL_H_
#define DTT_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace dtt {

/// ASCII-only lower-casing (table cells in our benchmarks are ASCII; byte-level
/// handling elsewhere keeps multi-byte UTF-8 sequences untouched).
std::string ToLower(std::string_view s);

/// ASCII-only upper-casing.
std::string ToUpper(std::string_view s);

/// Reverses the bytes of `s`.
std::string Reverse(std::string_view s);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any character in `seps`; drops empty fields. This is the
/// tokenization used by transformation units and the induction engine.
std::vector<std::string> SplitAny(std::string_view s, std::string_view seps);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string Strip(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Length of the longest common prefix / suffix of two strings.
size_t CommonPrefixLen(std::string_view a, std::string_view b);
size_t CommonSuffixLen(std::string_view a, std::string_view b);

/// Longest common substring of `a` and `b`; returns (pos_a, pos_b, len).
/// Deterministic: on ties prefers the smallest pos_a, then smallest pos_b.
struct CommonSubstring {
  size_t pos_a = 0;
  size_t pos_b = 0;
  size_t len = 0;
};
CommonSubstring LongestCommonSubstring(std::string_view a, std::string_view b);

/// Case-insensitive variant; positions refer to the original strings.
CommonSubstring LongestCommonSubstringNoCase(std::string_view a,
                                             std::string_view b);

/// Multiset of character q-grams of `s` (q >= 1); pads logically by emitting
/// only full-width grams. Used by similarity-based baselines.
std::vector<std::string> QGrams(std::string_view s, size_t q);

/// Jaccard similarity of the q-gram *sets* of two strings; 1.0 if both empty.
double QGramJaccard(std::string_view a, std::string_view b, size_t q);

/// Token-level Jaccard (tokens split on space / punctuation).
double TokenJaccard(std::string_view a, std::string_view b);

/// True if every byte is an ASCII digit (and string non-empty).
bool IsDigits(std::string_view s);

/// Heuristic for "looks like natural content": pure digits, or all-alphabetic
/// with a vowel and a plausible case pattern (lower / UPPER / Title). Tokens
/// shorter than 2 characters are not counted as evidence either way.
/// Used by the simulated-LLM backends to tell natural-language-ish cells from
/// random byte soup (docs/architecture.md, "Substitutions").
bool IsWordLikeToken(std::string_view token);

/// Fraction of word-like tokens (length >= 2) across `cells`, tokenized on
/// `separators`; 1.0 when nothing is long enough to judge. When
/// `digits_are_natural` is false, digit runs of four or more characters
/// count as unnatural — the right setting for subword-tokenized encoders,
/// for which long numbers are out-of-distribution.
double ContentNaturalness(const std::vector<std::string_view>& cells,
                          std::string_view separators,
                          bool digits_are_natural = true);

/// Length of the longest common subsequence of two strings.
size_t LongestCommonSubsequenceLen(std::string_view a, std::string_view b);

/// Printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...);

}  // namespace dtt

#endif  // DTT_UTIL_STRING_UTIL_H_
