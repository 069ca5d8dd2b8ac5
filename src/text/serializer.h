#ifndef DTT_TEXT_SERIALIZER_H_
#define DTT_TEXT_SERIALIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/tokenizer.h"
#include "transform/training_data.h"

namespace dtt {

/// A sub-problem fed to a model: k context examples plus the source row whose
/// target is to be predicted (§4.1).
struct Prompt {
  std::vector<ExamplePair> examples;
  std::string source;
  /// Per-request decode-step budget; 0 = the backend's configured maximum.
  /// A positive value caps the generated tokens at min(budget, backend max).
  /// Greedy decoding is prefix-stable, so capping is bit-identical to
  /// truncating the uncapped decode; beam requests bucket by budget instead.
  int max_output_tokens = 0;
};

/// Serialization options; `max_tokens` is the model's input-length budget
/// (ByT5: 512). Per §4.1, with k examples each row is limited to
/// floor(max_tokens / (2k+1)) tokens; longer rows are truncated.
struct SerializerOptions {
  int max_tokens = 512;
  bool enforce_row_budget = true;
};

/// Implements the paper's serialization (§4.1):
///   <sos> s1 <tr> t1 <eoe> s2 <tr> t2 <eoe> x <tr> <eos>
/// and the label form <sos> t <eos>.
class Serializer {
 public:
  explicit Serializer(SerializerOptions options = {}) : options_(options) {}

  /// Token-id encoding of a prompt, for the neural path.
  std::vector<int> EncodePrompt(const Prompt& prompt) const;

  /// Token-id encoding of a label (target string).
  std::vector<int> EncodeLabel(const std::string& target) const;

  /// Textual rendering with explicit markers, e.g.
  /// "<sos>Justin Trudeau<tr>jtrudeau<eoe>Jean Chretien<tr><eos>"; this is
  /// what an external text-in/text-out LLM would receive.
  std::string RenderPrompt(const Prompt& prompt) const;

  /// Per-row token budget for a prompt with k examples: ⌊max/(2k+1)⌋.
  int RowBudget(int num_examples) const;

 private:
  /// The first `budget` bytes of `row` (all of it when the budget is off),
  /// as a view into `row`.
  std::string_view Truncate(std::string_view row, int budget) const;

  SerializerOptions options_;
  ByteTokenizer tokenizer_;
};

}  // namespace dtt

#endif  // DTT_TEXT_SERIALIZER_H_
