#include "text/serializer.h"

#include <algorithm>

namespace dtt {

int Serializer::RowBudget(int num_examples) const {
  // §4.1 gives ⌊L/(2k+1)⌋ "ignoring special tokens and separators"; we also
  // reserve the 2k+3 specials (<sos>, k x (<tr>,<eoe>), <tr>, <eos>) so the
  // serialized prompt genuinely fits within max_tokens.
  int rows = 2 * num_examples + 1;
  int specials = 2 * num_examples + 3;
  return std::max(1, (options_.max_tokens - specials) / rows);
}

std::string_view Serializer::Truncate(std::string_view row,
                                      int budget) const {
  if (!options_.enforce_row_budget) return row;
  return row.substr(0, static_cast<size_t>(budget));
}

std::vector<int> Serializer::EncodePrompt(const Prompt& prompt) const {
  const int budget = RowBudget(static_cast<int>(prompt.examples.size()));
  // One id per kept byte plus the 2k+3 specials, sized once.
  size_t size = 2 * prompt.examples.size() + 3 +
                Truncate(prompt.source, budget).size();
  for (const auto& ex : prompt.examples) {
    size += Truncate(ex.source, budget).size() +
            Truncate(ex.target, budget).size();
  }
  std::vector<int> ids(size);
  int* out = ids.data();
  const auto put_bytes = [&out](std::string_view row) {
    for (unsigned char b : row) *out++ = Vocab::ByteToken(b);
  };
  *out++ = Vocab::kSos;
  for (const auto& ex : prompt.examples) {
    put_bytes(Truncate(ex.source, budget));
    *out++ = Vocab::kTr;
    put_bytes(Truncate(ex.target, budget));
    *out++ = Vocab::kEoe;
  }
  put_bytes(Truncate(prompt.source, budget));
  *out++ = Vocab::kTr;
  *out++ = Vocab::kEos;
  return ids;
}

std::vector<int> Serializer::EncodeLabel(const std::string& target) const {
  return tokenizer_.Encode(target, /*add_sos_eos=*/true);
}

std::string Serializer::RenderPrompt(const Prompt& prompt) const {
  const int budget = RowBudget(static_cast<int>(prompt.examples.size()));
  std::string out = "<sos>";
  for (const auto& ex : prompt.examples) {
    out += Truncate(ex.source, budget);
    out += "<tr>";
    out += Truncate(ex.target, budget);
    out += "<eoe>";
  }
  out += Truncate(prompt.source, budget);
  out += "<tr><eos>";
  return out;
}

}  // namespace dtt
