#include "text/tokenizer.h"

namespace dtt {

std::vector<int> ByteTokenizer::Encode(std::string_view text,
                                       bool add_sos_eos) const {
  const size_t offset = add_sos_eos ? 1 : 0;
  std::vector<int> ids(text.size() + 2 * offset);
  for (size_t i = 0; i < text.size(); ++i) {
    ids[offset + i] = Vocab::ByteToken(static_cast<unsigned char>(text[i]));
  }
  if (add_sos_eos) {
    ids.front() = Vocab::kSos;
    ids.back() = Vocab::kEos;
  }
  return ids;
}

std::string ByteTokenizer::Decode(const std::vector<int>& ids) const {
  std::string out;
  for (int id : ids) {
    if (id == Vocab::kEos) break;
    if (Vocab::IsByte(id)) out.push_back(static_cast<char>(Vocab::TokenByte(id)));
  }
  return out;
}

}  // namespace dtt
