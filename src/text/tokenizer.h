#ifndef DTT_TEXT_TOKENIZER_H_
#define DTT_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/vocab.h"

namespace dtt {

/// Byte-level tokenizer (§4.2): every UTF-8 byte becomes one token. There is
/// no vocabulary to learn and no out-of-vocabulary token; this is the property
/// the paper relies on for arbitrary table cells.
class ByteTokenizer {
 public:
  /// Encodes raw text as byte tokens. When `add_sos_eos` is set, wraps the
  /// sequence in <sos> ... <eos>.
  std::vector<int> Encode(std::string_view text, bool add_sos_eos = false) const;

  /// Inverse of Encode: concatenates byte tokens; <tr>/<eoe> render as
  /// nothing; decoding stops at the first <eos>. <pad>/<sos> are skipped.
  std::string Decode(const std::vector<int>& ids) const;
};

}  // namespace dtt

#endif  // DTT_TEXT_TOKENIZER_H_
