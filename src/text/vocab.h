#ifndef DTT_TEXT_VOCAB_H_
#define DTT_TEXT_VOCAB_H_

#include <cstdint>

namespace dtt {

/// Token-id layout of the byte-level vocabulary (ByT5-style): a handful of
/// special ids followed by the 256 raw byte values.
///
///   0 <pad>   1 <sos>   2 <eos>   3 <tr>   4 <eoe>   5.. bytes 0x00..0xFF
class Vocab {
 public:
  static constexpr int kPad = 0;
  static constexpr int kSos = 1;
  static constexpr int kEos = 2;
  static constexpr int kTr = 3;   // separates source from target in an example
  static constexpr int kEoe = 4;  // separates two examples
  static constexpr int kByteOffset = 5;
  static constexpr int kSize = kByteOffset + 256;

  /// Token id of a raw byte.
  static int ByteToken(uint8_t b) { return kByteOffset + b; }

  /// True if `id` encodes a raw byte.
  static bool IsByte(int id) { return id >= kByteOffset && id < kSize; }

  /// The byte encoded by `id`; precondition IsByte(id).
  static uint8_t TokenByte(int id) { return static_cast<uint8_t>(id - kByteOffset); }
};

}  // namespace dtt

#endif  // DTT_TEXT_VOCAB_H_
