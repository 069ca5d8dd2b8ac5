#include "models/noisy_model.h"

namespace dtt {

std::string CorruptChars(const std::string& s, double err_rate, Rng* rng) {
  if (err_rate <= 0.0) return s;
  static constexpr char kPool[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 .-_/";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (rng->NextBool(err_rate)) {
      if (rng->NextBool(0.125)) continue;  // deletion
      out.push_back(kPool[rng->NextBounded(sizeof(kPool) - 1)]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace dtt
