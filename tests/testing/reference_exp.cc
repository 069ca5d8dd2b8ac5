#include "testing/reference_exp.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace dtt {
namespace testing {

namespace {

constexpr int kTableBits = 5;
constexpr int kN = 1 << kTableBits;

uint32_t AsUint(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

uint64_t AsUint64(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double AsDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

uint32_t Top12(float x) { return AsUint(x) >> 20; }

/// tab[i] = asuint64(2^(i/N)) - (i << (52 - kTableBits)), with 2^(i/N)
/// rounded to double from an extended-precision exp2l.
const std::array<uint64_t, kN>& Table() {
  static const std::array<uint64_t, kN> table = [] {
    std::array<uint64_t, kN> t{};
    for (int i = 0; i < kN; ++i) {
      const double v = static_cast<double>(
          std::exp2l(static_cast<long double>(i) / kN));
      t[static_cast<size_t>(i)] =
          AsUint64(v) - (static_cast<uint64_t>(i) << (52 - kTableBits));
    }
    return t;
  }();
  return table;
}

}  // namespace

float ReferenceExpf(float x) {
  constexpr double kInvLn2N = 0x1.71547652b82fep0 * kN;
  constexpr double kShift = 0x1.8p52;
  constexpr double kC[3] = {0x1.c6af84b912394p-5 / kN / kN / kN,
                            0x1.ebfce50fac4f3p-3 / kN / kN,
                            0x1.62e42ff0c52d6p-1 / kN};
  const double xd = static_cast<double>(x);
  const uint32_t abstop = Top12(x) & 0x7ff;
  if (abstop >= Top12(88.0f)) {
    // |x| >= 88 or x is nan.
    if (AsUint(x) == AsUint(-std::numeric_limits<float>::infinity())) {
      return 0.0f;
    }
    if (abstop >= Top12(std::numeric_limits<float>::infinity())) return x + x;
    if (x > 0x1.62e42ep6f) {  // x > log(0x1p128) ~= 88.72
      return std::numeric_limits<float>::infinity();
    }
    if (x < -0x1.9fe368p6f) return 0.0f;  // x < log(0x1p-150) ~= -103.97
  }
  // x*N/Ln2 = k + r with r in [-1/2, 1/2] and int k.
  double z = kInvLn2N * xd;
  double kd = z + kShift;
  const uint64_t ki = AsUint64(kd);
  kd -= kShift;
  const double r = z - kd;
  // exp(x) = 2^(k/N) * 2^(r/N) ~= s * (C0*r^3 + C1*r^2 + C2*r + 1)
  uint64_t t = Table()[ki % kN];
  t += ki << (52 - kTableBits);
  const double s = AsDouble(t);
  z = kC[0] * r + kC[1];
  const double r2 = r * r;
  double y = kC[2] * r + 1;
  y = z * r2 + y;
  y = y * s;
  return static_cast<float>(y);
}

}  // namespace testing
}  // namespace dtt
