#include "curve/encoding.hpp"

namespace fourq::curve {

using field::Fp;
using field::Fp2;

namespace {

void put_fp(uint8_t* out, const Fp& v) {
  uint64_t w[2] = {v.lo(), v.hi()};
  for (int i = 0; i < 2; ++i)
    for (int b = 0; b < 8; ++b) out[8 * i + b] = static_cast<uint8_t>(w[i] >> (8 * b));
}

// Returns nullopt if the 128-bit value is not a canonical F_p element.
std::optional<Fp> get_fp(const uint8_t* in) {
  uint64_t w[2] = {0, 0};
  for (int i = 0; i < 2; ++i)
    for (int b = 0; b < 8; ++b) w[i] |= static_cast<uint64_t>(in[8 * i + b]) << (8 * b);
  if (w[1] >> 63) return std::nullopt;                       // bit 127 must be clear
  if (w[0] == ~0ull && w[1] == 0x7fffffffffffffffull) return std::nullopt;  // == p
  return Fp::from_words(w[0], w[1]);
}

}  // namespace

bool x_sign(const Fp2& x) {
  if (!x.re().is_zero()) return x.re().is_odd();
  return x.im().is_odd();
}

UncompressedPoint encode(const Affine& p) {
  UncompressedPoint out{};
  put_fp(out.data(), p.x.re());
  put_fp(out.data() + 16, p.x.im());
  put_fp(out.data() + 32, p.y.re());
  put_fp(out.data() + 48, p.y.im());
  return out;
}

std::optional<Affine> decode(const UncompressedPoint& bytes) {
  auto xr = get_fp(bytes.data());
  auto xi = get_fp(bytes.data() + 16);
  auto yr = get_fp(bytes.data() + 32);
  auto yi = get_fp(bytes.data() + 48);
  if (!xr || !xi || !yr || !yi) return std::nullopt;
  Affine p{Fp2(*xr, *xi), Fp2(*yr, *yi)};
  if (!on_curve(p)) return std::nullopt;
  return p;
}

CompressedPoint compress(const Affine& p) {
  CompressedPoint out{};
  put_fp(out.data(), p.y.re());
  put_fp(out.data() + 16, p.y.im());
  if (x_sign(p.x)) out[31] |= 0x80;  // bit 255: sign of x (bit 127 of y.im is 0)
  return out;
}

std::optional<Affine> decompress(const CompressedPoint& bytes) {
  bool sign = (bytes[31] & 0x80) != 0;
  CompressedPoint clean = bytes;
  clean[31] &= 0x7f;
  auto yr = get_fp(clean.data());
  auto yi = get_fp(clean.data() + 16);
  if (!yr || !yi) return std::nullopt;
  Fp2 y(*yr, *yi);

  // x^2 = (y^2 - 1) / (d y^2 + 1), rooted without inverting the
  // denominator; a zero denominator or a non-square ratio rejects.
  const Fp2 one = Fp2::from_u64(1);
  const Fp2 y2 = y.sqr();
  Fp2 x;
  if (!Fp2::sqrt_ratio(y2 - one, curve_d() * y2 + one, x)) return std::nullopt;
  if (x.is_zero()) {
    if (sign) return std::nullopt;  // -0 == 0: sign bit must be clear
  } else if (x_sign(x) != sign) {
    x = -x;
  }
  Affine p{x, y};
  if (!on_curve(p)) return std::nullopt;
  return p;
}

}  // namespace fourq::curve
