#include "field/fp.hpp"

#include "common/check.hpp"
#include "common/hexutil.hpp"

namespace fourq::field {

Fp Fp::make_canonical(u128 v) { return Fp(alg2::reduce128(v)); }

Fp Fp::from_words(uint64_t lo, uint64_t hi) {
  return make_canonical((static_cast<u128>(hi) << 64) | lo);
}

Fp Fp::from_u256(const U256& v) { return reduce_wide(v); }

Fp Fp::from_canonical(u128 v) {
  FOURQ_CHECK_MSG(v < P(), "from_canonical requires a reduced value");
  return Fp(v);
}

Fp Fp::from_hex(const std::string& hex) {
  uint64_t w[2];
  hex_to_words(hex, w, 2);
  return from_words(w[0], w[1]);
}

std::string Fp::to_hex() const {
  uint64_t w[2] = {lo(), hi()};
  return words_to_hex(w, 2);
}

Fp Fp::sqr_n(int n) const {
  Fp r = *this;
  for (int i = 0; i < n; ++i) r = r.sqr();
  return r;
}

Fp Fp::pow(const U256& e) const {
  Fp acc = Fp::from_u64(1);
  int top = e.top_bit();
  for (int i = top; i >= 0; --i) {
    acc = acc.sqr();
    if (e.bit(static_cast<unsigned>(i))) acc = acc * *this;
  }
  return acc;
}

Fp Fp::pow_p34() const {
  // Addition chain of all-ones exponents e_k = 2^k - 1
  // (e_{j+k} = e_j * 2^k + e_k): 124 squarings and 11 multiplications.
  const Fp& x = *this;
  const Fp e2 = x.sqr() * x;
  const Fp e4 = e2.sqr_n(2) * e2;
  const Fp e8 = e4.sqr_n(4) * e4;
  const Fp e16 = e8.sqr_n(8) * e8;
  const Fp e32 = e16.sqr_n(16) * e16;
  Fp e = e32.sqr_n(32) * e32;  // e64
  e = e.sqr_n(32) * e32;       // e96
  e = e.sqr_n(16) * e16;       // e112
  e = e.sqr_n(8) * e8;         // e120
  e = e.sqr_n(4) * e4;         // e124
  return e.sqr() * x;          // e125
}

Fp Fp::inv() const {
  FOURQ_CHECK_MSG(!is_zero(), "inverse of zero in F_p");
  // x^(p-2) with p - 2 = 2^127 - 3 = 4 * (2^125 - 1) + 1.
  return pow_p34().sqr_n(2) * *this;
}

bool Fp::sqrt(Fp& root) const {
  // p ≡ 3 (mod 4): candidate = x^((p+1)/4) = x^(2^125).
  Fp cand = sqr_n(125);
  if (cand.sqr() == *this) {
    root = cand;
    return true;
  }
  return false;
}

}  // namespace fourq::field
