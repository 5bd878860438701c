// Base field F_p with the Mersenne prime p = 2^127 - 1 (paper §II-B.2).
//
// Elements are kept canonical in [0, p). The Mersenne structure means
// reduction is a shift-and-add fold (2^127 ≡ 1 mod p), never a division —
// the property the paper's datapath is built around.
#pragma once

#include <cstdint>
#include <string>

#include "common/u128.hpp"
#include "common/u256.hpp"
#include "field/alg2.hpp"

namespace fourq::field {

class Fp {
 public:
  // p = 2^127 - 1.
  static constexpr u128 P() { return (static_cast<u128>(1) << 127) - 1; }

  constexpr Fp() : v_(0) {}

  // Value taken mod p.
  static Fp from_u64(uint64_t v) { return Fp(static_cast<u128>(v)); }
  static Fp from_words(uint64_t lo, uint64_t hi);
  // Re-wraps a value already known to be canonical (e.g. produced by the
  // lane kernels in fp_lanes.hpp, which keep their outputs in [0, p)).
  static Fp from_canonical(u128 v);
  // Same without the range check — for per-element hot paths whose inputs
  // are canonical by construction (and covered by bitwise differential
  // tests). Everything else should use the checked variant.
  static Fp from_canonical_unchecked(u128 v) {
    Fp f;
    f.v_ = v;
    return f;
  }
  // Reduces an arbitrary 256-bit value mod p.
  static Fp from_u256(const U256& v);
  static Fp from_hex(const std::string& hex);

  uint64_t lo() const { return static_cast<uint64_t>(v_); }
  uint64_t hi() const { return static_cast<uint64_t>(v_ >> 64); }
  u128 raw() const { return v_; }
  U256 to_u256() const { return U256(lo(), hi(), 0, 0); }
  std::string to_hex() const;

  bool is_zero() const { return v_ == 0; }
  bool is_odd() const { return (v_ & 1) != 0; }

  friend bool operator==(const Fp& a, const Fp& b) { return a.v_ == b.v_; }
  friend bool operator!=(const Fp& a, const Fp& b) { return a.v_ != b.v_; }

  // The arithmetic operators are defined here, over the stage code in
  // alg2.hpp, so the point formulas compile to straight-line limb code
  // instead of one call per field op.
  friend Fp operator+(const Fp& a, const Fp& b) { return Fp(alg2::add(a.v_, b.v_)); }
  friend Fp operator-(const Fp& a, const Fp& b) { return Fp(alg2::sub(a.v_, b.v_)); }
  friend Fp operator*(const Fp& a, const Fp& b) {
    return Fp(alg2::fold(alg2::mul(a.v_, b.v_)));
  }
  Fp operator-() const { return Fp() - *this; }

  // Dedicated squaring: exploits the symmetry of the product (the two cross
  // partial products are equal), so it needs 3 64x64 multiplies where the
  // general multiplication needs 4. Bit-identical to `*this * *this`.
  Fp sqr() const { return Fp(alg2::fold(alg2::sqr(v_))); }
  // Multiplicative inverse via Fermat (x^(p-2)) by a fixed addition chain
  // (126 squarings, 12 multiplications); x must be non-zero.
  Fp inv() const;
  // x^((p-3)/4) = x^(2^125 - 1), the head of the inversion chain. For a
  // non-zero square t, r = t^((p-3)/4) gives both the square root t*r and
  // its inverse r (Fp2::sqrt uses this to avoid an inversion).
  Fp pow_p34() const;
  // x^(2^n) — n repeated squarings.
  Fp sqr_n(int n) const;
  // Square root when one exists (p ≡ 3 mod 4, so x^((p+1)/4)).
  // Returns false if x is a non-residue.
  bool sqrt(Fp& root) const;
  Fp pow(const U256& e) const;

  // The 254-bit product a*b as a U256, *without* modular reduction.
  // This is the value the lazy-reduction datapath carries between units.
  static U256 mul_wide(const Fp& a, const Fp& b) { return alg2::mul(a.v_, b.v_); }
  // The 254-bit square a*a as a U256, without reduction (3 64x64 multiplies).
  static U256 sqr_wide(const Fp& a) { return alg2::sqr(a.v_); }
  // Mersenne fold of a 256-bit value into [0, p):
  // interprets v = A + B*2^127 + C*2^254 and returns A + B + C mod p
  // (paper Alg. 2, steps t9/t10).
  static Fp reduce_wide(const U256& v) { return Fp(alg2::fold(v)); }

 private:
  constexpr explicit Fp(u128 v) : v_(v) {}
  static Fp make_canonical(u128 v);

  u128 v_;
};

}  // namespace fourq::field
