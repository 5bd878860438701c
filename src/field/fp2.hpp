// Quadratic extension field F_{p^2} = F_p(i), i^2 = -1 (paper §II-B.1).
//
// Two multiplication algorithms are provided:
//  * mul_schoolbook — 4 F_p multiplications (the conventional datapath the
//    paper compares against, e.g. [15]);
//  * mul_karatsuba  — the paper's Algorithm 2: 3 F_p multiplications with
//    lazy reduction, with the same wide (254/256-bit) intermediates and
//    fold steps (t0..t10) the hardware uses. The stage code lives in
//    field/alg2.hpp and is shared with the generic lane kernels.
// operator* uses the Karatsuba path; tests assert both paths agree.
#pragma once

#include <cstddef>
#include <string>

#include "field/fp.hpp"

namespace fourq::field {

class Fp2 {
 public:
  constexpr Fp2() = default;
  Fp2(const Fp& re, const Fp& im) : a_(re), b_(im) {}
  static Fp2 from_u64(uint64_t re, uint64_t im = 0) {
    return Fp2(Fp::from_u64(re), Fp::from_u64(im));
  }
  static Fp2 from_hex(const std::string& re_hex, const std::string& im_hex) {
    return Fp2(Fp::from_hex(re_hex), Fp::from_hex(im_hex));
  }

  const Fp& re() const { return a_; }
  const Fp& im() const { return b_; }
  std::string to_hex() const { return a_.to_hex() + "+" + b_.to_hex() + "i"; }

  bool is_zero() const { return a_.is_zero() && b_.is_zero(); }

  friend bool operator==(const Fp2& x, const Fp2& y) { return x.a_ == y.a_ && x.b_ == y.b_; }
  friend bool operator!=(const Fp2& x, const Fp2& y) { return !(x == y); }

  friend Fp2 operator+(const Fp2& x, const Fp2& y) { return Fp2(x.a_ + y.a_, x.b_ + y.b_); }
  friend Fp2 operator-(const Fp2& x, const Fp2& y) { return Fp2(x.a_ - y.a_, x.b_ - y.b_); }
  Fp2 operator-() const { return Fp2(-a_, -b_); }
  friend Fp2 operator*(const Fp2& x, const Fp2& y) { return mul_karatsuba(x, y); }

  // Paper Algorithm 2 (Karatsuba + lazy reduction, 3 F_p muls). Inline,
  // like every operator here: the point formulas chain 7-15 of them.
  static Fp2 mul_karatsuba(const Fp2& x, const Fp2& y) {
    u128 z0, z1;
    alg2::fp2_mul(x.a_.raw(), x.b_.raw(), y.a_.raw(), y.b_.raw(), z0, z1);
    return Fp2(Fp::from_canonical_unchecked(z0), Fp::from_canonical_unchecked(z1));
  }
  // Conventional 4-mul F_{p^2} multiplication with eager reduction: the
  // reference bench_field_ratio compares operator* against. Not a hot-path
  // operator, so it stays out of line.
  static Fp2 mul_schoolbook(const Fp2& x, const Fp2& y);

  Fp2 sqr() const {
    u128 z0, z1;
    alg2::fp2_sqr(a_.raw(), b_.raw(), z0, z1);
    return Fp2(Fp::from_canonical_unchecked(z0), Fp::from_canonical_unchecked(z1));
  }
  // Complex conjugate a - b*i.
  Fp2 conj() const { return Fp2(a_, -b_); }
  // Field norm a^2 + b^2 ∈ F_p.
  Fp norm() const { return a_.sqr() + b_.sqr(); }
  // Multiplicative inverse conj(x)/norm(x); x must be non-zero.
  Fp2 inv() const;
  // Square root in F_{p^2} when one exists.
  bool sqrt(Fp2& root) const;
  // A square root of u/v when v != 0 and one exists, without inverting v:
  // u/v = u*conj(v) / norm(v) leaves only F_p exponentiations, and the
  // inverse of norm(v) folds into the one x^((p-3)/4) that also yields
  // the root. Returns false when v == 0 or u/v is a non-square. Which of
  // the two roots comes back is unspecified.
  static bool sqrt_ratio(const Fp2& u, const Fp2& v, Fp2& root);

  // Scale by a small integer (used by doubling/table formulas).
  Fp2 dbl() const { return *this + *this; }

 private:
  Fp a_;  // real part
  Fp b_;  // imaginary part
};

// Montgomery's simultaneous-inversion trick: replaces every non-zero xs[i]
// by its inverse using 3(n-1) multiplications and a single field inversion
// (instead of n inversions). Zero entries are left untouched, so callers can
// mix in degenerate values without branching. Results are bit-identical to
// calling xs[i].inv() element-wise.
void batch_invert(Fp2* xs, size_t n);

}  // namespace fourq::field
