// Paper Algorithm 2 as inline 64-bit-limb stage code: the one scalar
// implementation of F_p / F_{p^2} arithmetic. Fp, Fp2 and the generic
// lane-kernel table (fp_lanes.cpp) all call these functions, so the golden
// model, the trace evaluator, the simulators and the generic lanes share a
// single multiply.
//
// Values are raw u128 field elements; wide values are U256 limb vectors,
// least significant limb first. Stage names follow the paper:
//   t0, t1, t6  2x2-limb products (mul), t6 of the lazy sums t2 = x0 + x1
//               and t3 = y0 + y1;
//   t4, t5      t0 - t1 and t0 + t1, with borrow and carry flags;
//   t7          t4 plus p<<127 when t4 went negative (branch-free mask);
//   t8          t6 - t5, the Karatsuba middle term;
//   t9, t10     fold(): one Mersenne fold and one conditional subtract.
// The stage invariants (no carry out of t5, the correction carry cancels
// the borrow, t8 >= 0) are checked in every build by one flag test. Their
// static proof is analysis/range; the magnitude contracts are bounds.hpp.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "common/u128.hpp"
#include "common/u256.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fourq::field::alg2 {

// p = 2^127 - 1, also the mask of the low 127 bits.
inline constexpr u128 kP = (static_cast<u128>(1) << 127) - 1;

inline uint64_t lo64(u128 v) { return static_cast<uint64_t>(v); }
inline uint64_t hi64(u128 v) { return static_cast<uint64_t>(v >> 64); }

// Canonical representative of s <= 2^127 + 3 (< 2p): s >= p ? s - p : s.
// s + 1 reaches bit 127 exactly when s >= p, and then (s + 1) mod 2^127 is
// s - p.
inline u128 canon(u128 s) { return (s + ((s + 1) >> 127)) & kP; }

// Fold of any v < 2^128 into [0, p) (2^127 ≡ 1).
inline u128 reduce128(u128 v) { return canon((v & kP) + (v >> 127)); }

inline u128 add(u128 a, u128 b) { return reduce128(a + b); }  // a + b < 2^128
inline u128 sub(u128 a, u128 b) { return reduce128(a + kP - b); }  // in [1, 2p)

// One add-with-carry / subtract-with-borrow limb step (flag in and out is
// 0 or 1). On x86-64 the intrinsics compile to a single adc / sbb, so the
// limb chains below stay in the flags register; elsewhere the portable
// helpers from common/u128.hpp. Measured with bench_field_ratio (GCC 12,
// 4-vCPU AVX-512 Xeon, 5 interleaved runs each): dependent Fp2 mul
// 38-48 ns with the intrinsics against 66-85 ns with addc64/subb64, whose
// u128 sums GCC does not turn into adc chains; Fp::inv 1.56-1.70 us
// against 1.85-2.06 us.
inline uint64_t adc(uint64_t c, uint64_t a, uint64_t b, uint64_t& r) {
#if defined(__x86_64__)
  unsigned long long t;
  c = _addcarry_u64(static_cast<unsigned char>(c), a, b, &t);
  r = t;
  return c;
#else
  return addc64(a, b, c, r);
#endif
}

inline uint64_t sbb(uint64_t c, uint64_t a, uint64_t b, uint64_t& r) {
#if defined(__x86_64__)
  unsigned long long t;
  c = _subborrow_u64(static_cast<unsigned char>(c), a, b, &t);
  r = t;
  return c;
#else
  return subb64(a, b, c, r);
#endif
}

// Multiplier core: the 2x2-limb product of a, b < 2^128, four 64x64
// multiplies, < 2^256. The carry out of each column chain is 0 because
// the product fits four limbs.
inline U256 mul(u128 a, u128 b) {
  const uint64_t a0 = lo64(a), a1 = hi64(a), b0 = lo64(b), b1 = hi64(b);
  const u128 p00 = static_cast<u128>(a0) * b0, p01 = static_cast<u128>(a0) * b1;
  const u128 p10 = static_cast<u128>(a1) * b0, p11 = static_cast<u128>(a1) * b1;
  U256 r(lo64(p00), 0, 0, 0);
  uint64_t c = adc(0, hi64(p00), lo64(p01), r.w[1]);
  c = adc(c, hi64(p01), lo64(p11), r.w[2]);
  adc(c, hi64(p11), 0, r.w[3]);
  c = adc(0, r.w[1], lo64(p10), r.w[1]);
  c = adc(c, r.w[2], hi64(p10), r.w[2]);
  adc(c, r.w[3], 0, r.w[3]);
  return r;
}

// Square of a < 2^127: the cross product is taken once and doubled (three
// multiplies); a1 < 2^63 keeps the doubled term inside 128 bits.
inline U256 sqr(u128 a) {
  const uint64_t a0 = lo64(a), a1 = hi64(a);
  const u128 p00 = static_cast<u128>(a0) * a0, p11 = static_cast<u128>(a1) * a1;
  const u128 d = (static_cast<u128>(a0) * a1) << 1;
  U256 r(lo64(p00), 0, 0, 0);
  uint64_t c = adc(0, hi64(p00), lo64(d), r.w[1]);
  c = adc(c, hi64(d), lo64(p11), r.w[2]);
  adc(c, hi64(p11), 0, r.w[3]);
  return r;
}

// Mersenne fold of v < 2^256 into [0, p): v = A + B*2^127 + C*2^254 with
// A, B < 2^127 and C < 4 is ≡ A + B + C. A + B < 2^128; folding its bit
// 127 together with C leaves at most 2^127 + 3, so one conditional
// subtract canonicalises (paper Alg. 2, t9/t10).
inline u128 fold(const U256& v) {
  const u128 a = (static_cast<u128>(v.w[1] & 0x7fffffffffffffffull) << 64) | v.w[0];
  const u128 b = (static_cast<u128>(v.w[3] & 0x3fffffffffffffffull) << 65) |
                 (static_cast<u128>(v.w[2]) << 1) | (v.w[1] >> 63);
  const u128 s = a + b;
  return canon((s & kP) + (s >> 127) + (v.w[3] >> 62));
}

// r = a + b over four limbs; returns the carry out.
inline uint64_t add4(const U256& a, const U256& b, U256& r) {
  uint64_t c = adc(0, a.w[0], b.w[0], r.w[0]);
  c = adc(c, a.w[1], b.w[1], r.w[1]);
  c = adc(c, a.w[2], b.w[2], r.w[2]);
  return adc(c, a.w[3], b.w[3], r.w[3]);
}

// r = a - b mod 2^256; returns the borrow out.
inline uint64_t sub4(const U256& a, const U256& b, U256& r) {
  uint64_t bw = sbb(0, a.w[0], b.w[0], r.w[0]);
  bw = sbb(bw, a.w[1], b.w[1], r.w[1]);
  bw = sbb(bw, a.w[2], b.w[2], r.w[2]);
  return sbb(bw, a.w[3], b.w[3], r.w[3]);
}

// z = x * y in F_{p^2} (paper Algorithm 2) on canonical components. Forced
// inline: a call would pass the four operands through the stack.
[[gnu::always_inline]] inline void fp2_mul(u128 x0, u128 x1, u128 y0, u128 y1, u128& z0,
                                           u128& z1) {
  const U256 t0 = mul(x0, y0);            // < 2^254
  const U256 t1 = mul(x1, y1);            // < 2^254
  const U256 t6 = mul(x0 + x1, y0 + y1);  // lazy t2, t3 < 2^128: < 2^256
  U256 t4, t5, t7, t8;
  const uint64_t borrow = sub4(t0, t1, t4);
  const uint64_t carry = add4(t0, t1, t5);  // t5 < 2^255
  // p << 127 = 2^254 - 2^127, masked in when t4 is negative: t1 <= p*2^127
  // keeps t7 non-negative, so the carry cancels the borrow exactly.
  const uint64_t m = borrow * ~0ull;
  const U256 pshift(0, m & 0x8000000000000000ull, m, m & 0x3fffffffffffffffull);
  const uint64_t c = add4(t4, pshift, t7);
  const uint64_t b2 = sub4(t6, t5, t8);  // t6 >= t5 by the product identity
  FOURQ_CHECK_MSG((carry | (c ^ borrow) | b2) == 0,
                  "Algorithm 2 stage invariant: t5 carry, t7 correction or t8 sign");
  z0 = fold(t7);
  z1 = fold(t8);
}

// z = x^2 in F_{p^2}: (a + bi)^2 = (a + b)(a - b) + 2ab*i, both products
// on lazy operands (a + b, a + p - b and b + b stay below 2^128) and each
// folded once.
inline void fp2_sqr(u128 a, u128 b, u128& z0, u128& z1) {
  z0 = fold(mul(a + b, a + kP - b));
  z1 = fold(mul(a, b + b));
}

}  // namespace fourq::field::alg2
