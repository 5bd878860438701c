// AVX-512 IFMA specialization of the lane kernels: 8 lanes per __m512i on
// a radix-2^52 representation.
//
// vpmadd52luq / vpmadd52huq multiply the low 52 bits of each 64-bit lane
// pair and accumulate the low/high 52 bits of the 104-bit product. With an
// F_p element split into 3 limbs of 52/52/23 bits, a full 128x128-bit
// product is a 3x3 schoolbook: 9 lo + 8 hi instructions (the top-limb hi
// term is provably zero) accumulating into 5 columns — ~2 multiply
// instructions per lane where the scalar path retires ~12 mulx/add pairs.
//
// Column sums stay below 2^55 (at most 5 terms < 2^52 plus a carry), so
// 64-bit accumulators never overflow before the carry sweep. Conditional
// steps (the Karatsuba borrow correction, the canonical subtract-p) use
// AVX-512 mask registers instead of blends. All outputs are canonical and
// bitwise-equal to the scalar operators; the u128-array kernels split
// limbs at load/store (a few shifts per element). The lane executor's
// wave ops at the end of this file skip even that: their state stays in
// limbs, semi-reduced, between ops.
//
// This translation unit is compiled with -mavx512f -mavx512ifma (see
// field/CMakeLists.txt); nothing here runs unless the dispatcher checked
// avx512_supported() first.
#include "field/fp_lanes.hpp"

#if FOURQ_LANES_AVX512_ENABLED

#include <immintrin.h>

// GCC's unmasked shift intrinsics expand through _mm512_undefined_epi32,
// which -Wuninitialized flags (false positive) once they inline deep
// enough — the deeply-fused pt_addmix path trips it on GCC 12.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace fourq::field::lanes {

namespace {

constexpr size_t kVL = 8;  // lanes per vector pass

inline __m512i m52() { return _mm512_set1_epi64(0xfffffffffffffll); }
inline __m512i m23() { return _mm512_set1_epi64(0x7fffffll); }

// --- representation --------------------------------------------------------
//
// One u128 across 8 lanes as 3 radix-2^52 limbs (l2 holds bits 104..127 for
// canonical values; lazy sums push it to 24 bits). A U256 wide product is 5
// limbs. unpacklo/hi_epi64 interleave per 128-bit half, giving the fixed
// lane order (0,4,1,5,2,6,3,7) — self-consistent between loads and stores.

struct V3 {
  __m512i l[3];
};

struct V5 {
  __m512i l[5];
};

inline V3 load_fp(const u128* p) {
  const __m512i a = _mm512_loadu_si512(p);      // lanes 0..3 (lo,hi pairs)
  const __m512i b = _mm512_loadu_si512(p + 4);  // lanes 4..7
  const __m512i lo = _mm512_unpacklo_epi64(a, b);
  const __m512i hi = _mm512_unpackhi_epi64(a, b);
  V3 r;
  r.l[0] = _mm512_and_si512(lo, m52());
  r.l[1] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(lo, 52), _mm512_slli_epi64(hi, 12)), m52());
  r.l[2] = _mm512_srli_epi64(hi, 40);
  return r;
}

inline void store_fp(u128* p, const V3& v) {
  const __m512i lo =
      _mm512_or_si512(v.l[0], _mm512_slli_epi64(v.l[1], 52));
  const __m512i hi =
      _mm512_or_si512(_mm512_srli_epi64(v.l[1], 12), _mm512_slli_epi64(v.l[2], 40));
  _mm512_storeu_si512(p, _mm512_unpacklo_epi64(lo, hi));
  _mm512_storeu_si512(p + 4, _mm512_unpackhi_epi64(lo, hi));
}

// U256 <-> 5 radix-52 limbs. w[0..3] little-endian 64-bit words.
inline V5 load_wide(const U256* p) {
  // Gather the four 64-bit words of each of the 8 U256 into word-sliced
  // vectors, lane order (0,4,1,5,2,6,3,7) to match load_fp.
  const __m512i a = _mm512_loadu_si512(p);      // lanes 0,1: w0..w3 | w0..w3
  const __m512i b = _mm512_loadu_si512(p + 2);  // lanes 2,3
  const __m512i c = _mm512_loadu_si512(p + 4);  // lanes 4,5
  const __m512i d = _mm512_loadu_si512(p + 6);  // lanes 6,7
  // 128-bit blocks: a = [L0w01, L0w23, L1w01, L1w23], etc. Build w01/w23
  // vectors for all 8 lanes with two shuffles, then unpack.
  const __m512i w01_a = _mm512_shuffle_i64x2(a, b, 0x88);  // L0w01 L1w01 L2w01 L3w01
  const __m512i w01_b = _mm512_shuffle_i64x2(c, d, 0x88);  // L4..L7 w01
  const __m512i w23_a = _mm512_shuffle_i64x2(a, b, 0xdd);
  const __m512i w23_b = _mm512_shuffle_i64x2(c, d, 0xdd);
  const __m512i w0 = _mm512_unpacklo_epi64(w01_a, w01_b);  // order 0,4,1,5,...
  const __m512i w1 = _mm512_unpackhi_epi64(w01_a, w01_b);
  const __m512i w2 = _mm512_unpacklo_epi64(w23_a, w23_b);
  const __m512i w3 = _mm512_unpackhi_epi64(w23_a, w23_b);
  V5 r;
  r.l[0] = _mm512_and_si512(w0, m52());
  r.l[1] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(w0, 52), _mm512_slli_epi64(w1, 12)), m52());
  r.l[2] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(w1, 40), _mm512_slli_epi64(w2, 24)), m52());
  r.l[3] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(w2, 28), _mm512_slli_epi64(w3, 36)), m52());
  r.l[4] = _mm512_srli_epi64(w3, 16);  // bits 208..255
  return r;
}

inline void store_wide(U256* p, const V5& v) {
  const __m512i w0 = _mm512_or_si512(v.l[0], _mm512_slli_epi64(v.l[1], 52));
  const __m512i w1 = _mm512_or_si512(_mm512_srli_epi64(v.l[1], 12),
                                     _mm512_slli_epi64(v.l[2], 40));
  const __m512i w2 = _mm512_or_si512(_mm512_srli_epi64(v.l[2], 24),
                                     _mm512_slli_epi64(v.l[3], 28));
  const __m512i w3 = _mm512_or_si512(_mm512_srli_epi64(v.l[3], 36),
                                     _mm512_slli_epi64(v.l[4], 16));
  const __m512i w01 = _mm512_unpacklo_epi64(w0, w1);   // lanes 0..3: (w0,w1)
  const __m512i w23 = _mm512_unpacklo_epi64(w2, w3);   // lanes 0..3: (w2,w3)
  const __m512i w01h = _mm512_unpackhi_epi64(w0, w1);  // lanes 4..7
  const __m512i w23h = _mm512_unpackhi_epi64(w2, w3);
  // Reassemble per-lane [w0 w1 w2 w3] blocks: interleave the (w0,w1) and
  // (w2,w3) qword pairs of two consecutive lanes per 512-bit store.
  const __m512i idx_lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
  const __m512i idx_hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
  _mm512_storeu_si512(p, _mm512_permutex2var_epi64(w01, idx_lo, w23));  // 0,1
  _mm512_storeu_si512(p + 2, _mm512_permutex2var_epi64(w01, idx_hi, w23));  // 2,3
  _mm512_storeu_si512(p + 4, _mm512_permutex2var_epi64(w01h, idx_lo, w23h));
  _mm512_storeu_si512(p + 6, _mm512_permutex2var_epi64(w01h, idx_hi, w23h));
}

// --- arithmetic cores ------------------------------------------------------

// 128x128 -> 254/256-bit product as 5 carried radix-52 limbs. Operands must
// be normalized (l0,l1 < 2^52; l2 < 2^25 suffices — lazy Karatsuba sums
// have l2 <= 2^24). 9 madd52lo + 8 madd52hi; hi(a2,b2) is identically zero
// because a2*b2 < 2^50 never reaches bit 52.
inline V5 mul_core(const V3& a, const V3& b) {
  const __m512i z = _mm512_setzero_si512();
  __m512i c0 = _mm512_madd52lo_epu64(z, a.l[0], b.l[0]);
  __m512i c1 = _mm512_madd52lo_epu64(z, a.l[0], b.l[1]);
  c1 = _mm512_madd52lo_epu64(c1, a.l[1], b.l[0]);
  c1 = _mm512_madd52hi_epu64(c1, a.l[0], b.l[0]);
  __m512i c2 = _mm512_madd52lo_epu64(z, a.l[0], b.l[2]);
  c2 = _mm512_madd52lo_epu64(c2, a.l[1], b.l[1]);
  c2 = _mm512_madd52lo_epu64(c2, a.l[2], b.l[0]);
  c2 = _mm512_madd52hi_epu64(c2, a.l[0], b.l[1]);
  c2 = _mm512_madd52hi_epu64(c2, a.l[1], b.l[0]);
  __m512i c3 = _mm512_madd52lo_epu64(z, a.l[1], b.l[2]);
  c3 = _mm512_madd52lo_epu64(c3, a.l[2], b.l[1]);
  c3 = _mm512_madd52hi_epu64(c3, a.l[0], b.l[2]);
  c3 = _mm512_madd52hi_epu64(c3, a.l[1], b.l[1]);
  c3 = _mm512_madd52hi_epu64(c3, a.l[2], b.l[0]);
  __m512i c4 = _mm512_madd52lo_epu64(z, a.l[2], b.l[2]);
  c4 = _mm512_madd52hi_epu64(c4, a.l[1], b.l[2]);
  c4 = _mm512_madd52hi_epu64(c4, a.l[2], b.l[1]);
  V5 r;
  __m512i carry = _mm512_srli_epi64(c0, 52);
  r.l[0] = _mm512_and_si512(c0, m52());
  c1 = _mm512_add_epi64(c1, carry);
  carry = _mm512_srli_epi64(c1, 52);
  r.l[1] = _mm512_and_si512(c1, m52());
  c2 = _mm512_add_epi64(c2, carry);
  carry = _mm512_srli_epi64(c2, 52);
  r.l[2] = _mm512_and_si512(c2, m52());
  c3 = _mm512_add_epi64(c3, carry);
  carry = _mm512_srli_epi64(c3, 52);
  r.l[3] = _mm512_and_si512(c3, m52());
  r.l[4] = _mm512_add_epi64(c4, carry);  // < 2^52: product < 2^256
  return r;
}

// Canonicalise s (3 limbs, l0/l1 < 2^52, l2 carrying any bits >= 127, so
// l2 may reach ~2^27): fold bits >= 127 (2^127 === 1 mod p), then one
// conditional subtract of p — exactly Fp::make_canonical.
inline V3 fold_canonical(__m512i l0, __m512i l1, __m512i l2) {
  const __m512i hi = _mm512_srli_epi64(l2, 23);  // value >> 127
  l2 = _mm512_and_si512(l2, m23());
  __m512i s0 = _mm512_add_epi64(l0, hi);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(l1, c);
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  const __m512i s2 = _mm512_add_epi64(l2, c);  // <= 2^23 + 1: s <= p + small
  // u = s + 1; bit 127 of u (bit 23 of u2) set iff s >= p.
  __m512i u0 = _mm512_add_epi64(s0, _mm512_set1_epi64(1));
  c = _mm512_srli_epi64(u0, 52);
  u0 = _mm512_and_si512(u0, m52());
  __m512i u1 = _mm512_add_epi64(s1, c);
  c = _mm512_srli_epi64(u1, 52);
  u1 = _mm512_and_si512(u1, m52());
  const __m512i u2 = _mm512_add_epi64(s2, c);
  const __mmask8 ge = _mm512_test_epi64_mask(u2, _mm512_set1_epi64(1ll << 23));
  V3 r;
  r.l[0] = _mm512_mask_blend_epi64(ge, s0, u0);
  r.l[1] = _mm512_mask_blend_epi64(ge, s1, u1);
  r.l[2] = _mm512_mask_blend_epi64(ge, s2, _mm512_and_si512(u2, m23()));
  return r;
}

// Mersenne fold of a carried 5-limb value (Fp::reduce_wide): split at bits
// 127 and 254, add the three parts, canonicalise.
inline V3 reduce_core(const V5& v) {
  // A = bits [126:0].
  const __m512i a0 = v.l[0];
  const __m512i a1 = v.l[1];
  const __m512i a2 = _mm512_and_si512(v.l[2], m23());
  // B = bits [253:127]: bits 23.. of limb 2, then limbs 3, 4.
  const __m512i b0 = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(v.l[2], 23), _mm512_slli_epi64(v.l[3], 29)),
      m52());
  const __m512i b1 = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(v.l[3], 23), _mm512_slli_epi64(v.l[4], 29)),
      m52());
  const __m512i b2 = _mm512_and_si512(_mm512_srli_epi64(v.l[4], 23), m23());
  // C = bits [255:254], < 4.
  const __m512i cc = _mm512_srli_epi64(v.l[4], 46);
  __m512i s0 = _mm512_add_epi64(a0, b0);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a1, b1), c);
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  const __m512i s2 = _mm512_add_epi64(_mm512_add_epi64(a2, b2), c);
  const V3 ab = fold_canonical(s0, s1, s2);
  return fold_canonical(_mm512_add_epi64(ab.l[0], cc), ab.l[1], ab.l[2]);
}

// r = a + b mod p on canonical inputs (Fp operator+).
inline V3 add_core(const V3& a, const V3& b) {
  __m512i s0 = _mm512_add_epi64(a.l[0], b.l[0]);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a.l[1], b.l[1]), c);
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  const __m512i s2 = _mm512_add_epi64(_mm512_add_epi64(a.l[2], b.l[2]), c);
  return fold_canonical(s0, s1, s2);
}

// r = a - b mod p on canonical inputs, branchlessly as a + p - b (in
// [1, 2p-1]) followed by the canonical fold — lands on the same value as
// the scalar operator-. Complement-within-52-bits implements the borrow.
inline V3 sub_core(const V3& a, const V3& b) {
  const __m512i nb0 = _mm512_xor_si512(b.l[0], m52());
  const __m512i nb1 = _mm512_xor_si512(b.l[1], m52());
  const __m512i nb2 = _mm512_xor_si512(b.l[2], m52());
  const __m512i p2 = m23();  // p = [m52, m52, 2^23 - 1]
  __m512i s0 = _mm512_add_epi64(_mm512_add_epi64(a.l[0], m52()),
                                _mm512_add_epi64(nb0, _mm512_set1_epi64(1)));
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a.l[1], m52()),
                                _mm512_add_epi64(nb1, c));
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  __m512i s2 = _mm512_add_epi64(_mm512_add_epi64(a.l[2], p2),
                                _mm512_add_epi64(nb2, c));
  // a + p - b < 2^128: keep bits 104..127 of the limb-2 column, dropping
  // the 2^156-scale complement carry.
  s2 = _mm512_and_si512(s2, _mm512_set1_epi64(0xffffffll));
  return fold_canonical(s0, s1, s2);
}

// Lazy 128-bit sum (Karatsuba t2/t3): no reduction, normalized limbs with
// l2 <= 2^24 — still valid mul_core input.
inline V3 add_lazy(const V3& a, const V3& b) {
  __m512i s0 = _mm512_add_epi64(a.l[0], b.l[0]);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a.l[1], b.l[1]), c);
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  V3 r;
  r.l[0] = s0;
  r.l[1] = s1;
  r.l[2] = _mm512_add_epi64(_mm512_add_epi64(a.l[2], b.l[2]), c);
  return r;
}

// 5-limb add (t5 = t0 + t1 < 2^255), renormalized.
inline V5 add_wide(const V5& a, const V5& b) {
  V5 r;
  __m512i c = _mm512_setzero_si512();
  for (int k = 0; k < 5; ++k) {
    const __m512i s = _mm512_add_epi64(_mm512_add_epi64(a.l[k], b.l[k]), c);
    r.l[k] = _mm512_and_si512(s, m52());
    c = _mm512_srli_epi64(s, 52);
  }
  return r;  // sum < 2^260: final carry is zero
}

// 5-limb subtract r = a - b (mod 2^260); borrowed lanes reported in the
// returned mask.
inline V5 sub_wide(const V5& a, const V5& b, __mmask8& borrow) {
  V5 r;
  __m512i c = _mm512_set1_epi64(1);
  for (int k = 0; k < 5; ++k) {
    const __m512i nb = _mm512_xor_si512(b.l[k], m52());
    const __m512i s = _mm512_add_epi64(_mm512_add_epi64(a.l[k], nb), c);
    r.l[k] = _mm512_and_si512(s, m52());
    c = _mm512_srli_epi64(s, 52);
  }
  borrow = _mm512_cmpeq_epi64_mask(c, _mm512_setzero_si512());
  return r;
}

// Fp2 Karatsuba with lazy reduction (paper Alg. 2), stage for stage the
// same flow as Fp2::mul_karatsuba.
inline void fp2_mul_core(const V3& x0, const V3& x1, const V3& y0, const V3& y1,
                         V3& z0, V3& z1) {
  const V5 t0 = mul_core(x0, y0);
  const V5 t1 = mul_core(x1, y1);
  const V3 t2 = add_lazy(x0, x1);
  const V3 t3 = add_lazy(y0, y1);
  const V5 t6 = mul_core(t2, t3);
  __mmask8 borrow;
  const V5 t4 = sub_wide(t0, t1, borrow);
  const V5 t5 = add_wide(t0, t1);
  // t7 = t4 + (p << 127) in borrowed lanes; the carry-out cancels the
  // borrow exactly (t1 <= p^2 < p * 2^127). p<<127 = 2^254 - 2^127 in
  // radix-52: [0, 0, 2^52 - 2^23, 2^52 - 1, 2^46 - 1].
  const __m512i ps2 = _mm512_set1_epi64(0xfffffff800000ll);
  const __m512i ps3 = m52();
  const __m512i ps4 = _mm512_set1_epi64(0x3fffffffffffll);
  V5 t7;
  t7.l[0] = t4.l[0];
  t7.l[1] = t4.l[1];
  __m512i s = _mm512_mask_add_epi64(t4.l[2], borrow, t4.l[2], ps2);
  __m512i c = _mm512_srli_epi64(s, 52);
  t7.l[2] = _mm512_and_si512(s, m52());
  s = _mm512_add_epi64(_mm512_mask_add_epi64(t4.l[3], borrow, t4.l[3], ps3), c);
  c = _mm512_srli_epi64(s, 52);
  t7.l[3] = _mm512_and_si512(s, m52());
  s = _mm512_add_epi64(_mm512_mask_add_epi64(t4.l[4], borrow, t4.l[4], ps4), c);
  t7.l[4] = _mm512_and_si512(s, m52());  // drop the borrow-cancelling carry
  __mmask8 borrow2;  // always clear: t6 >= t0 + t1
  const V5 t8 = sub_wide(t6, t5, borrow2);
  z0 = reduce_core(t7);
  z1 = reduce_core(t8);
}

// --- fused mixed addition --------------------------------------------------
//
// The point kernel keeps all 7 muls and 7 adds of the mixed-addition
// formula in the limb domain, converting each coordinate exactly once at
// load/store. The adds between the muls are only *semi*-reduced: one fold
// of bits >= 127 without the conditional subtract, giving values
// < 2^127 + 4 with normalized limbs — valid mul_core operands. Two
// consequences feed the bounds below:
//  * semi x semi products reach 2^254 + 2^131, so a borrowed Karatsuba
//    real part is compensated with (2p) << 127 = 2^255 - 2^128 (=== 0
//    mod p) instead of p << 127; the borrow cancels whenever
//    t1 < 2^255 - 2^128, which semi operands always satisfy.
//  * the cross product (x0+x1)(y0+y1) of semi sums reaches 2^256 + 2^133;
//    limb 4 stays < 2^49 and reduce_core's bits-254+ split covers it.
// Every stored output passes through reduce_core, so the results are the
// canonical representatives — the same bits the scalar formula stores,
// because the canonical form is unique.

// One fold of bits >= 127 (2^127 === 1 mod p), no conditional subtract:
// value < 2^127 + 4, limbs normalized (l2 <= 2^23 + 1). Input l2 may carry
// lazy-sum bits up to ~2^26.
inline V3 fold_semi(__m512i l0, __m512i l1, __m512i l2) {
  const __m512i hi = _mm512_srli_epi64(l2, 23);  // value >> 127
  l2 = _mm512_and_si512(l2, m23());
  __m512i s0 = _mm512_add_epi64(l0, hi);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(l1, c);
  c = _mm512_srli_epi64(s1, 52);
  V3 r;
  r.l[0] = s0;
  r.l[1] = _mm512_and_si512(s1, m52());
  r.l[2] = _mm512_add_epi64(l2, c);
  return r;
}

// Semi-reduced sum: a + b folded once. Inputs semi or canonical.
inline V3 add_semi(const V3& a, const V3& b) {
  const V3 s = add_lazy(a, b);
  return fold_semi(s.l[0], s.l[1], s.l[2]);
}

// Semi-reduced difference a - b mod p, computed branchlessly as
// a + 2p - b (non-negative for any canonical b, even when a is a lazy
// 128-bit sum) and folded once. b must have canonical-range limbs;
// 2p = 2^128 - 2 = [2^52 - 2, 2^52 - 1, 2^24 - 1] in radix 52, and the
// per-limb complement's 2^156-scale excess is dropped from the top limb
// exactly like sub_core does.
inline V3 sub_semi(const V3& a, const V3& b) {
  const __m512i nb0 = _mm512_xor_si512(b.l[0], m52());
  const __m512i nb1 = _mm512_xor_si512(b.l[1], m52());
  const __m512i nb2 = _mm512_xor_si512(b.l[2], m52());
  // limb0 of 2p plus the complement's +1: (2^52 - 2) + 1 = m52.
  __m512i s0 = _mm512_add_epi64(_mm512_add_epi64(a.l[0], nb0), m52());
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a.l[1], m52()),
                                _mm512_add_epi64(nb1, c));
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  __m512i s2 = _mm512_add_epi64(
      _mm512_add_epi64(a.l[2], _mm512_set1_epi64(0xffffffll)),
      _mm512_add_epi64(nb2, c));
  s2 = _mm512_and_si512(s2, m52());  // drop the complement carry (bit 52)
  return fold_semi(s0, s1, s2);
}

// fp2_mul_core for semi-reduced operands: identical flow, but the borrow
// compensation is (2p) << 127 = 2^255 - 2^128, radix-52 limbs
// [0, 0, 2^52 - 2^24, 2^52 - 1, 2^47 - 1]. Outputs canonical.
inline void fp2_mul_semi(const V3& x0, const V3& x1, const V3& y0, const V3& y1,
                         V3& z0, V3& z1) {
  const V5 t0 = mul_core(x0, y0);
  const V5 t1 = mul_core(x1, y1);
  const V3 t2 = add_lazy(x0, x1);
  const V3 t3 = add_lazy(y0, y1);
  const V5 t6 = mul_core(t2, t3);
  __mmask8 borrow;
  const V5 t4 = sub_wide(t0, t1, borrow);
  const V5 t5 = add_wide(t0, t1);
  const __m512i ps2 = _mm512_set1_epi64(0xfffffff000000ll);
  const __m512i ps3 = m52();
  const __m512i ps4 = _mm512_set1_epi64(0x7fffffffffffll);
  V5 t7;
  t7.l[0] = t4.l[0];
  t7.l[1] = t4.l[1];
  __m512i s = _mm512_mask_add_epi64(t4.l[2], borrow, t4.l[2], ps2);
  __m512i c = _mm512_srli_epi64(s, 52);
  t7.l[2] = _mm512_and_si512(s, m52());
  s = _mm512_add_epi64(_mm512_mask_add_epi64(t4.l[3], borrow, t4.l[3], ps3), c);
  c = _mm512_srli_epi64(s, 52);
  t7.l[3] = _mm512_and_si512(s, m52());
  s = _mm512_add_epi64(_mm512_mask_add_epi64(t4.l[4], borrow, t4.l[4], ps4), c);
  t7.l[4] = _mm512_and_si512(s, m52());  // drop the borrow-cancelling carry
  __mmask8 borrow2;  // always clear: t6 >= t0 + t1
  const V5 t8 = sub_wide(t6, t5, borrow2);
  z0 = reduce_core(t7);
  z1 = reduce_core(t8);
}

void v_pt_addmix(u128* const* p, const u128* const* q, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    const V3 X0 = load_fp(p[0] + i), X1 = load_fp(p[1] + i);
    const V3 Y0 = load_fp(p[2] + i), Y1 = load_fp(p[3] + i);
    const V3 Z0 = load_fp(p[4] + i), Z1 = load_fp(p[5] + i);
    V3 t0, t1, a0, a1, b0, b1, c0, c1;
    fp2_mul_semi(load_fp(p[6] + i), load_fp(p[7] + i), load_fp(p[8] + i),
                 load_fp(p[9] + i), t0, t1);                    // t = Ta*Tb
    fp2_mul_semi(sub_semi(Y0, X0), sub_semi(Y1, X1), load_fp(q[2] + i),
                 load_fp(q[3] + i), a0, a1);                    // a = (Y-X)*ymx
    fp2_mul_semi(add_semi(Y0, X0), add_semi(Y1, X1), load_fp(q[0] + i),
                 load_fp(q[1] + i), b0, b1);                    // b = (Y+X)*xpy
    fp2_mul_semi(t0, t1, load_fp(q[4] + i), load_fp(q[5] + i), c0, c1);
    const V3 d0 = add_lazy(Z0, Z0), d1 = add_lazy(Z1, Z1);      // d = 2Z
    const V3 e0 = sub_core(b0, a0), e1 = sub_core(b1, a1);      // e = b-a
    const V3 f0 = sub_semi(d0, c0), f1 = sub_semi(d1, c1);      // f = d-c
    const V3 g0 = add_semi(d0, c0), g1 = add_semi(d1, c1);      // g = d+c
    const V3 h0 = add_core(b0, a0), h1 = add_core(b1, a1);      // h = b+a
    V3 r0, r1;
    fp2_mul_semi(e0, e1, f0, f1, r0, r1);                       // X = e*f
    store_fp(p[0] + i, r0);
    store_fp(p[1] + i, r1);
    fp2_mul_semi(g0, g1, h0, h1, r0, r1);                       // Y = g*h
    store_fp(p[2] + i, r0);
    store_fp(p[3] + i, r1);
    fp2_mul_semi(f0, f1, g0, g1, r0, r1);                       // Z = f*g
    store_fp(p[4] + i, r0);
    store_fp(p[5] + i, r1);
    store_fp(p[6] + i, e0);                                     // Ta = e
    store_fp(p[7] + i, e1);
    store_fp(p[8] + i, h0);                                     // Tb = h
    store_fp(p[9] + i, h1);
  }
  if (i < n) {
    u128* pt[10];
    const u128* qt[6];
    for (int k = 0; k < 10; ++k) pt[k] = p[k] + i;
    for (int k = 0; k < 6; ++k) qt[k] = q[k] + i;
    generic_kernels().pt_addmix(pt, qt, n - i);
  }
}

// --- kernel entry points ---------------------------------------------------

void v_mul_wide(const u128* a, const u128* b, U256* r, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL)
    store_wide(r + i, mul_core(load_fp(a + i), load_fp(b + i)));
  if (i < n) generic_kernels().mul_wide(a + i, b + i, r + i, n - i);
}

void v_sqr_wide(const u128* a, U256* r, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    const V3 v = load_fp(a + i);
    store_wide(r + i, mul_core(v, v));
  }
  if (i < n) generic_kernels().sqr_wide(a + i, r + i, n - i);
}

void v_reduce_wide(const U256* v, u128* r, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL)
    store_fp(r + i, reduce_core(load_wide(v + i)));
  if (i < n) generic_kernels().reduce_wide(v + i, r + i, n - i);
}

void v_fp_mul(const u128* a, const u128* b, u128* r, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL)
    store_fp(r + i, reduce_core(mul_core(load_fp(a + i), load_fp(b + i))));
  if (i < n) generic_kernels().fp_mul(a + i, b + i, r + i, n - i);
}

void v_fp2_mul(const u128* are, const u128* aim, const u128* bre,
               const u128* bim, u128* rre, u128* rim, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    V3 z0, z1;
    fp2_mul_core(load_fp(are + i), load_fp(aim + i), load_fp(bre + i),
                 load_fp(bim + i), z0, z1);
    store_fp(rre + i, z0);
    store_fp(rim + i, z1);
  }
  if (i < n)
    generic_kernels().fp2_mul(are + i, aim + i, bre + i, bim + i, rre + i,
                              rim + i, n - i);
}

void v_fp2_add(const u128* are, const u128* aim, const u128* bre,
               const u128* bim, u128* rre, u128* rim, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    const V3 re = add_core(load_fp(are + i), load_fp(bre + i));
    const V3 im = add_core(load_fp(aim + i), load_fp(bim + i));
    store_fp(rre + i, re);
    store_fp(rim + i, im);
  }
  if (i < n)
    generic_kernels().fp2_add(are + i, aim + i, bre + i, bim + i, rre + i,
                              rim + i, n - i);
}

void v_fp2_sub(const u128* are, const u128* aim, const u128* bre,
               const u128* bim, u128* rre, u128* rim, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    const V3 re = sub_core(load_fp(are + i), load_fp(bre + i));
    const V3 im = sub_core(load_fp(aim + i), load_fp(bim + i));
    store_fp(rre + i, re);
    store_fp(rim + i, im);
  }
  if (i < n)
    generic_kernels().fp2_sub(are + i, aim + i, bre + i, bim + i, rre + i,
                              rim + i, n - i);
}

void v_fp2_conj(const u128* are, const u128* aim, u128* rre, u128* rim,
                size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    V3 zero;
    for (auto& v : zero.l) v = _mm512_setzero_si512();
    const V3 re = load_fp(are + i);
    const V3 im = sub_core(zero, load_fp(aim + i));
    store_fp(rre + i, re);
    store_fp(rim + i, im);
  }
  if (i < n) generic_kernels().fp2_conj(are + i, aim + i, rre + i, rim + i, n - i);
}

// --- lane-executor ops ------------------------------------------------------
//
// WaveBlock layout: six rows of 8 u64 — re limbs 0, 1, 2, then im limbs 0,
// 1, 2 — with lane l in column l, so a wave op is loads, arithmetic,
// stores: no radix conversion between ops. All 8 lanes are computed
// regardless of n (unused lanes hold earlier or zero values).
//
// Values inside a wave are semi-reduced: every op accepts limbs l0, l1 <
// 2^52 and l2 < 2^24 and returns some representative below 2^127 + 2^111
// (< 2p) of the residue, with no conditional subtract. Only w_get
// canonicalises, so outputs are the canonical bits whatever representative
// the state held. The ops:
//  * mul: F_{p^2} schoolbook in columns. Each product of 3-limb operands
//    is 9 madd52lo + 8 madd52hi (hi of l2*l2 < 2^48 is zero), at most 5
//    terms < 2^52 per column. im = a0*b1 + a1*b0 accumulates directly;
//    re = a0*b0 - a1*b1 starts the a0*b0 columns at kReBias, a multiple of
//    p whose columns are all >= 2^55 > 5 * 2^52, so subtracting the a1*b1
//    columns never goes negative. All columns stay < 2^57.
//  * reduce5: 2^156 = 2^29 and 2^208 = 2^81 (mod p) fold columns 3 and 4
//    into limbs 0..2 at shifts 29 and 81, limb 2's bits >= 127 fold into
//    limb 0, and one carry sweep leaves l0, l1 < 2^52, l2 < 2^23 + 2^7
//    (value < 2^127 + 2^111).
//  * add: limb sums, then the same fold + sweep. sub / conj: a - b + 4p,
//    with 4p = [2^53 - 4, 2^53 - 2, 2^25 - 2] in limbs each >= the largest
//    limb of b, so every limb difference is non-negative.

inline uint64_t* rows(WaveBlock& b) { return reinterpret_cast<uint64_t*>(b.bytes); }
inline const uint64_t* rows(const WaveBlock& b) {
  return reinterpret_cast<const uint64_t*>(b.bytes);
}

inline V3 load_part(const WaveBlock& b, int part) {
  const uint64_t* p = rows(b) + 24 * part;
  return V3{{_mm512_load_si512(p), _mm512_load_si512(p + 8), _mm512_load_si512(p + 16)}};
}

inline void store_part(WaveBlock& b, int part, const V3& v) {
  uint64_t* p = rows(b) + 24 * part;
  _mm512_store_si512(p, v.l[0]);
  _mm512_store_si512(p + 8, v.l[1]);
  _mm512_store_si512(p + 16, v.l[2]);
}

// kReBias = 2^55 * (1 + 2^52 + 2^104 + 2^156 + 2^208) + (p - X), with X that
// first sum reduced mod p: 2^55 + 2^107 + 2^32 + 2^84 + 2^9. Columns 0..2
// carry the 3 limbs of p - X, so the whole value is 0 mod p.
constexpr u128 kBiasResidue =
    ((static_cast<u128>(1) << 127) - 1) -
    ((static_cast<u128>(1) << 55) + (static_cast<u128>(1) << 107) +
     (static_cast<u128>(1) << 32) + (static_cast<u128>(1) << 84) + (static_cast<u128>(1) << 9));
constexpr uint64_t kBias = 1ull << 55;
constexpr uint64_t kReBias[5] = {
    kBias + (static_cast<uint64_t>(kBiasResidue) & 0xfffffffffffffull),
    kBias + (static_cast<uint64_t>(kBiasResidue >> 52) & 0xfffffffffffffull),
    kBias + static_cast<uint64_t>(kBiasResidue >> 104), kBias, kBias};

// c[k] += a * b in columns (c[0..4], weights 2^(52k)).
inline void mac(__m512i* c, const V3& a, const V3& b) {
  c[0] = _mm512_madd52lo_epu64(c[0], a.l[0], b.l[0]);
  c[1] = _mm512_madd52lo_epu64(c[1], a.l[0], b.l[1]);
  c[1] = _mm512_madd52lo_epu64(c[1], a.l[1], b.l[0]);
  c[1] = _mm512_madd52hi_epu64(c[1], a.l[0], b.l[0]);
  c[2] = _mm512_madd52lo_epu64(c[2], a.l[0], b.l[2]);
  c[2] = _mm512_madd52lo_epu64(c[2], a.l[1], b.l[1]);
  c[2] = _mm512_madd52lo_epu64(c[2], a.l[2], b.l[0]);
  c[2] = _mm512_madd52hi_epu64(c[2], a.l[0], b.l[1]);
  c[2] = _mm512_madd52hi_epu64(c[2], a.l[1], b.l[0]);
  c[3] = _mm512_madd52lo_epu64(c[3], a.l[1], b.l[2]);
  c[3] = _mm512_madd52lo_epu64(c[3], a.l[2], b.l[1]);
  c[3] = _mm512_madd52hi_epu64(c[3], a.l[0], b.l[2]);
  c[3] = _mm512_madd52hi_epu64(c[3], a.l[1], b.l[1]);
  c[3] = _mm512_madd52hi_epu64(c[3], a.l[2], b.l[0]);
  c[4] = _mm512_madd52lo_epu64(c[4], a.l[2], b.l[2]);
  c[4] = _mm512_madd52hi_epu64(c[4], a.l[1], b.l[2]);
  c[4] = _mm512_madd52hi_epu64(c[4], a.l[2], b.l[1]);
}

// Limbs s0, s1, s2 < 2^58 -> semi-reduced: fold limb 2's bits >= 127 into
// limb 0, then one carry sweep.
inline V3 fold_sweep(__m512i s0, __m512i s1, __m512i s2) {
  s0 = _mm512_add_epi64(s0, _mm512_srli_epi64(s2, 23));
  s2 = _mm512_and_si512(s2, m23());
  s1 = _mm512_add_epi64(s1, _mm512_srli_epi64(s0, 52));
  s2 = _mm512_add_epi64(s2, _mm512_srli_epi64(s1, 52));
  return V3{{_mm512_and_si512(s0, m52()), _mm512_and_si512(s1, m52()), s2}};
}

// Columns c[0..4] < 2^57 -> semi-reduced element.
inline V3 reduce5(const __m512i* c) {
  const __m512i s0 = _mm512_add_epi64(
      c[0], _mm512_slli_epi64(_mm512_and_si512(c[3], m23()), 29));
  const __m512i s1 = _mm512_add_epi64(
      _mm512_add_epi64(c[1], _mm512_srli_epi64(c[3], 23)),
      _mm512_slli_epi64(_mm512_and_si512(c[4], m23()), 29));
  const __m512i s2 = _mm512_add_epi64(c[2], _mm512_srli_epi64(c[4], 23));
  return fold_sweep(s0, s1, s2);
}

inline V3 add_semi_wave(const V3& a, const V3& b) {
  return fold_sweep(_mm512_add_epi64(a.l[0], b.l[0]), _mm512_add_epi64(a.l[1], b.l[1]),
                    _mm512_add_epi64(a.l[2], b.l[2]));
}

inline V3 sub_semi_wave(const V3& a, const V3& b) {
  const __m512i f0 = _mm512_set1_epi64((1ll << 53) - 4);
  const __m512i f1 = _mm512_set1_epi64((1ll << 53) - 2);
  const __m512i f2 = _mm512_set1_epi64((1ll << 25) - 2);
  return fold_sweep(_mm512_sub_epi64(_mm512_add_epi64(a.l[0], f0), b.l[0]),
                    _mm512_sub_epi64(_mm512_add_epi64(a.l[1], f1), b.l[1]),
                    _mm512_sub_epi64(_mm512_add_epi64(a.l[2], f2), b.l[2]));
}

void w_mul(const WaveBlock& a, const WaveBlock& b, WaveBlock& r, size_t) {
  const V3 x0 = load_part(a, 0), x1 = load_part(a, 1);
  const V3 y0 = load_part(b, 0), y1 = load_part(b, 1);
  __m512i re[5], neg[5], im[5], im2[5];
  for (int k = 0; k < 5; ++k) {
    re[k] = _mm512_set1_epi64(static_cast<long long>(kReBias[k]));
    neg[k] = im[k] = im2[k] = _mm512_setzero_si512();
  }
  mac(re, x0, y0);
  mac(neg, x1, y1);
  mac(im, x0, y1);
  mac(im2, x1, y0);
  for (int k = 0; k < 5; ++k) {
    re[k] = _mm512_sub_epi64(re[k], neg[k]);
    im[k] = _mm512_add_epi64(im[k], im2[k]);
  }
  store_part(r, 0, reduce5(re));
  store_part(r, 1, reduce5(im));
}

void w_add(const WaveBlock& a, const WaveBlock& b, WaveBlock& r, size_t) {
  store_part(r, 0, add_semi_wave(load_part(a, 0), load_part(b, 0)));
  store_part(r, 1, add_semi_wave(load_part(a, 1), load_part(b, 1)));
}

void w_sub(const WaveBlock& a, const WaveBlock& b, WaveBlock& r, size_t) {
  store_part(r, 0, sub_semi_wave(load_part(a, 0), load_part(b, 0)));
  store_part(r, 1, sub_semi_wave(load_part(a, 1), load_part(b, 1)));
}

void w_conj(const WaveBlock& a, WaveBlock& r, size_t) {
  V3 zero;
  for (auto& v : zero.l) v = _mm512_setzero_si512();
  store_part(r, 0, load_part(a, 0));
  store_part(r, 1, sub_semi_wave(zero, load_part(a, 1)));
}

void w_gather(const WaveBlock* const* src, WaveBlock& r, size_t n) {
  uint64_t* d = rows(r);
  for (size_t l = 0; l < n; ++l) {
    const uint64_t* s = rows(*src[l]);
    for (size_t k = 0; k < 6; ++k) d[8 * k + l] = s[8 * k + l];
  }
}

void w_set(WaveBlock& b, size_t lane, u128 re, u128 im) {
  uint64_t* d = rows(b) + lane;
  const u128 v[2] = {re, im};
  for (size_t c = 0; c < 2; ++c) {
    d[24 * c] = static_cast<uint64_t>(v[c]) & 0xfffffffffffffull;
    d[24 * c + 8] = static_cast<uint64_t>(v[c] >> 52) & 0xfffffffffffffull;
    d[24 * c + 16] = static_cast<uint64_t>(v[c] >> 104);
  }
}

// Semi-reduced limbs -> canonical. Every wave value is below 2^127 + 2^111
// < 2p, so one conditional subtract suffices (as alg2::canon).
void w_get(const WaveBlock& b, size_t lane, u128& re, u128& im) {
  const uint64_t* s = rows(b) + lane;
  constexpr u128 kP = (static_cast<u128>(1) << 127) - 1;
  u128 v[2];
  for (size_t c = 0; c < 2; ++c) {
    u128 x = static_cast<u128>(s[24 * c]) | (static_cast<u128>(s[24 * c + 8]) << 52) |
             (static_cast<u128>(s[24 * c + 16]) << 104);
    v[c] = (x + ((x + 1) >> 127)) & kP;
  }
  re = v[0];
  im = v[1];
}

constexpr Kernels kAvx512 = {
    "avx512",  v_mul_wide, v_sqr_wide, v_reduce_wide, v_fp_mul,
    v_fp2_mul, v_fp2_add,  v_fp2_sub,  v_fp2_conj,   v_pt_addmix, 8,
    {w_mul, w_add, w_sub, w_conj, w_gather, w_set, w_get},
};

}  // namespace

const Kernels& avx512_kernels() { return kAvx512; }

}  // namespace fourq::field::lanes

#endif  // FOURQ_LANES_AVX512_ENABLED
