// Magnitude contracts of the lazy-reduction datapath (paper Alg. 2).
//
// The redundant operand representation carries values *wide* between units
// and reduces only where Algorithm 2 demands it, so correctness rests on
// every intermediate provably fitting its stage register. This header is
// the single written form of those contracts, shared by three layers that
// must agree bit-for-bit:
//
//  * field/alg2.hpp — the C++ stage code under Fp, Fp2 and the generic lane
//    kernels, whose operations realise the transfer semantics (mul of
//    canonical operands < 2^254, fold accepts < 2^256, canonical results
//    in [0, p));
//  * rtl/fp2_mul_pipeline.hpp — the stage-accurate pipeline model, whose
//    rtl::StageWidths runtime-asserts these widths on one concrete run;
//  * analysis/range — the abstract-interpretation pass that *proves* the
//    widths statically, for all inputs, on every scheduled program
//    (docs/ANALYSIS.md, `fourqc lint --ranges`).
//
// Per-site transfer annotations (u = unreduced / lazy, c = canonical):
//
//   site (alg2.hpp)            operands          result magnitude   register
//   ------------------------   ---------------   ----------------   --------
//   mul t0, t1                 < 2^127           <= a*b < 2^254     254 bits
//   lazy sum t2, t3            c                 <= a+b < 2^128     128 bits
//   add4 t5 = t0+t1            u254              < 2^255            256 bits
//   mul t6 = t2*t3             < 2^128           < 2^256            256 bits
//   t7 = t0-t1 (+p<<127)       t1 <= p*2^127     < 2^254            254 bits
//   t8 = t6-t5 (Karatsuba      t6 >= t5 by the   <= t6 < 2^256      256 bits
//        middle term)          product identity
//   fold (t9/t10)              < 2^256           canonical          127 bits
//   fp2_sqr lazy operands      a+b, a+p-b, b+b   < 2^128            128 bits
//   add / sub fold             sum < 2^128       canonical          127 bits
#pragma once

namespace fourq::field::bounds {

// p = 2^127 - 1: canonical elements occupy [0, p), i.e. 127 bits.
inline constexpr int kCanonicalBits = 127;

// Unreduced 128-bit adder register for the lazy sums t2/t3 and the
// pre-fold accumulator of Fp::operator+ (a + b <= 2p - 2 < 2^128).
inline constexpr int kLazySumBits = 128;

// Full-width F_p product registers t0/t1 (and the re-accumulator t7).
inline constexpr int kWideProductBits = 254;

// The widest values in the datapath: t6 = t2*t3 < 2^256 and
// t8 = t6 - (t0 + t1), both reduced by alg2::fold.
inline constexpr int kWideAccumulatorBits = 256;

}  // namespace fourq::field::bounds
