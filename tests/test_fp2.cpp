// Unit tests for F_{p^2}, including bit-exactness of the paper's Algorithm 2
// (Karatsuba multiplication with lazy reduction).
#include "field/fp2.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/range/range.hpp"
#include "common/rng.hpp"
#include "field/fp_lanes.hpp"
#include "trace/ir.hpp"

namespace fourq::field {
namespace {

Fp2 rand_fp2(Rng& rng) {
  return Fp2(Fp::from_u256(rng.next_u256()), Fp::from_u256(rng.next_u256()));
}

// Boundary components: {0, 1, 2, 2^64 - 1, 2^64, 2^126, p - 2, p - 1}.
std::vector<Fp> grid_values() {
  const Fp pm1 = Fp() - Fp::from_u64(1);
  return {Fp(),
          Fp::from_u64(1),
          Fp::from_u64(2),
          Fp::from_u64(~0ull),
          Fp::from_words(0, 1),
          Fp::from_words(0, uint64_t{1} << 62),
          pm1 - Fp::from_u64(1),
          pm1};
}

// The four independent products of x[i] * y[i] must agree bitwise: the
// Algorithm 2 stage code (mul_karatsuba), the eager 4-mul schoolbook, the
// generic lane kernel and the range analysis' U512 interpreter (eval_wide)
// on the expanded one-multiply datapath.
void expect_products_agree(const std::vector<Fp2>& x, const std::vector<Fp2>& y) {
  namespace range = analysis::range;
  trace::Program prog;
  const int a = prog.add_op({trace::OpKind::kInput, {}, {}, "a"});
  const int b = prog.add_op({trace::OpKind::kInput, {}, {}, "b"});
  const int m = prog.add_op({trace::OpKind::kMul, trace::Operand::of(a),
                             trace::Operand::of(b), "m"});
  prog.outputs.emplace_back(m, "m");
  const range::ExpandResult ex = range::expand_program(prog);
  const auto [in_a_re, in_a_im] = ex.op_nodes[static_cast<size_t>(a)];
  const auto [in_b_re, in_b_im] = ex.op_nodes[static_cast<size_t>(b)];
  const auto [out_re, out_im] = ex.op_nodes[static_cast<size_t>(m)];

  const size_t n = x.size();
  std::vector<u128> are(n), aim(n), bre(n), bim(n), rre(n), rim(n);
  for (size_t i = 0; i < n; ++i) {
    lanes::split(x[i], are[i], aim[i]);
    lanes::split(y[i], bre[i], bim[i]);
  }
  lanes::generic_kernels().fp2_mul(are.data(), aim.data(), bre.data(), bim.data(),
                                   rre.data(), rim.data(), n);
  int mismatches = 0;
  for (size_t i = 0; i < n && mismatches < 10; ++i) {
    const Fp2 k = Fp2::mul_karatsuba(x[i], y[i]);
    const std::vector<U512> v = range::eval_wide(
        ex.wide,
        {{in_a_re, U512(x[i].re().to_u256())}, {in_a_im, U512(x[i].im().to_u256())},
         {in_b_re, U512(y[i].re().to_u256())}, {in_b_im, U512(y[i].im().to_u256())}},
        {});
    const bool ok = k == Fp2::mul_schoolbook(x[i], y[i]) &&
                    k == lanes::join(rre[i], rim[i]) &&
                    v[static_cast<size_t>(out_re)] == U512(k.re().to_u256()) &&
                    v[static_cast<size_t>(out_im)] == U512(k.im().to_u256());
    if (!ok) {
      ++mismatches;
      ADD_FAILURE() << x[i].to_hex() << " * " << y[i].to_hex();
    }
  }
}

TEST(Fp2, KaratsubaMatchesSchoolbook) {
  Rng rng(41);
  std::vector<Fp2> x, y;
  for (int i = 0; i < 100000; ++i) {
    x.push_back(rand_fp2(rng));
    y.push_back(rand_fp2(rng));
  }
  expect_products_agree(x, y);
}

TEST(Fp2, KaratsubaEdgeOperands) {
  // Every pairing of boundary components, x and y independently: 8^4.
  const std::vector<Fp> g = grid_values();
  std::vector<Fp2> x, y;
  for (const Fp& x0 : g)
    for (const Fp& x1 : g)
      for (const Fp& y0 : g)
        for (const Fp& y1 : g) {
          x.emplace_back(x0, x1);
          y.emplace_back(y0, y1);
        }
  ASSERT_EQ(x.size(), 4096u);
  expect_products_agree(x, y);
}

TEST(Fp2, ImaginaryUnitSquaresToMinusOne) {
  Fp2 i = Fp2::from_u64(0, 1);
  EXPECT_EQ(i * i, -Fp2::from_u64(1));
  EXPECT_EQ(i.sqr(), -Fp2::from_u64(1));
}

TEST(Fp2, FieldAxioms) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    Fp2 a = rand_fp2(rng), b = rand_fp2(rng), c = rand_fp2(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * Fp2::from_u64(1), a);
    EXPECT_EQ(a + (-a), Fp2());
  }
}

TEST(Fp2, SqrMatchesMul) {
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    Fp2 a = rand_fp2(rng);
    EXPECT_EQ(a.sqr(), a * a);
  }
  const std::vector<Fp> g = grid_values();
  for (const Fp& re : g)
    for (const Fp& im : g) {
      const Fp2 a(re, im);
      EXPECT_EQ(a.sqr(), a * a) << a.to_hex();
    }
}

TEST(Fp2, ConjAndNorm) {
  Rng rng(44);
  for (int i = 0; i < 100; ++i) {
    Fp2 a = rand_fp2(rng);
    Fp2 n = a * a.conj();
    // a * conj(a) = norm(a), purely real.
    EXPECT_TRUE(n.im().is_zero());
    EXPECT_EQ(n.re(), a.norm());
    EXPECT_EQ(a.conj().conj(), a);
    // norm is multiplicative
    Fp2 b = rand_fp2(rng);
    EXPECT_EQ((a * b).norm(), a.norm() * b.norm());
  }
}

TEST(Fp2, InverseIsInverse) {
  Rng rng(45);
  for (int i = 0; i < 50; ++i) {
    Fp2 a = rand_fp2(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inv(), Fp2::from_u64(1));
  }
  EXPECT_EQ(Fp2::from_u64(0, 1).inv(), Fp2::from_u64(0) - Fp2::from_u64(0, 1));
  EXPECT_THROW(Fp2().inv(), std::logic_error);
}

TEST(Fp2, SqrtOfSquares) {
  Rng rng(46);
  int found = 0;
  for (int i = 0; i < 40; ++i) {
    Fp2 a = rand_fp2(rng);
    Fp2 sq = a.sqr();
    Fp2 root;
    ASSERT_TRUE(sq.sqrt(root)) << a.to_hex();
    EXPECT_TRUE(root == a || root == -a);
    ++found;
  }
  EXPECT_GT(found, 0);
}

TEST(Fp2, SqrtSpecialValues) {
  Fp2 root;
  EXPECT_TRUE(Fp2().sqrt(root));
  EXPECT_EQ(root, Fp2());
  EXPECT_TRUE(Fp2::from_u64(4).sqrt(root));
  EXPECT_TRUE(root == Fp2::from_u64(2) || root == -Fp2::from_u64(2));
  // -1 = i^2 has the root i in F_{p^2} even though it has none in F_p.
  EXPECT_TRUE((-Fp2::from_u64(1)).sqrt(root));
  EXPECT_TRUE(root == Fp2::from_u64(0, 1) || root == -Fp2::from_u64(0, 1));
}

TEST(Fp2, NonSquareDetected) {
  // In F_{p^2} exactly half the non-zero elements are squares; find one
  // non-square deterministically by scanning small constants.
  bool found_nonsquare = false;
  for (uint64_t k = 2; k < 50 && !found_nonsquare; ++k) {
    Fp2 cand = Fp2::from_u64(k, 1);
    Fp2 root;
    if (!cand.sqrt(root)) found_nonsquare = true;
  }
  EXPECT_TRUE(found_nonsquare);
}

TEST(Fp2, SqrtRatioMatchesQuotientRoot) {
  // sqrt_ratio(u, v) is a root of u/v exactly when Fp2::sqrt finds one,
  // on random pairs (half non-square) and on squares scaled by v.
  Rng rng(455);
  int squares = 0;
  for (int i = 0; i < 400; ++i) {
    const Fp2 v = rand_fp2(rng);
    const Fp2 u = (i % 2) ? rand_fp2(rng) : rand_fp2(rng).sqr() * v;
    Fp2 want, got;
    const bool has = (u * v.inv()).sqrt(want);
    ASSERT_EQ(Fp2::sqrt_ratio(u, v, got), has) << i;
    if (!has) continue;
    ++squares;
    EXPECT_TRUE(got == want || got == -want) << i;
    EXPECT_EQ(got.sqr() * v, u) << i;
  }
  EXPECT_GT(squares, 250);
  Fp2 r;
  EXPECT_FALSE(Fp2::sqrt_ratio(Fp2::from_u64(1), Fp2(), r));  // v == 0
  ASSERT_TRUE(Fp2::sqrt_ratio(Fp2(), Fp2::from_u64(3, 4), r));
  EXPECT_TRUE(r.is_zero());
  // Purely real and purely imaginary quotients: -1 = i^2 and i's roots.
  ASSERT_TRUE(Fp2::sqrt_ratio(-Fp2::from_u64(1), Fp2::from_u64(1), r));
  EXPECT_EQ(r.sqr(), -Fp2::from_u64(1));
  ASSERT_TRUE(Fp2::sqrt_ratio(Fp2::from_u64(0, 2), Fp2::from_u64(2), r));
  EXPECT_EQ(r.sqr(), Fp2::from_u64(0, 1));
}

TEST(Fp2, DblIsAddSelf) {
  Rng rng(47);
  Fp2 a = rand_fp2(rng);
  EXPECT_EQ(a.dbl(), a + a);
}

TEST(Fp2, ConjIsRingHomomorphism) {
  Rng rng(49);
  for (int i = 0; i < 100; ++i) {
    Fp2 a = rand_fp2(rng), b = rand_fp2(rng);
    EXPECT_EQ((a * b).conj(), a.conj() * b.conj());
    EXPECT_EQ((a + b).conj(), a.conj() + b.conj());
    EXPECT_EQ(a.conj().norm(), a.norm());
  }
}

TEST(Fp2, FrobeniusViaConj) {
  // For z in F_{p^2}, z^p == conj(z) (the p-power Frobenius): check on
  // random elements via pow.
  Rng rng(50);
  U256 p_exp = U256::from_hex("7fffffffffffffffffffffffffffffff");
  for (int i = 0; i < 5; ++i) {
    Fp2 z = rand_fp2(rng);
    Fp2 zp = Fp2::from_u64(1);
    // z^p via square-and-multiply over the 127-bit exponent.
    for (int bit = 126; bit >= 0; --bit) {
      zp = zp.sqr();
      if (p_exp.bit(static_cast<unsigned>(bit))) zp = zp * z;
    }
    EXPECT_EQ(zp, z.conj());
  }
}

// Multiplication count sanity: Karatsuba really performs 3 F_p
// multiplications per F_{p^2} multiplication. This is asserted structurally
// by the datapath model (see trace/sched tests); here we check the value
// identity (a0+a1)(b0+b1)-a0b0-a1b1 == a0b1+a1b0 that justifies it.
TEST(Fp2, KaratsubaIdentity) {
  Rng rng(48);
  for (int i = 0; i < 100; ++i) {
    Fp a0 = Fp::from_u256(rng.next_u256()), a1 = Fp::from_u256(rng.next_u256());
    Fp b0 = Fp::from_u256(rng.next_u256()), b1 = Fp::from_u256(rng.next_u256());
    Fp lhs = (a0 + a1) * (b0 + b1) - a0 * b0 - a1 * b1;
    EXPECT_EQ(lhs, a0 * b1 + a1 * b0);
  }
}

}  // namespace
}  // namespace fourq::field
