// Tests for point encoding and compression.
#include "curve/encoding.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "curve/scalarmul.hpp"

namespace fourq::curve {
namespace {

Affine random_point(Rng& rng) {
  Affine base = deterministic_point(55);
  return to_affine(scalar_mul(rng.next_u256(), base));
}

TEST(Encoding, UncompressedRoundTrip) {
  Rng rng(611);
  for (int i = 0; i < 20; ++i) {
    Affine p = random_point(rng);
    auto decoded = decode(encode(p));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->x, p.x);
    EXPECT_EQ(decoded->y, p.y);
  }
}

TEST(Encoding, CompressedRoundTrip) {
  Rng rng(612);
  for (int i = 0; i < 20; ++i) {
    Affine p = random_point(rng);
    auto decoded = decompress(compress(p));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->x, p.x) << "sign bit failed to disambiguate";
    EXPECT_EQ(decoded->y, p.y);
  }
}

TEST(Encoding, CompressionDistinguishesNegation) {
  Rng rng(613);
  Affine p = random_point(rng);
  Affine np = neg(p);
  CompressedPoint cp = compress(p), cnp = compress(np);
  // Same y, different sign bit.
  EXPECT_NE(cp, cnp);
  auto dp = decompress(cp), dnp = decompress(cnp);
  ASSERT_TRUE(dp && dnp);
  EXPECT_EQ(dp->x, p.x);
  EXPECT_EQ(dnp->x, np.x);
}

TEST(Encoding, SpecialPoints) {
  // Identity (0, 1): x = 0 forces a clear sign bit.
  Affine id{Fp2(), Fp2::from_u64(1)};
  auto rid = decompress(compress(id));
  ASSERT_TRUE(rid.has_value());
  EXPECT_TRUE(rid->x.is_zero());
  // Order-2 point (0, -1).
  Affine t{Fp2(), -Fp2::from_u64(1)};
  auto rt = decompress(compress(t));
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->y, t.y);
}

TEST(Encoding, RejectsOffCurveUncompressed) {
  Affine p = deterministic_point(56);
  UncompressedPoint bytes = encode(p);
  bytes[0] ^= 1;  // perturb x
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Encoding, RejectsNonCanonicalField) {
  // y.re = p (non-canonical encoding of zero).
  CompressedPoint bytes{};
  for (int i = 0; i < 15; ++i) bytes[static_cast<size_t>(i)] = 0xff;
  bytes[15] = 0x7f;
  EXPECT_FALSE(decompress(bytes).has_value());
}

TEST(Encoding, RejectsYWithNoX) {
  // Scan for a y whose x^2 is a non-residue; must be rejected.
  bool found = false;
  for (uint64_t ytry = 2; ytry < 60 && !found; ++ytry) {
    Fp2 y = Fp2::from_u64(ytry, 1);
    CompressedPoint bytes{};
    // Hand-encode y.
    uint64_t w[4] = {y.re().lo(), y.re().hi(), y.im().lo(), y.im().hi()};
    for (int i = 0; i < 4; ++i)
      for (int b = 0; b < 8; ++b)
        bytes[static_cast<size_t>(8 * i + b)] = static_cast<uint8_t>(w[i] >> (8 * b));
    if (!decompress(bytes).has_value()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Encoding, SignConventionConsistent) {
  Rng rng(614);
  for (int i = 0; i < 20; ++i) {
    Affine p = random_point(rng);
    if (p.x.is_zero()) continue;
    EXPECT_NE(x_sign(p.x), x_sign(-p.x));
  }
}

TEST(Encoding, FuzzRoundTripManyPoints) {
  Rng rng(615);
  Affine base = deterministic_point(57);
  for (int i = 0; i < 150; ++i) {
    Affine p = to_affine(scalar_mul(rng.next_u256(), base));
    auto c = decompress(compress(p));
    ASSERT_TRUE(c.has_value()) << i;
    EXPECT_EQ(c->x, p.x);
    EXPECT_EQ(c->y, p.y);
    auto u = decode(encode(p));
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(u->x, p.x);
    EXPECT_EQ(u->y, p.y);
  }
}

TEST(Encoding, CompressedBytesAreCanonical) {
  // compress(decompress(bytes)) == bytes for every valid encoding.
  Rng rng(616);
  Affine base = deterministic_point(58);
  for (int i = 0; i < 50; ++i) {
    Affine p = to_affine(scalar_mul(rng.next_u256(), base));
    CompressedPoint bytes = compress(p);
    auto d = decompress(bytes);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(compress(*d), bytes);
  }
}

// Decompression as it was before Fp2::sqrt_ratio: invert d*y^2 + 1, then
// take Fp2::sqrt of the quotient. The differential reference below.
std::optional<Affine> decompress_reference(const CompressedPoint& bytes) {
  const bool sign = (bytes[31] & 0x80) != 0;
  uint64_t w[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < 32; ++i) w[i / 8] |= static_cast<uint64_t>(bytes[i]) << (8 * (i % 8));
  w[3] &= 0x7fffffffffffffffull;  // the sign bit
  for (int c = 0; c < 2; ++c) {
    const uint64_t lo = w[2 * c], hi = w[2 * c + 1];
    if (hi >> 63) return std::nullopt;
    if (lo == ~0ull && hi == 0x7fffffffffffffffull) return std::nullopt;  // == p
  }
  const Fp2 y(Fp::from_words(w[0], w[1]), Fp::from_words(w[2], w[3]));
  const Fp2 one = Fp2::from_u64(1);
  const Fp2 y2 = y.sqr();
  const Fp2 den = curve_d() * y2 + one;
  if (den.is_zero()) return std::nullopt;
  Fp2 x;
  if (!((y2 - one) * den.inv()).sqrt(x)) return std::nullopt;
  if (x.is_zero()) {
    if (sign) return std::nullopt;
  } else if (x_sign(x) != sign) {
    x = -x;
  }
  Affine p{x, y};
  if (!on_curve(p)) return std::nullopt;
  return p;
}

CompressedPoint bytes_of(const Fp2& y, bool sign) {
  CompressedPoint out{};
  const uint64_t w[4] = {y.re().lo(), y.re().hi(), y.im().lo(), y.im().hi()};
  for (size_t i = 0; i < 32; ++i) out[i] = static_cast<uint8_t>(w[i / 8] >> (8 * (i % 8)));
  if (sign) out[31] |= 0x80;
  return out;
}

void expect_same_decompress(const CompressedPoint& bytes, const char* what, int i) {
  const auto got = decompress(bytes);
  const auto want = decompress_reference(bytes);
  ASSERT_EQ(got.has_value(), want.has_value()) << what << " " << i;
  if (!got) return;
  EXPECT_EQ(got->x, want->x) << what << " " << i;
  EXPECT_EQ(got->y, want->y) << what << " " << i;
}

TEST(Encoding, DecompressMatchesInversionPathBitwise) {
  // Random y (about half have no x), both sign bits; encodings of real
  // points and of their negations; and the special y values: 0, ±1, ±i,
  // a root of d*y^2 + 1 = 0 if one exists, and non-canonical components.
  Rng rng(617);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const Fp2 y(Fp::from_words(rng.next_u64(), rng.next_u64() >> 1),
                Fp::from_words(rng.next_u64(), rng.next_u64() >> 1));
    const CompressedPoint b = bytes_of(y, (i & 1) != 0);
    expect_same_decompress(b, "random y", i);
    (decompress(b) ? accepted : rejected) += 1;
  }
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
  Affine base = deterministic_point(59);
  for (int i = 0; i < 200; ++i) {
    const Affine p = to_affine(scalar_mul(rng.next_u256(), base));
    expect_same_decompress(compress(p), "point", i);
    expect_same_decompress(compress(neg(p)), "negated point", i);
  }
  const Fp2 one = Fp2::from_u64(1);
  const Fp2 specials[] = {Fp2(), one, -one, Fp2::from_u64(0, 1), -Fp2::from_u64(0, 1)};
  int i = 0;
  for (const Fp2& y : specials)
    for (bool sign : {false, true}) expect_same_decompress(bytes_of(y, sign), "special", i++);
  Fp2 pole;
  if ((-curve_d().inv()).sqrt(pole)) {
    for (bool sign : {false, true}) {
      expect_same_decompress(bytes_of(pole, sign), "pole", i);
      EXPECT_FALSE(decompress(bytes_of(pole, sign)).has_value());
    }
  }
  CompressedPoint non_canonical{};
  std::fill(non_canonical.begin(), non_canonical.begin() + 15, uint8_t{0xff});
  non_canonical[15] = 0x7f;  // re(y) == p
  expect_same_decompress(non_canonical, "re == p", 0);
  non_canonical[15] = 0xff;  // bit 127 of re(y) set
  expect_same_decompress(non_canonical, "re bit 127", 0);
}

TEST(Encoding, IdentityUncompressedRoundTrip) {
  Affine id{Fp2(), Fp2::from_u64(1)};
  auto r = decode(encode(id));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->x.is_zero());
}

}  // namespace
}  // namespace fourq::curve
