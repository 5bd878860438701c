#include "dsa/schnorrq.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "curve/multiscalar.hpp"
#include "curve/params.hpp"
#include "hash/hmac.hpp"
#include "hash/sha256.hpp"

namespace fourq::dsa {

namespace {

// Transcript encoding of a point: x then y, each F_{p^2} coordinate as
// re "+" im "i" with 32 lower-case hex digits per component — the bytes
// Fp2::to_hex() spells — written into a fixed buffer.
constexpr size_t kFpHex = 32;
constexpr size_t kFp2Hex = 2 * kFpHex + 2;
constexpr size_t kPointHex = 2 * kFp2Hex;

char* put_hex(char* out, const field::Fp& v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const uint64_t w[2] = {v.hi(), v.lo()};
  for (uint64_t word : w)
    for (int shift = 60; shift >= 0; shift -= 4) *out++ = kDigits[(word >> shift) & 0xf];
  return out;
}

char* put_hex(char* out, const curve::Fp2& v) {
  out = put_hex(out, v.re());
  *out++ = '+';
  out = put_hex(out, v.im());
  *out++ = 'i';
  return out;
}

char* encode_point(char* out, const curve::Affine& p) {
  return put_hex(put_hex(out, p.x), p.y);
}

}  // namespace

SchnorrQ::SchnorrQ()
    : n_(curve::candidate_subgroup_order()),
      g_{curve::candidate_generator_x(), curve::candidate_generator_y()},
      g_mul_(g_) {
  auto v = curve::validate_params();
  FOURQ_CHECK_MSG(v.all_ok(), "FourQ subgroup constants failed validation");
}

U256 SchnorrQ::challenge(const curve::Affine& r, const curve::Affine& pub,
                         const std::string& msg) const {
  char buf[2 * kPointHex];
  encode_point(encode_point(buf, r), pub);
  hash::Sha256 h;
  h.update(reinterpret_cast<const uint8_t*>(buf), sizeof buf);
  h.update(msg);
  return mod(hash::digest_to_u256(h.finalize()), n_.modulus());
}

U256 SchnorrQ::nonce(const U256& secret, const std::string& msg) const {
  // RFC 6979-style HMAC derivation: deterministic, non-zero mod N.
  return hash::derive_nonce(secret, "fourq-schnorr-nonce", msg, n_.modulus());
}

SchnorrQ::KeyPair SchnorrQ::keygen(Rng& rng) const {
  U256 secret = rng.next_mod_nonzero(n_.modulus());
  return KeyPair{secret, public_key(secret)};
}

curve::Affine SchnorrQ::public_key(const U256& secret) const {
  return curve::to_affine(g_mul_.mul(secret));
}

SchnorrQ::Signature SchnorrQ::sign(const KeyPair& kp, const std::string& msg) const {
  U256 k = nonce(kp.secret, msg);
  curve::Affine r = curve::to_affine(g_mul_.mul(k));
  U256 e = challenge(r, kp.pub, msg);
  // s = k + e * secret (mod N), via Montgomery domain for the product.
  U256 es = n_.from_monty(n_.mul(n_.to_monty(e), n_.to_monty(mod(kp.secret, n_.modulus()))));
  return Signature{r, addmod(k, es, n_.modulus())};
}

bool SchnorrQ::verify(const curve::Affine& pub, const std::string& msg,
                      const Signature& sig) const {
  if (!curve::on_curve(pub) || !curve::on_curve(sig.r)) return false;
  if (sig.s >= n_.modulus()) return false;
  U256 e = challenge(sig.r, pub, msg);
  // [s]G + [e](-Q) == R: the group equation [s]G == R + [e]Q with [e]Q
  // moved across, on one shared doubling chain. The point is negated, not
  // the scalar mod N, so the equation holds in the full group and keys
  // with a torsion component get the same verdict as the two-sided form.
  return curve::equal(curve::generator_double_mul(sig.s, e, curve::neg(pub)),
                      curve::to_r1(sig.r));
}

bool SchnorrQ::verify_batch(const std::vector<BatchItem>& items, Rng& rng,
                            const curve::MsmOptions& msm) const {
  if (items.empty()) return true;

  U256 sum_zs;  // sum z_i s_i mod N
  std::vector<curve::ScalarPoint> terms;
  terms.reserve(2 * items.size());

  for (const BatchItem& it : items) {
    if (!curve::on_curve(it.pub) || !curve::on_curve(it.sig.r)) return false;
    if (it.sig.s >= n_.modulus()) return false;
    U256 e = challenge(it.sig.r, it.pub, it.msg);
    // 128-bit non-zero random weight; z == 0 (probability 2^-128) is
    // rejected up front, before any Montgomery round-trip touches it.
    U256 z;
    do {
      z = U256(rng.next_u64(), rng.next_u64(), 0, 0);
    } while (z.is_zero());
    // Monty::mul(z*R, x) = z*x mod N: one conversion serves both products.
    const U256 zr = n_.to_monty(z);
    sum_zs = addmod(sum_zs, n_.mul(zr, it.sig.s), n_.modulus());
    const U256 ze = n_.mul(zr, e);
    // The weight term is declared at its native half length: its wNAF /
    // window digits stop at bit 127 instead of being padded to 256.
    terms.push_back({z, it.sig.r, 128});
    terms.push_back({ze, it.pub, 256});
  }

  curve::PointR1 lhs = g_mul_.mul(sum_zs);
  curve::PointR1 rhs = curve::multi_scalar_mul(terms, msm);
  return curve::equal(lhs, rhs);
}

SchnorrQ::EncodedSignature SchnorrQ::encode_signature(const Signature& sig) const {
  EncodedSignature out{};
  curve::CompressedPoint r = curve::compress(sig.r);
  std::copy(r.begin(), r.end(), out.begin());
  for (int i = 0; i < 4; ++i)
    for (int b = 0; b < 8; ++b)
      out[static_cast<size_t>(32 + 8 * i + b)] = static_cast<uint8_t>(sig.s.w[i] >> (8 * b));
  return out;
}

std::optional<SchnorrQ::Signature> SchnorrQ::decode_signature(
    const EncodedSignature& bytes) const {
  curve::CompressedPoint rbytes{};
  std::copy(bytes.begin(), bytes.begin() + 32, rbytes.begin());
  auto r = curve::decompress(rbytes);
  if (!r) return std::nullopt;
  U256 s;
  for (int i = 0; i < 4; ++i) {
    uint64_t w = 0;
    for (int b = 7; b >= 0; --b)
      w = (w << 8) | bytes[static_cast<size_t>(32 + 8 * i + b)];
    s.w[i] = w;
  }
  if (s >= n_.modulus()) return std::nullopt;
  return Signature{*r, s};
}

curve::CompressedPoint SchnorrQ::encode_public_key(const curve::Affine& pub) const {
  return curve::compress(pub);
}

std::optional<curve::Affine> SchnorrQ::decode_public_key(
    const curve::CompressedPoint& bytes) const {
  return curve::decompress(bytes);
}

}  // namespace fourq::dsa
