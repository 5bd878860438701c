#include "dsa/ecdsa_fourq.hpp"

#include "common/check.hpp"
#include "curve/multiscalar.hpp"
#include "curve/params.hpp"
#include "hash/hmac.hpp"
#include "hash/sha256.hpp"

namespace fourq::dsa {

EcdsaFourQ::EcdsaFourQ()
    : n_(curve::candidate_subgroup_order()),
      g_mul_(curve::Affine{curve::candidate_generator_x(), curve::candidate_generator_y()}) {
  auto v = curve::validate_params();
  FOURQ_CHECK_MSG(v.all_ok(), "FourQ subgroup constants failed validation");
}

U256 EcdsaFourQ::point_to_scalar(const curve::Affine& p) const {
  // Pack x = a + b*i as a + 2^127 * b (a 254-bit integer), reduce mod N.
  U256 packed(p.x.re().lo(), p.x.re().hi(), 0, 0);
  U256 b(p.x.im().lo(), p.x.im().hi(), 0, 0);
  U256 shifted = shl(b, 127);
  U256 sum;
  uint64_t carry = add(packed, shifted, sum);
  FOURQ_CHECK(carry == 0);  // both halves < 2^127
  return mod(sum, n_.modulus());
}

U256 EcdsaFourQ::hash_z(const std::string& msg) const {
  // §II-A: e = HASH(m); z = the L_n leftmost bits of e. L_n = 246 for
  // FourQ's subgroup, so shift the 256-bit digest right by 10 bits.
  U256 e = hash::digest_to_u256(hash::Sha256::digest(msg));
  return shr(e, 10);
}

EcdsaFourQ::KeyPair EcdsaFourQ::keygen(Rng& rng) const {
  U256 d = rng.next_mod_nonzero(n_.modulus());
  return KeyPair{d, curve::to_affine(g_mul_.mul(d))};
}

EcdsaFourQ::Signature EcdsaFourQ::sign(const KeyPair& kp, const std::string& msg) const {
  U256 z = hash_z(msg);
  for (uint64_t attempt = 0;; ++attempt) {
    // §II-A step 2: choose k (here: RFC 6979-style HMAC derivation,
    // re-derived with a counter if step 4/5 demands a retry).
    U256 k = hash::derive_nonce(kp.secret, "fourq-ecdsa-nonce/" + std::to_string(attempt),
                                msg, n_.modulus());
    // Step 3: (x1, y1) = [k]G.
    curve::Affine p = curve::to_affine(g_mul_.mul(k));
    // Step 4: r = f(x1) mod n; retry on zero.
    U256 r = point_to_scalar(p);
    if (r.is_zero()) continue;
    // Step 5: s = k^{-1}(z + r d) mod n; retry on zero.
    U256 rd = n_.from_monty(n_.mul(n_.to_monty(r), n_.to_monty(kp.secret)));
    U256 zrd = addmod(mod(z, n_.modulus()), rd, n_.modulus());
    U256 s = n_.from_monty(
        n_.mul(n_.to_monty(invmod(k, n_.modulus())), n_.to_monty(zrd)));
    if (s.is_zero()) continue;
    return Signature{r, s};
  }
}

bool EcdsaFourQ::verify(const curve::Affine& pub, const std::string& msg,
                        const Signature& sig) const {
  // Step 1: r, s in [1, n-1].
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (sig.r >= n_.modulus() || sig.s >= n_.modulus()) return false;
  if (!curve::on_curve(pub)) return false;
  // Step 2: w = s^{-1} mod n.
  U256 w = invmod(sig.s, n_.modulus());
  U256 z = mod(hash_z(msg), n_.modulus());
  // Step 3: u1 = z w, u2 = r w.
  U256 u1 = n_.from_monty(n_.mul(n_.to_monty(z), n_.to_monty(w)));
  U256 u2 = n_.from_monty(n_.mul(n_.to_monty(sig.r), n_.to_monty(w)));
  // Step 4: (x1, y1) = [u1]G + [u2]Q on one shared doubling chain.
  curve::PointR1 sum = curve::generator_double_mul(u1, u2, pub);
  if (curve::is_identity(sum)) return false;
  // Step 5: valid iff r == f(x1) mod n.
  return point_to_scalar(curve::to_affine(sum)) == sig.r;
}

}  // namespace fourq::dsa
