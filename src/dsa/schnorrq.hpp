// Schnorr signatures over the FourQ prime-order subgroup — the DSA payload
// the paper's accelerator exists to serve (message authentication for ITS,
// §I). The scheme needs the subgroup order N and generator G, which are not
// printed in the paper; the constructor therefore insists that the runtime
// parameter validation passes (it does — see test_params.cpp).
//
// Nonces are derived deterministically (hash of secret key and message), so
// no RNG quality assumption enters the signature path.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/modint.hpp"
#include "common/rng.hpp"
#include "curve/encoding.hpp"
#include "curve/fixed_base.hpp"
#include "curve/multiscalar.hpp"
#include "curve/point.hpp"

namespace fourq::dsa {

class SchnorrQ {
 public:
  // Throws std::logic_error if the candidate FourQ subgroup constants fail
  // their runtime validation.
  SchnorrQ();

  struct KeyPair {
    U256 secret;       // in [1, N)
    curve::Affine pub;  // [secret]G
  };

  struct Signature {
    curve::Affine r;  // commitment R = [nonce]G
    U256 s;           // nonce + e*secret mod N
  };

  KeyPair keygen(Rng& rng) const;
  // Recomputes the public key for a given secret (e.g. stored keys).
  curve::Affine public_key(const U256& secret) const;

  Signature sign(const KeyPair& kp, const std::string& msg) const;
  // Checks [s]G + [e](-Q) == R for e = challenge(R, Q, msg) — the group
  // equation [s]G == R + [e]Q — on one interleaved wNAF doubling chain
  // (curve::generator_double_mul): ~246 doublings and ~72 mixed additions
  // over G's process-wide width-7 table and a per-call width-5 table of
  // -Q, where separate [s]G and [e]Q multiplications cost 320 doublings
  // and ~140 additions.
  bool verify(const curve::Affine& pub, const std::string& msg, const Signature& sig) const;

  // Batch verification (Bellare–Garay–Rabin small-exponent test): checks
  // all signatures at once with one multi-scalar multiplication
  //   [sum z_i s_i]G == sum [z_i]R_i + sum [z_i e_i]Q_i
  // for random 128-bit weights z_i. Sound except with probability ~2^-128
  // per run; a failing batch should fall back to per-item verify() to
  // locate the culprit. Assumes points lie in the prime-order subgroup
  // (honest-signer setting); adversarial small-order components can make
  // batch and individual verification disagree.
  struct BatchItem {
    curve::Affine pub;
    std::string msg;
    Signature sig;
  };
  // The weight terms [z_i]R_i enter the MSM at their native 128-bit length
  // (half the wNAF digits / bucket windows of a full scalar); msm selects
  // the backend — Straus for small batches, Pippenger buckets for large
  // ones, optionally parallelised via MsmOptions::parallel.
  bool verify_batch(const std::vector<BatchItem>& items, Rng& rng,
                    const curve::MsmOptions& msm = {}) const;

  // Wire format: 64 bytes = compressed R (32) || s little-endian (32).
  using EncodedSignature = std::array<uint8_t, 64>;
  EncodedSignature encode_signature(const Signature& sig) const;
  // Rejects malformed/off-curve R and out-of-range s.
  std::optional<Signature> decode_signature(const EncodedSignature& bytes) const;

  // Public keys travel compressed (32 bytes).
  curve::CompressedPoint encode_public_key(const curve::Affine& pub) const;
  std::optional<curve::Affine> decode_public_key(const curve::CompressedPoint& bytes) const;

  const U256& order() const { return n_.modulus(); }
  const curve::Affine& generator() const { return g_; }

  // Fiat–Shamir challenge e = H(R || Q || m) mod N. Public so external
  // verifiers (e.g. the hardware-offload example) can recompute it.
  U256 challenge(const curve::Affine& r, const curve::Affine& pub,
                 const std::string& msg) const;

 private:
  U256 nonce(const U256& secret, const std::string& msg) const;

  Monty n_;                  // arithmetic mod the subgroup order
  curve::Affine g_;          // validated generator
  curve::FixedBaseMul g_mul_;  // cached generator table (keygen + signing)
};

}  // namespace fourq::dsa
