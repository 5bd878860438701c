// ECDSA instantiated over FourQ — the exact §II-A signature workflow the
// paper's accelerator serves, on the curve it accelerates.
//
// ECDSA needs a point-to-integer map for step 4 (r = x1 mod n). On a curve
// over F_{p^2} the x-coordinate has two F_p components; following the
// convention used by FourQ-based ECDSA implementations we fold them as
//   f(x) = (re(x) + 2^127 * im(x)) mod N
// i.e. the canonical 254-bit little-endian packing of x, reduced mod N.
#pragma once

#include <optional>
#include <string>

#include "common/modint.hpp"
#include "common/rng.hpp"
#include "curve/fixed_base.hpp"

namespace fourq::dsa {

class EcdsaFourQ {
 public:
  // Throws if the FourQ subgroup constants fail their runtime validation.
  EcdsaFourQ();

  struct KeyPair {
    U256 secret;        // d_A in [1, N-1]
    curve::Affine pub;  // Q_A = [d_A]G
  };

  struct Signature {
    U256 r, s;
  };

  KeyPair keygen(Rng& rng) const;

  // Deterministic nonce (hash of secret and message); retries internally on
  // the (astronomically unlikely) r == 0 or s == 0 cases, as §II-A steps
  // 4-5 prescribe.
  Signature sign(const KeyPair& kp, const std::string& msg) const;
  bool verify(const curve::Affine& pub, const std::string& msg, const Signature& sig) const;

  const U256& order() const { return n_.modulus(); }

 private:
  U256 point_to_scalar(const curve::Affine& p) const;  // f(x) mod N
  U256 hash_z(const std::string& msg) const;

  Monty n_;
  curve::FixedBaseMul g_mul_;
};

}  // namespace fourq::dsa
