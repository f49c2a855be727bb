// Diffie–Hellman over Schnorr groups (p with a 160-bit prime-order
// subgroup), matching the parameter shape used in the paper: 512- and
// 1024-bit p with 160-bit q and 160-bit exponents.
#pragma once

#include <cstddef>
#include <memory>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "bignum/secure_bigint.h"
#include "util/random_source.h"

namespace sgk {

/// Modulus sizes the paper evaluates.
enum class DhBits { k512, k1024 };

/// A fixed, precomputed DH group (p, q, g): Montgomery contexts for p and q
/// and a fixed-base table for g, all built by the constructor. Instances are
/// immutable and shared; obtain them via dh_group().
class DhGroup {
 public:
  DhGroup(BigInt p, BigInt q, BigInt g);

  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }
  const BigInt& g() const { return g_; }
  std::size_t p_bits() const { return p_.bit_length(); }

  /// (base ^ exp) mod p via the precomputed Montgomery context.
  BigInt exp(const BigInt& base, const BigInt& e) const;
  /// g ^ e mod p. Exponents of at most |q| bits read the fixed-base table
  /// (at most ceil(|q|/4) multiplies, no squarings); longer ones fall back
  /// to exp(g, e).
  BigInt exp_g(const BigInt& e) const;
  /// a^{-1} mod q, as a^(q-2) (Fermat). Throws std::domain_error when
  /// a = 0 mod q.
  BigInt inverse_q(const BigInt& a) const;

  /// Random secret exponent in [1, q). Returned in zeroizing storage; store
  /// it in a SecureBigInt (or read it once and let the temporary wipe).
  SecureBigInt random_exponent(RandomSource& rng) const;

  /// Reduces an arbitrary group element / integer into a usable exponent in
  /// [1, q). Used by the tree protocols where a node secret feeds the next
  /// level's exponentiation.
  BigInt to_exponent(const BigInt& value) const;

 private:
  BigInt p_;
  BigInt q_;
  BigInt g_;
  MontgomeryCtx ctx_;
  FixedBase g_table_;
  MontgomeryCtx q_ctx_;
  BigInt q_minus_2_;
};

/// Shared fixed groups (generated once with this library's own
/// generate_schnorr_group; see tools/ for provenance). Each group is built
/// on its first request.
const DhGroup& dh_group(DhBits bits);

}  // namespace sgk
