// Number-theoretic helpers built on BigInt.
#pragma once

#include "bignum/bigint.h"

namespace sgk {

/// Greatest common divisor (Euclid).
BigInt gcd(const BigInt& a, const BigInt& b);

/// Multiplicative inverse of a modulo m (m > 1). Throws std::domain_error if
/// gcd(a, m) != 1.
BigInt mod_inverse(const BigInt& a, const BigInt& m);

/// (a + b) mod m, with a, b already reduced.
BigInt mod_add(const BigInt& a, const BigInt& b, const BigInt& m);

/// (a - b) mod m, with a, b already reduced.
BigInt mod_sub(const BigInt& a, const BigInt& b, const BigInt& m);

/// Chinese-remainder combination: the unique x mod (p*q) with x = xp (mod p)
/// and x = xq (mod q), given qinv = q^{-1} mod p. Used by RSA-CRT.
BigInt crt_combine(const BigInt& xp, const BigInt& xq, const BigInt& p,
                   const BigInt& q, const BigInt& qinv);

}  // namespace sgk
