// DSA signatures over Schnorr groups (FIPS 186 style).
//
// The paper (section 6.1.1) justifies RSA with e=3 by noting that "expensive
// signature verification (e.g., as in DSA) noticeably degrades performance"
// when protocols verify O(n) messages per re-key. This implementation exists
// to quantify exactly that trade-off (see bench/ablation) and to exercise
// the signature-scheme abstraction: the Cliques toolkit "supports any
// digital signature scheme implemented in OpenSSL".
#pragma once

#include "bignum/bigint.h"
#include "crypto/dh.h"
#include "util/bytes.h"
#include "util/random_source.h"

namespace sgk {

struct DsaSignature {
  BigInt r;
  BigInt s;
};

class DsaPublicKey {
 public:
  DsaPublicKey(const DhGroup& group, BigInt y) : group_(group), y_(std::move(y)) {}

  /// Verification: two full-size exponentiations (the expensive part).
  bool verify(const Bytes& message, const DsaSignature& sig) const;
  /// The same check given SHA-256(message), which is all of the message
  /// DSA reads.
  bool verify_digest(const Bytes& digest, const DsaSignature& sig) const;

  const BigInt& y() const { return y_; }
  const DhGroup& group() const { return group_; }

 private:
  const DhGroup& group_;
  BigInt y_;
};

class DsaPrivateKey {
 public:
  /// Generates x in [1, q), y = g^x.
  DsaPrivateKey(const DhGroup& group, RandomSource& rng);

  const DsaPublicKey& public_key() const { return pub_; }

  /// Signing: one exponentiation plus cheap field arithmetic.
  DsaSignature sign(const Bytes& message, RandomSource& rng) const;

 private:
  const DhGroup& group_;
  SecureBigInt x_;  // long-term signing secret; zeroized on destruction
  DsaPublicKey pub_;
};

/// Wire helpers.
Bytes dsa_signature_to_bytes(const DsaSignature& sig, std::size_t q_bytes);
DsaSignature dsa_signature_from_bytes(const Bytes& data);

}  // namespace sgk
