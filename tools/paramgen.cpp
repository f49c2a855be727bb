// paramgen: regenerates the fixed cryptographic parameters shipped in
// src/crypto (Schnorr DH groups and RSA test keys) using this library's own
// prime generation. This documents the provenance of the hard-coded
// constants and lets a downstream user mint fresh ones.
//
// Usage:
//   paramgen dh <p_bits> <q_bits> [seed]     # Schnorr group (p, q, g)
//   paramgen rsa <bits> [count] [seed]       # RSA keys with e=3
#include <cstring>
#include <iostream>
#include <string>

#include "bignum/modmath.h"
#include "bignum/prime.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "util/parse_number.h"

namespace {

void emit_dh(std::size_t p_bits, std::size_t q_bits, std::uint64_t seed) {
  sgk::Drbg rng(seed, "paramgen-dh");
  sgk::SchnorrGroup grp = sgk::generate_schnorr_group(p_bits, q_bits, rng);
  std::cout << "// Schnorr group: " << p_bits << "-bit p, " << q_bits
            << "-bit q (seed " << seed << ")\n";
  std::cout << "P = \"" << grp.p.to_hex() << "\"\n";
  std::cout << "Q = \"" << grp.q.to_hex() << "\"\n";
  std::cout << "G = \"" << grp.g.to_hex() << "\"\n";
  // Self-check the subgroup structure before anyone pastes these anywhere.
  if ((grp.p - sgk::BigInt(1)) % grp.q != sgk::BigInt(0) ||
      sgk::mod_exp(grp.g, grp.q, grp.p) != sgk::BigInt(1)) {
    std::cerr << "self-check FAILED\n";
    std::exit(1);
  }
  std::cout << "// self-check ok: q | p-1 and g^q = 1 (mod p)\n";
}

void emit_rsa(std::size_t bits, int count, std::uint64_t seed) {
  sgk::Drbg rng(seed, "paramgen-rsa");
  for (int i = 0; i < count; ++i) {
    sgk::RsaPrivateKey key = sgk::RsaPrivateKey::generate(bits, rng);
    std::cout << "// RSA-" << bits << " key " << i << " (e=3, seed " << seed
              << ")\n";
    std::cout << "N = \"" << key.public_key().n().to_hex() << "\"\n";
    sgk::Bytes probe = sgk::str_bytes("paramgen self check");
    if (!key.public_key().verify(probe, key.sign(probe))) {
      std::cerr << "self-check FAILED\n";
      std::exit(1);
    }
    std::cout << "// self-check ok: sign/verify round trip\n";
  }
}

// Parses argv[i] as a whole number; a malformed one is a usage error.
template <typename Number>
Number number_arg(char** argv, int i) {
  Number out{};
  if (!sgk::parse_number(argv[i], out)) {
    std::cerr << "error: not a number '" << argv[i] << "'\n";
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "dh") == 0) {
    std::uint64_t seed =
        argc > 4 ? number_arg<std::uint64_t>(argv, 4) : 20020423;
    emit_dh(number_arg<std::size_t>(argv, 2), number_arg<std::size_t>(argv, 3),
            seed);
    return 0;
  }
  if (argc >= 3 && std::strcmp(argv[1], "rsa") == 0) {
    int count = argc > 3 ? number_arg<int>(argv, 3) : 1;
    std::uint64_t seed =
        argc > 4 ? number_arg<std::uint64_t>(argv, 4) : 19770426;
    emit_rsa(number_arg<std::size_t>(argv, 2), count, seed);
    return 0;
  }
  std::cerr << "usage:\n  paramgen dh <p_bits> <q_bits> [seed]\n"
               "  paramgen rsa <bits> [count] [seed]\n";
  return 2;
}
