#include "bignum/modmath.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bignum/montgomery.h"
#include "bignum/prime.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"

namespace sgk {
namespace {

/// The oracle for mod_inverse: extended Euclid over BigInt values, with a
/// new quotient, product and coefficient allocated on every step.
BigInt ref_mod_inverse(const BigInt& a, const BigInt& m) {
  if (m <= BigInt(1)) throw std::domain_error("mod_inverse: modulus must be > 1");
  BigInt r0 = a % m;
  BigInt r1 = m;
  BigInt t0(1);
  bool t0_neg = false;
  BigInt t1;
  bool t1_neg = false;
  // Invariant: r0 = t0 * a (mod m), r1 = t1 * a (mod m).
  while (!r1.is_zero()) {
    BigInt::DivMod dm = r0.divmod(r1);
    // (t0, t1) <- (t1, t0 - q * t1)
    BigInt qt = dm.quotient * t1;
    BigInt nt;
    bool nt_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt) {
        nt = t0 - qt;
        nt_neg = t0_neg;
      } else {
        nt = qt - t0;
        nt_neg = !t0_neg;
      }
    } else {
      nt = t0 + qt;
      nt_neg = t0_neg;
    }
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(nt);
    t1_neg = nt_neg;
    r0 = std::move(r1);
    r1 = std::move(dm.remainder);
  }
  if (r0 != BigInt(1)) throw std::domain_error("mod_inverse: not invertible");
  BigInt inv = t0 % m;
  if (t0_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

/// mod_inverse(a, m) and the oracle agree: the same value, or the same
/// std::domain_error message.
void expect_inverse_matches(const BigInt& a, const BigInt& m) {
  std::string want_error, got_error;
  BigInt want, got;
  try {
    want = ref_mod_inverse(a, m);
  } catch (const std::domain_error& e) {
    want_error = e.what();
  }
  try {
    got = mod_inverse(a, m);
  } catch (const std::domain_error& e) {
    got_error = e.what();
  }
  EXPECT_EQ(got_error, want_error) << "a = " << a.to_hex() << ", m = " << m.to_hex();
  EXPECT_EQ(got, want) << "a = " << a.to_hex() << ", m = " << m.to_hex();
}

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(gcd(BigInt(), BigInt(5)), BigInt(5));
  EXPECT_EQ(gcd(BigInt(5), BigInt()), BigInt(5));
}

TEST(ModInverse, SmallCases) {
  // 3 * 4 = 12 = 1 mod 11
  EXPECT_EQ(mod_inverse(BigInt(3), BigInt(11)), BigInt(4));
  EXPECT_EQ(mod_inverse(BigInt(1), BigInt(7)), BigInt(1));
  // a > m is reduced first.
  EXPECT_EQ(mod_inverse(BigInt(14), BigInt(11)), BigInt(4));
}

TEST(ModInverse, NotInvertibleThrows) {
  EXPECT_THROW(mod_inverse(BigInt(6), BigInt(9)), std::domain_error);
  EXPECT_THROW(mod_inverse(BigInt(), BigInt(9)), std::domain_error);
}

TEST(ModInverse, RandomInvertibleRoundTrip) {
  Drbg rng(3, "modinv");
  const BigInt m = BigInt::from_hex("d17977a5656e7ef6ea1a65eb9406b483d7b489a3");
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::random_below(m, rng);
    if (a.is_zero()) continue;
    BigInt inv = mod_inverse(a, m);
    EXPECT_EQ(a * inv % m, BigInt(1));
  }
}

TEST(ModInverse, CompositeModulus) {
  // Works for composite m when gcd(a, m) == 1 (needed by RSA keygen).
  const BigInt m = BigInt::from_dec("1000000");
  const BigInt a = BigInt(77);
  BigInt inv = mod_inverse(a, m);
  EXPECT_EQ(a * inv % m, BigInt(1));
}

TEST(ModInverse, MatchesEuclidOracle) {
  // Prime moduli of 160, 512 and 1024 bits (q and the DH p), even and odd
  // composites, and one-limb moduli; a = 1, m - 1, m, m + 1, a >= m, multiples
  // of a factor of m, and random values below and above m.
  Drbg rng(13, "modinv-oracle");
  std::vector<BigInt> moduli = {dh_group(DhBits::k512).q(),
                                dh_group(DhBits::k512).p(),
                                dh_group(DhBits::k1024).p(),
                                BigInt::from_dec("1000000"),
                                BigInt(2),
                                BigInt(3),
                                BigInt(~std::uint64_t{0}),
                                (BigInt(1) << 128) - BigInt(1),
                                (BigInt(1) << 512) + BigInt(1)};
  for (std::size_t bits : {64, 65, 200, 512, 1024}) {
    moduli.push_back(BigInt::random_bits(bits, rng));  // odd or even
    moduli.push_back(BigInt::random_bits(bits, rng) * BigInt(6));
  }
  for (const BigInt& m : moduli) {
    std::vector<BigInt> as = {BigInt(),          BigInt(1),
                              BigInt(2),         m - BigInt(1),
                              m,                 m + BigInt(1),
                              m * BigInt(3) + BigInt(7),
                              BigInt(3) * (m / BigInt(3)),
                              BigInt::random_bits(m.bit_length() + 70, rng)};
    for (int i = 0; i < 40; ++i) as.push_back(BigInt::random_below(m, rng));
    // Small a: the first quotients are many limbs long.
    as.push_back(BigInt::random_bits(5, rng));
    as.push_back(BigInt::random_bits(70, rng));
    for (const BigInt& a : as) expect_inverse_matches(a, m);
  }
}

TEST(ModInverse, ModulusBelowTwoThrows) {
  EXPECT_THROW(mod_inverse(BigInt(3), BigInt()), std::domain_error);
  EXPECT_THROW(mod_inverse(BigInt(3), BigInt(1)), std::domain_error);
  expect_inverse_matches(BigInt(3), BigInt(1));
  expect_inverse_matches(BigInt(3), BigInt());
}

TEST(ModAddSub, WrapsCorrectly) {
  const BigInt m(100);
  EXPECT_EQ(mod_add(BigInt(70), BigInt(50), m), BigInt(20));
  EXPECT_EQ(mod_add(BigInt(10), BigInt(20), m), BigInt(30));
  EXPECT_EQ(mod_sub(BigInt(10), BigInt(20), m), BigInt(90));
  EXPECT_EQ(mod_sub(BigInt(20), BigInt(10), m), BigInt(10));
}

TEST(CrtCombine, ReconstructsValue) {
  const BigInt p(101), q(103);
  const BigInt x(777);
  BigInt qinv = mod_inverse(q, p);
  BigInt rebuilt = crt_combine(x % p, x % q, p, q, qinv);
  EXPECT_EQ(rebuilt, x);
}

TEST(ModExp, KnownValues) {
  EXPECT_EQ(mod_exp(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(mod_exp(BigInt(5), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(mod_exp(BigInt(0), BigInt(5), BigInt(7)), BigInt(0));
  // Fermat: a^(p-1) = 1 mod p
  EXPECT_EQ(mod_exp(BigInt(2), BigInt(102), BigInt(103)), BigInt(1));
}

TEST(ModExp, EvenModulusFallback) {
  EXPECT_EQ(mod_exp(BigInt(3), BigInt(4), BigInt(100)), BigInt(81 % 100));
  EXPECT_EQ(mod_exp(BigInt(7), BigInt(3), BigInt(16)), BigInt(343 % 16));
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(MontgomeryCtx(BigInt(100)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(BigInt(1)), std::invalid_argument);
}

TEST(Montgomery, MulMatchesSchoolbook) {
  Drbg rng(4, "montmul");
  const BigInt m = BigInt::from_hex(
      "a8cb47671bf5d74c5ba7e3a079165690f7caed445170287bad497b312a4f6773"
      "3a128d309acb6678ab98b09b914d2c077b771265d2ece2b7761e2009b6b114e5");
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::random_below(m, rng);
    BigInt b = BigInt::random_below(m, rng);
    EXPECT_EQ(ctx.mul(a, b), a * b % m);
  }
}

class MontExpProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MontExpProperty, MatchesNaiveSquareMultiply) {
  Drbg rng(GetParam(), "montexp");
  BigInt m = BigInt::random_bits(65 + GetParam() * 61, rng);
  if (!m.is_odd()) m = m + BigInt(1);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 6; ++i) {
    BigInt base = BigInt::random_below(m, rng);
    BigInt e = BigInt::random_bits(1 + GetParam() * 13, rng);
    // Naive reference.
    BigInt acc(1);
    for (std::size_t b = e.bit_length(); b-- > 0;) {
      acc = acc * acc % m;
      if (e.bit(b)) acc = acc * base % m;
    }
    EXPECT_EQ(ctx.exp(base, e), acc);
  }
}

TEST_P(MontExpProperty, ExponentAdditivity) {
  // g^(a+b) == g^a * g^b mod m
  Drbg rng(GetParam() + 100, "montexp-add");
  BigInt m = BigInt::random_bits(80 + GetParam() * 47, rng);
  if (!m.is_odd()) m = m + BigInt(1);
  MontgomeryCtx ctx(m);
  BigInt g = BigInt::random_below(m, rng);
  BigInt a = BigInt::random_bits(40, rng);
  BigInt b = BigInt::random_bits(40, rng);
  EXPECT_EQ(ctx.exp(g, a + b), ctx.mul(ctx.exp(g, a), ctx.exp(g, b)));
}

INSTANTIATE_TEST_SUITE_P(Widths, MontExpProperty, ::testing::Range<std::size_t>(1, 9));

TEST(Prime, SmallPrimesRecognized) {
  Drbg rng(5, "prime");
  for (std::uint32_t p : {2u, 3u, 5u, 7u, 97u, 251u, 257u, 65537u})
    EXPECT_TRUE(is_probable_prime(BigInt(p), rng)) << p;
  for (std::uint32_t c : {0u, 1u, 4u, 9u, 100u, 255u, 65535u})
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
}

TEST(Prime, CarmichaelRejected) {
  Drbg rng(6, "carmichael");
  // 561, 1105, 1729 are Carmichael numbers (fool Fermat, not Miller-Rabin).
  for (std::uint32_t c : {561u, 1105u, 1729u, 41041u})
    EXPECT_FALSE(is_probable_prime(BigInt(c), rng)) << c;
}

TEST(Prime, KnownLargePrime) {
  Drbg rng(7, "large");
  // 2^127 - 1 is a Mersenne prime.
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  EXPECT_FALSE(is_probable_prime(m127 + BigInt(2), rng));
}

TEST(Prime, GenerateHasExactBits) {
  Drbg rng(8, "gen");
  BigInt p = generate_prime(128, rng);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(is_probable_prime(p, rng));
}

TEST(Prime, SchnorrGroupStructure) {
  Drbg rng(9, "schnorr");
  SchnorrGroup grp = generate_schnorr_group(256, 96, rng);
  EXPECT_EQ(grp.p.bit_length(), 256u);
  EXPECT_EQ(grp.q.bit_length(), 96u);
  EXPECT_EQ((grp.p - BigInt(1)) % grp.q, BigInt(0));
  EXPECT_EQ(mod_exp(grp.g, grp.q, grp.p), BigInt(1));
  EXPECT_NE(grp.g, BigInt(1));
}

}  // namespace
}  // namespace sgk
