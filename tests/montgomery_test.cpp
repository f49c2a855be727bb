// Differential tests of the Montgomery kernels, the fixed-base table for g and
// the Fermat inverse mod q, against an oracle kept here: the previous
// runtime-width CIOS multiply and 4-bit sliding-window exponentiation,
// which allocated per multiply and used one path for every exponent. The
// MontgomeryCtx tests run whichever kernel the CPU gets; the KernelDiff tests
// call each kernel directly.
#include "bignum/montgomery.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bignum/modmath.h"
#include "bignum/montgomery_kernels.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"

namespace sgk {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

using Limbs = std::vector<u64>;

/// One CIOS Montgomery multiply over heap-allocated limb vectors: the
/// oracle's kernel, a * b * R^-1 mod n for a k-limb n and a, b < n.
Limbs ref_mont_mul(const Limbs& a, const Limbs& b, const Limbs& n,
                   u64 n0_inv) {
  const std::size_t k = n.size();
  Limbs t(k + 2, 0);
  for (std::size_t i = 0; i < k; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(cur);
    t[k + 1] = static_cast<u64>(cur >> 64);
    const u64 m = t[0] * n0_inv;
    u128 acc = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<u64>(acc >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      acc = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(acc);
      carry = static_cast<u64>(acc >> 64);
    }
    cur = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<u64>(cur);
    t[k] = t[k + 1] + static_cast<u64>(cur >> 64);
    t[k + 1] = 0;
  }
  t.resize(k + 1);
  bool ge = t[k] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  t.resize(k);
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
      t[i] = static_cast<u64>(diff);
      borrow = static_cast<u64>((diff >> 64) & 1);
    }
  }
  return t;
}

/// The oracle: runtime-width CIOS over heap-allocated limb vectors.
class RefMont {
 public:
  explicit RefMont(const BigInt& modulus) : n_(modulus) {
    k_ = n_.limbs().size();
    u64 inv = n_.limbs()[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - n_.limbs()[0] * inv;
    n0_inv_ = ~inv + 1;
    rr_ = (BigInt(1) << (128 * k_)) % n_;
  }

  BigInt mul(const BigInt& a, const BigInt& b) const {
    return from_mont(mont_mul(to_mont(a), to_mont(b)));
  }

  BigInt exp(const BigInt& base, const BigInt& exponent) const {
    if (exponent.is_zero()) return BigInt(1) % n_;
    constexpr std::size_t kWindow = 4;
    Limbs basem = to_mont(base);
    Limbs base_sq = mont_mul(basem, basem);
    std::vector<Limbs> odd_pows(1 << (kWindow - 1));
    odd_pows[0] = basem;
    for (std::size_t i = 1; i < odd_pows.size(); ++i)
      odd_pows[i] = mont_mul(odd_pows[i - 1], base_sq);
    Limbs acc = to_mont(BigInt(1));
    std::size_t i = exponent.bit_length();
    while (i > 0) {
      if (!exponent.bit(i - 1)) {
        acc = mont_mul(acc, acc);
        --i;
        continue;
      }
      std::size_t width = std::min(kWindow, i);
      while (!exponent.bit(i - width)) --width;
      unsigned value = 0;
      for (std::size_t b = 0; b < width; ++b)
        value = value << 1 | (exponent.bit(i - 1 - b) ? 1u : 0u);
      for (std::size_t b = 0; b < width; ++b) acc = mont_mul(acc, acc);
      acc = mont_mul(acc, odd_pows[value >> 1]);
      i -= width;
    }
    return from_mont(acc);
  }

 private:
  Limbs to_mont(const BigInt& a) const {
    BigInt reduced = a >= n_ ? a % n_ : a;
    Limbs al(reduced.limbs());
    al.resize(k_, 0);
    Limbs rr(rr_.limbs());
    rr.resize(k_, 0);
    return mont_mul(al, rr);
  }

  BigInt from_mont(const Limbs& a) const {
    Limbs one(k_, 0);
    one[0] = 1;
    return BigInt::from_limbs(mont_mul(a, one));
  }

  Limbs mont_mul(const Limbs& a, const Limbs& b) const {
    return ref_mont_mul(a, b, n_.limbs(), n0_inv_);
  }

  BigInt n_;
  std::size_t k_ = 0;
  u64 n0_inv_ = 0;
  BigInt rr_;
};

/// Naive square-and-multiply with full reductions.
BigInt naive_exp(const BigInt& base, const BigInt& e, const BigInt& m) {
  BigInt acc = BigInt(1) % m;
  const BigInt b = base % m;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = acc * acc % m;
    if (e.bit(i)) acc = acc * b % m;
  }
  return acc;
}

/// A random odd modulus of exactly `limbs` limbs; with `top_ones`, its top
/// limb is all ones.
BigInt modulus_of(std::size_t limbs, bool top_ones, Drbg& rng) {
  BigInt m = BigInt::random_bits(64 * limbs, rng);
  if (top_ones) {
    const BigInt low = m % (BigInt(1) << (64 * (limbs - 1)));
    m = (BigInt(~u64{0}) << (64 * (limbs - 1))) + low;
  }
  if (!m.is_odd()) m = m + BigInt(1);
  return m;
}

struct Width {
  std::size_t limbs;
  bool top_ones;
};

class KernelWidth : public ::testing::TestWithParam<Width> {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Drbg>(GetParam().limbs * 2 + GetParam().top_ones,
                                  "montgomery-kernel");
    n_ = modulus_of(GetParam().limbs, GetParam().top_ones, *rng_);
    ASSERT_EQ(n_.limbs().size(), GetParam().limbs);
    if (GetParam().top_ones) {
      ASSERT_EQ(n_.limbs().back(), ~u64{0});
    }
  }

  /// Random operands plus 0, 1 and n - 1.
  std::vector<BigInt> operands(int random_count) {
    std::vector<BigInt> v = {BigInt(), BigInt(1), n_ - BigInt(1)};
    for (int i = 0; i < random_count; ++i)
      v.push_back(BigInt::random_below(n_, *rng_));
    return v;
  }

  std::unique_ptr<Drbg> rng_;
  BigInt n_;
};

TEST_P(KernelWidth, MulMatchesOracle) {
  const MontgomeryCtx ctx(n_);
  const RefMont ref(n_);
  const std::vector<BigInt> ops = operands(8);
  for (const BigInt& a : ops)
    for (const BigInt& b : ops) {
      EXPECT_EQ(ctx.mul(a, b), ref.mul(a, b));
      EXPECT_EQ(ctx.mul(a, b), a * b % n_);
    }
}

TEST_P(KernelWidth, ExpMatchesOracle) {
  const MontgomeryCtx ctx(n_);
  const RefMont ref(n_);
  std::vector<BigInt> exps = {BigInt(), BigInt(1), BigInt(2), BigInt(3),
                              BigInt(255), BigInt(256), n_ - BigInt(1)};
  for (std::size_t bits : {9, 64, 160, 512})
    exps.push_back(BigInt::random_bits(bits, *rng_));
  for (const BigInt& base : operands(4))
    for (const BigInt& e : exps) EXPECT_EQ(ctx.exp(base, e), ref.exp(base, e));
  // Bases at or above n are reduced first.
  const BigInt big = n_ * BigInt(3) + BigInt(7);
  EXPECT_EQ(ctx.exp(big, exps.back()), ref.exp(big, exps.back()));
}

TEST_P(KernelWidth, ShortExponentsMatchSquareAndMultiply) {
  // e = 0..300 crosses the 8-bit boundary between square-and-multiply and
  // the sliding window.
  const MontgomeryCtx ctx(n_);
  const BigInt base = BigInt::random_below(n_, *rng_);
  for (std::uint64_t e = 0; e <= 300; ++e)
    ASSERT_EQ(ctx.exp(base, BigInt(e)), naive_exp(base, BigInt(e), n_))
        << "e = " << e;
}

TEST_P(KernelWidth, FixedBaseMatchesOracle) {
  const MontgomeryCtx ctx(n_);
  const RefMont ref(n_);
  const BigInt base = BigInt::random_below(n_, *rng_);
  const FixedBase table = ctx.fixed_base(base, 70);  // 18 rows: 72 bits
  ASSERT_EQ(table.rows, 18u);
  const BigInt all_ones = (BigInt(1) << 72) - BigInt(1);
  for (const BigInt& e :
       {BigInt(), BigInt(1), BigInt(16), all_ones, BigInt::random_bits(40, *rng_),
        all_ones + BigInt(1), BigInt::random_bits(200, *rng_)})
    EXPECT_EQ(ctx.exp(table, e), ref.exp(base, e)) << e.to_hex();
}

INSTANTIATE_TEST_SUITE_P(
    Widths, KernelWidth,
    ::testing::Values(Width{3, false}, Width{8, false}, Width{16, false},
                      Width{5, false}, Width{3, true}, Width{8, true},
                      Width{16, true}, Width{5, true}),
    [](const ::testing::TestParamInfo<Width>& info) {
      return "Limbs" + std::to_string(info.param.limbs) +
             (info.param.top_ones ? "TopOnes" : "");
    });

class GroupTables : public ::testing::TestWithParam<DhBits> {};

TEST_P(GroupTables, ExpGMatchesVariableBase) {
  const DhGroup& grp = dh_group(GetParam());
  const RefMont ref(grp.p());
  Drbg rng(11, "montgomery-exp-g");
  const std::size_t qbits = grp.q().bit_length();
  const BigInt top = (BigInt(1) << qbits) - BigInt(1);
  std::vector<BigInt> exps = {BigInt(), BigInt(1), grp.q() - BigInt(1), top,
                              grp.random_exponent(rng).get(),
                              grp.random_exponent(rng).get()};
  // One bit longer than the table covers: the fallback.
  exps.push_back(BigInt(1) << qbits);
  exps.push_back(BigInt::random_bits(qbits + 1, rng));
  for (const BigInt& e : exps) {
    EXPECT_EQ(grp.exp_g(e), grp.exp(grp.g(), e)) << e.to_hex();
    EXPECT_EQ(grp.exp_g(e), ref.exp(grp.g(), e)) << e.to_hex();
  }
}

TEST_P(GroupTables, InverseQMatchesEuclid) {
  const DhGroup& grp = dh_group(GetParam());
  Drbg rng(12, "montgomery-inverse-q");
  std::vector<BigInt> as = {BigInt(1), BigInt(2), grp.q() - BigInt(1),
                            grp.q() + BigInt(5)};
  for (int i = 0; i < 10; ++i) as.push_back(grp.random_exponent(rng).get());
  for (const BigInt& a : as) {
    const BigInt inv = grp.inverse_q(a);
    EXPECT_EQ(inv, mod_inverse(a, grp.q()));
    EXPECT_EQ(a * inv % grp.q(), BigInt(1));
  }
}

TEST_P(GroupTables, InverseQOfZeroThrows) {
  const DhGroup& grp = dh_group(GetParam());
  EXPECT_THROW(grp.inverse_q(BigInt()), std::domain_error);
  EXPECT_THROW(grp.inverse_q(grp.q()), std::domain_error);
  EXPECT_THROW(grp.inverse_q(grp.q() * BigInt(3)), std::domain_error);
}

INSTANTIATE_TEST_SUITE_P(Groups, GroupTables,
                         ::testing::Values(DhBits::k512, DhBits::k1024),
                         [](const ::testing::TestParamInfo<DhBits>& info) {
                           return info.param == DhBits::k512 ? "Dh512"
                                                             : "Dh1024";
                         });

namespace mk = montgomery_kernels;

enum class KernelId { kPortable, kAdx };

struct KernelCase {
  KernelId kernel;
  std::size_t limbs;
  bool top_ones;
};

/// One kernel at one width, checked limb for limb against ref_mont_mul or,
/// over long chains, against the portable kernel (itself checked against
/// ref_mont_mul here).
class KernelDiff : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    const KernelCase& c = GetParam();
    if (c.kernel == KernelId::kAdx) {
#ifdef SGK_MONTGOMERY_ADX
      if (!mk::adx_available()) GTEST_SKIP() << "this CPU lacks ADX or BMI2";
#else
      GTEST_SKIP() << "the ADX kernels are built only for x86-64 GCC/Clang";
#endif
    }
    rng_ = std::make_unique<Drbg>(c.limbs * 2 + c.top_ones, "montgomery-diff");
    const BigInt n = modulus_of(c.limbs, c.top_ones, *rng_);
    n_ = n.limbs();
    n0_inv_ = mk::neg_inv64(n_[0]);
    t_.assign(mk::portable_temp_limbs(c.limbs), 0);
  }

  /// out = a * b * R^-1 mod n through the kernel under test.
  void mul(u64* out, const u64* a, const u64* b) {
    const std::size_t k = GetParam().limbs;
    if (GetParam().kernel == KernelId::kPortable) {
      portable(out, a, b);
      return;
    }
#ifdef SGK_MONTGOMERY_ADX
    if (k == 8) mk::mul_adx8(out, a, b, n_.data(), n0_inv_);
    if (k == 16) mk::mul_adx16(out, a, b, n_.data(), n0_inv_, t_.data());
#endif
  }

  void portable(u64* out, const u64* a, const u64* b) {
    if (GetParam().limbs == 8)
      mk::mul_portable<8>(out, a, b, n_.data(), n0_inv_, 8, t_.data());
    else
      mk::mul_portable<16>(out, a, b, n_.data(), n0_inv_, 16, t_.data());
  }

  Limbs padded(const BigInt& v) const {
    Limbs l = v.limbs();
    l.resize(n_.size(), 0);
    return l;
  }

  /// 0, 1, n - 1 and random values below n.
  std::vector<Limbs> operands(int random_count) {
    const BigInt n = BigInt::from_limbs(n_);
    std::vector<Limbs> v = {padded(BigInt()), padded(BigInt(1)),
                            padded(n - BigInt(1))};
    for (int i = 0; i < random_count; ++i)
      v.push_back(padded(BigInt::random_below(n, *rng_)));
    return v;
  }

  std::unique_ptr<Drbg> rng_;
  Limbs n_;
  u64 n0_inv_ = 0;
  Limbs t_;
};

TEST_P(KernelDiff, EdgeAndRandomOperandsMatchOracle) {
  const std::vector<Limbs> ops = operands(6);
  Limbs out(n_.size());
  for (const Limbs& a : ops)
    for (const Limbs& b : ops) {
      mul(out.data(), a.data(), b.data());
      ASSERT_EQ(out, ref_mont_mul(a, b, n_, n0_inv_));
    }
}

TEST_P(KernelDiff, OutputMayAliasEitherOperand) {
  for (const Limbs& a : operands(4))
    for (const Limbs& b : operands(2)) {
      const Limbs want = ref_mont_mul(a, b, n_, n0_inv_);
      Limbs x = a;
      mul(x.data(), x.data(), b.data());
      EXPECT_EQ(x, want) << "out aliases a";
      Limbs y = b;
      mul(y.data(), a.data(), y.data());
      EXPECT_EQ(y, want) << "out aliases b";
      Limbs z = a;
      mul(z.data(), z.data(), z.data());
      EXPECT_EQ(z, ref_mont_mul(a, a, n_, n0_inv_)) << "out aliases a and b";
    }
}

TEST_P(KernelDiff, ChainedProductsMatchLimbForLimb) {
  // Each step feeds the last product back in, alternating plain products,
  // squarings in place and products into either operand; the fresh operand
  // r < n has a random top limb below n's. The ADX kernels are checked
  // against the portable kernel, the portable kernel against ref_mont_mul.
  constexpr int kSteps = 100000;
  const std::size_t k = n_.size();
  const bool vs_portable = GetParam().kernel != KernelId::kPortable;
  std::uint64_t state = 0x9e3779b97f4a7c15u * (k + GetParam().top_ones);
  const auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15u);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
    return z ^ (z >> 31);
  };
  Limbs x = operands(1).back();
  Limbs want = x;
  Limbs r(k), out(k);
  for (int i = 0; i < kSteps; ++i) {
    for (u64& l : r) l = next();
    r[k - 1] %= n_[k - 1];
    switch (i % 4) {
      case 0:
        mul(out.data(), x.data(), r.data());
        x = out;
        break;
      case 1: mul(x.data(), x.data(), x.data()); break;
      case 2: mul(x.data(), r.data(), x.data()); break;
      default: mul(x.data(), x.data(), r.data()); break;
    }
    const Limbs& rhs = i % 4 == 1 ? want : r;
    if (vs_portable) {
      portable(want.data(), want.data(), rhs.data());
    } else {
      want = ref_mont_mul(want, rhs, n_, n0_inv_);
    }
    ASSERT_EQ(x, want) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelDiff,
    ::testing::Values(KernelCase{KernelId::kPortable, 8, false},
                      KernelCase{KernelId::kPortable, 8, true},
                      KernelCase{KernelId::kPortable, 16, false},
                      KernelCase{KernelId::kPortable, 16, true},
                      KernelCase{KernelId::kAdx, 8, false},
                      KernelCase{KernelId::kAdx, 8, true},
                      KernelCase{KernelId::kAdx, 16, false},
                      KernelCase{KernelId::kAdx, 16, true}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return std::string(info.param.kernel == KernelId::kAdx ? "Adx"
                                                             : "Portable") +
             std::to_string(info.param.limbs) +
             (info.param.top_ones ? "TopOnes" : "");
    });

}  // namespace
}  // namespace sgk
