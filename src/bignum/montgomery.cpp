#include "bignum/montgomery.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "util/check.h"

namespace sgk {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Window size 4 matches typical sliding-window implementations for the
// 160..1024-bit exponents used here.
constexpr std::size_t kWindow = 4;
constexpr std::size_t kOddPowers = std::size_t{1} << (kWindow - 1);
// Up to this many exponent bits, the odd-power table costs more multiplies
// than it saves; square-and-multiply is used instead.
constexpr std::size_t kShortExpBits = 8;
// Non-zero 4-bit digits: the entries of one fixed-base table row.
constexpr std::size_t kDigits = 15;
// Kernel temporaries for a k-limb modulus: the reduction multipliers and the
// k + 1 limb result.
constexpr std::size_t temp_limbs(std::size_t k) { return 2 * k + 1; }
// Limbs one exponentiation needs: kernel temporaries, accumulator, odd powers
// and the squared base.
constexpr std::size_t exp_limbs(std::size_t k) {
  return temp_limbs(k) + k + kOddPowers * k + k;
}

// -n^{-1} mod 2^64 by Newton iteration (n odd).
u64 neg_inv64(u64 n) {
  u64 inv = n;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) inv *= 2 - n * inv;
  return ~inv + 1;  // -(n^{-1})
}

// One column of a product-scanning multiply: a three-limb accumulator.
struct Column {
  u64 c0 = 0, c1 = 0, c2 = 0;

  // (c2:c1:c0) += x * y
  void mac(u64 x, u64 y) {
    const u128 p = static_cast<u128>(x) * y;
    const u128 s = (static_cast<u128>(c1) << 64 | c0) + p;
    c2 += s < p ? 1 : 0;
    c0 = static_cast<u64>(s);
    c1 = static_cast<u64>(s >> 64);
  }
  // Moves to the next column: (c2:c1:c0) >>= 64.
  void shift() {
    c0 = c1;
    c1 = c2;
    c2 = 0;
  }
};

// Limb workspace for one operation: on the stack for moduli of up to 16
// limbs, one heap block for wider ones.
class Workspace {
 public:
  explicit Workspace(std::size_t limbs) {
    if (limbs > kStackLimbs) heap_.resize(limbs);
  }
  u64* get() { return heap_.empty() ? stack_ : heap_.data(); }

 private:
  static constexpr std::size_t kStackLimbs = exp_limbs(16);
  u64 stack_[kStackLimbs] = {};
  std::vector<u64> heap_;
};

// Calls f with the kernel width for a k-limb modulus as a compile-time
// constant: 3, 8 or 16, or 0 for the runtime-width instance.
template <class F>
decltype(auto) by_width(std::size_t k, F&& f) {
  switch (k) {
    case 3: return f(std::integral_constant<std::size_t, 3>());
    case 8: return f(std::integral_constant<std::size_t, 8>());
    case 16: return f(std::integral_constant<std::size_t, 16>());
    default: return f(std::integral_constant<std::size_t, 0>());
  }
}
}  // namespace

// The routines of one kernel width over caller-owned buffers: every operand
// and result is exactly width() limbs and `t` holds temp_limbs(width())
// limbs. Only BigInt results and the reduction of an input >= n allocate.
template <std::size_t K>
struct MontgomeryCtx::Kernel {
  const MontgomeryCtx& ctx;
  Limb* t;

  std::size_t width() const { return K != 0 ? K : ctx.k_; }

  // out = a * b * R^-1 mod n by product scanning with the reduction folded
  // into each column (FIPS: Koc, Acar and Kaliski, "Analyzing and comparing
  // Montgomery multiplication algorithms", 1996). The column sum stays in a
  // three-limb register accumulator; t holds the reduction multipliers m
  // and the result before its final subtraction. out may alias a or b.
  void mul(Limb* out, const Limb* a, const Limb* b) const {
    const std::size_t k = width();
    const Limb* n = ctx.n_.limbs().data();
    Limb* m = t;
    Limb* r = t + k;
    Column col;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        col.mac(a[j], b[i - j]);
        col.mac(m[j], n[i - j]);
      }
      col.mac(a[i], b[0]);
      m[i] = col.c0 * ctx.n0_inv_;
      col.mac(m[i], n[0]);  // zeroes the low limb
      col.shift();
    }
    for (std::size_t i = k; i < 2 * k; ++i) {
      for (std::size_t j = i - k + 1; j < k; ++j) {
        col.mac(a[j], b[i - j]);
        col.mac(m[j], n[i - j]);
      }
      r[i - k] = col.c0;
      col.shift();
    }
    r[k] = col.c0;
    // r < 2n: out = r - n, unless that borrows past r[k] (then r < n).
    u64 borrow = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 diff = static_cast<u128>(r[j]) - n[j] - borrow;
      out[j] = static_cast<u64>(diff);
      borrow = static_cast<u64>((diff >> 64) & 1);
    }
    if (borrow > r[k]) std::copy(r, r + k, out);
  }

  // out = a mod n, zero-padded to width() limbs.
  void load(Limb* out, const BigInt& a) const {
    BigInt reduced;
    const BigInt* v = &a;
    if (a >= ctx.n_) v = &(reduced = a % ctx.n_);
    std::fill(std::copy(v->limbs().begin(), v->limbs().end(), out),
              out + width(), Limb{0});
  }

  // out = a * R mod n.
  void to_mont(Limb* out, const BigInt& a) const {
    load(out, a);
    mul(out, out, ctx.rr_.data());
  }

  // a * R^-1 mod n as a BigInt; overwrites a and `spare` (width() limbs).
  BigInt from_mont(Limb* a, Limb* spare) const {
    std::fill(spare, spare + width(), Limb{0});
    spare[0] = 1;
    mul(a, a, spare);
    return BigInt::from_limbs(std::vector<Limb>(a, a + width()));
  }

  // base ^ e for e >= 1; ws holds exp_limbs(width()) - temp_limbs(width())
  // limbs.
  BigInt exp(const BigInt& base, const BigInt& e, Limb* ws) const {
    const std::size_t k = width();
    const std::size_t ebits = e.bit_length();
    Limb* acc = ws;
    Limb* pows = acc + k;  // base^1, base^3, ..., base^(2^kWindow - 1)
    Limb* sq = pows + kOddPowers * k;
    to_mont(pows, base);
    std::copy(pows, pows + k, acc);
    if (ebits <= kShortExpBits) {
      for (std::size_t i = ebits - 1; i-- > 0;) {
        mul(acc, acc, acc);
        if (e.bit(i)) mul(acc, acc, pows);
      }
      return from_mont(acc, sq);
    }
    mul(sq, pows, pows);
    for (std::size_t j = 1; j < kOddPowers; ++j)
      mul(pows + j * k, pows + (j - 1) * k, sq);

    // The top bit is set, so the first window seeds acc instead of
    // multiplying into a power of one.
    bool seeded = false;
    std::size_t i = ebits;
    while (i > 0) {
      if (!e.bit(i - 1)) {
        mul(acc, acc, acc);
        --i;
        continue;
      }
      // Take the largest window [i-1 .. j] with an odd low bit,
      // win <= kWindow.
      std::size_t win = std::min(kWindow, i);
      while (!e.bit(i - win)) --win;  // terminates: bit(i-1)==1
      unsigned value = 0;
      for (std::size_t b = 0; b < win; ++b)
        value = value << 1 | (e.bit(i - 1 - b) ? 1u : 0u);
      const Limb* pow = pows + (value >> 1) * k;
      if (seeded) {
        for (std::size_t b = 0; b < win; ++b) mul(acc, acc, acc);
        mul(acc, acc, pow);
      } else {
        std::copy(pow, pow + k, acc);
        seeded = true;
      }
      i -= win;
    }
    return from_mont(acc, sq);
  }

  void build_fixed(FixedBase& table) const {
    const std::size_t k = width();
    const std::size_t row_limbs = kDigits * k;
    Limb* row = table.limbs.data();
    for (std::size_t i = 0; i < table.rows; ++i, row += row_limbs) {
      // Entry d of row i (at (d - 1) * k) is base^(d * 16^i).
      if (i == 0) {
        to_mont(row, table.base);
      } else {
        const Limb* prev = row - row_limbs;
        mul(row, prev + (kDigits - 1) * k, prev);  // base^(16 * 16^(i-1))
      }
      for (std::size_t d = 1; d < kDigits; ++d)
        mul(row + d * k, row + (d - 1) * k, row);
    }
  }

  // table.base ^ e for 1 <= bits(e) <= 4 * table.rows; ws holds 2 * width()
  // limbs.
  BigInt exp_fixed(const FixedBase& table, const BigInt& e, Limb* ws) const {
    const std::size_t k = width();
    Limb* acc = ws;
    bool seeded = false;
    const std::vector<Limb>& el = e.limbs();
    for (std::size_t i = 0; i < table.rows && i / 16 < el.size(); ++i) {
      const std::size_t d = (el[i / 16] >> (4 * (i % 16))) & 0xf;
      if (d == 0) continue;
      const Limb* entry = table.limbs.data() + (i * kDigits + d - 1) * k;
      if (seeded) {
        mul(acc, acc, entry);
      } else {
        std::copy(entry, entry + k, acc);
        seeded = true;
      }
    }
    return from_mont(acc, acc + k);
  }
};

MontgomeryCtx::MontgomeryCtx(const BigInt& modulus) : n_(modulus) {
  if (!modulus.is_odd() || modulus <= BigInt(1))
    throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 1");
  k_ = n_.limbs().size();
  n0_inv_ = neg_inv64(n_.limbs()[0]);
  // R^2 mod n where R = 2^(64k).
  rr_ = ((BigInt(1) << (128 * k_)) % n_).limbs();
  rr_.resize(k_, 0);
}

BigInt MontgomeryCtx::mul(const BigInt& a, const BigInt& b) const {
  Workspace ws(temp_limbs(k_) + 2 * k_);
  return by_width(k_, [&](auto w) {
    const Kernel<decltype(w)::value> kn{*this, ws.get()};
    Limb* x = ws.get() + temp_limbs(k_);
    Limb* y = x + k_;
    kn.load(x, a);
    kn.load(y, b);
    kn.mul(x, x, y);           // a * b * R^-1
    kn.mul(x, x, rr_.data());  // a * b
    return BigInt::from_limbs(std::vector<Limb>(x, x + k_));
  });
}

BigInt MontgomeryCtx::exp(const BigInt& base, const BigInt& exponent) const {
  if (exponent.is_zero()) return BigInt(1);
  Workspace ws(exp_limbs(k_));
  return by_width(k_, [&](auto w) {
    const Kernel<decltype(w)::value> kn{*this, ws.get()};
    return kn.exp(base, exponent, ws.get() + temp_limbs(k_));
  });
}

FixedBase MontgomeryCtx::fixed_base(const BigInt& base,
                                    std::size_t max_bits) const {
  FixedBase table{base, (max_bits + 3) / 4, {}};
  table.limbs.resize(table.rows * kDigits * k_);
  Workspace ws(temp_limbs(k_));
  by_width(k_, [&](auto w) {
    const Kernel<decltype(w)::value> kn{*this, ws.get()};
    kn.build_fixed(table);
  });
  return table;
}

BigInt MontgomeryCtx::exp(const FixedBase& table, const BigInt& exponent) const {
  if (exponent.bit_length() > 4 * table.rows) return exp(table.base, exponent);
  if (exponent.is_zero()) return BigInt(1);
  Workspace ws(temp_limbs(k_) + 2 * k_);
  return by_width(k_, [&](auto w) {
    const Kernel<decltype(w)::value> kn{*this, ws.get()};
    return kn.exp_fixed(table, exponent, ws.get() + temp_limbs(k_));
  });
}

BigInt mod_exp(const BigInt& base, const BigInt& exp, const BigInt& modulus) {
  if (modulus.is_zero()) throw std::domain_error("mod_exp: zero modulus");
  if (modulus == BigInt(1)) return BigInt();
  if (modulus.is_odd()) return MontgomeryCtx(modulus).exp(base, exp);
  // Plain square-and-multiply fallback for even moduli.
  BigInt acc(1);
  BigInt b = base % modulus;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = acc * acc % modulus;
    if (exp.bit(i)) acc = acc * b % modulus;
  }
  return acc;
}

}  // namespace sgk
