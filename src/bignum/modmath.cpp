#include "bignum/modmath.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sgk {

BigInt gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a;
  BigInt y = b;
  while (!y.is_zero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// A natural number in a fixed-width limb buffer: d[0..len) with d[len-1] != 0
// (len = 0 is zero).
struct Num {
  u64* d;
  std::size_t len;

  std::size_t bits() const {
    return len == 0 ? 0
                    : 64 * len - static_cast<std::size_t>(
                                     __builtin_clzll(d[len - 1]));
  }
  // Bits [pos, pos + 64) of the value; bits below 0 read as zero.
  u64 window(std::ptrdiff_t pos) const {
    if (pos < 0) return len == 0 ? 0 : d[0] << -pos;  // pos > -64 here
    const auto i = static_cast<std::size_t>(pos) / 64;
    const unsigned sh = static_cast<unsigned>(pos) % 64;
    const u64 lo = i < len ? d[i] >> sh : 0;
    const u64 hi = sh != 0 && i + 1 < len ? d[i + 1] << (64 - sh) : 0;
    return lo | hi;
  }
  void trim() {
    while (len > 0 && d[len - 1] == 0) --len;
  }
};

int compare(const Num& x, const Num& y) {
  if (x.len != y.len) return x.len < y.len ? -1 : 1;
  for (std::size_t i = x.len; i-- > 0;)
    if (x.d[i] != y.d[i]) return x.d[i] < y.d[i] ? -1 : 1;
  return 0;
}

// x -= (q << 64w) * y; the caller guarantees the result is not negative.
void sub_mul(Num& x, const Num& y, u64 q, std::size_t w) {
  u64 carry = 0;  // high product half plus borrow, owed to the next limb
  std::size_t i = w;
  for (std::size_t j = 0; j < y.len; ++j, ++i) {
    const u128 p = static_cast<u128>(q) * y.d[j] + carry;
    const u64 lo = static_cast<u64>(p);
    carry = static_cast<u64>(p >> 64) + (x.d[i] < lo ? 1 : 0);
    x.d[i] -= lo;
  }
  for (; carry != 0; ++i) {
    const u64 before = x.d[i];
    x.d[i] -= carry;
    carry = before < carry ? 1 : 0;
  }
  x.trim();
}

// x += (q << 64w) * y; the caller guarantees the result fits the buffer.
void add_mul(Num& x, const Num& y, u64 q, std::size_t w) {
  u64 carry = 0;
  std::size_t i = w;
  for (std::size_t j = 0; j < y.len; ++j, ++i) {
    const u128 s = static_cast<u128>(q) * y.d[j] + (i < x.len ? x.d[i] : 0) +
                   carry;
    x.d[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  for (; carry != 0; ++i) {
    const u128 s = static_cast<u128>(i < x.len ? x.d[i] : 0) + carry;
    x.d[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  x.len = std::max(x.len, i);
}
}  // namespace

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  if (m.bit_length() < 2) throw std::domain_error("mod_inverse: modulus must be > 1");
  // Extended Euclid over one workspace of four m-wide buffers, tracking only
  // the coefficient of a: r = t * a (mod m) for both rows (r_prev, t_prev)
  // and (r_cur, t_cur). The coefficients alternate in sign, so each step
  // t_prev - q * t_cur adds magnitudes and the sign is a parity bit. Each
  // quotient is taken in single-limb pieces q' * 2^(64w): q' underestimates
  // the quotient from the top 64 bits of r_prev and r_cur * 2^(64w) and is at
  // least 1, and the piece repeats until r_prev < r_cur. Every coefficient
  // stays at most m, so nothing outgrows the buffers.
  BigInt reduced;
  const BigInt& a0 = a >= m ? (reduced = a % m) : a;
  const std::size_t k = m.limbs().size();
  std::vector<u64> ws(4 * k, 0);
  Num r_prev{ws.data(), k}, r_cur{ws.data() + k, a0.limbs().size()};
  Num t_prev{ws.data() + 2 * k, 0}, t_cur{ws.data() + 3 * k, 1};
  std::copy(m.limbs().begin(), m.limbs().end(), r_prev.d);
  std::copy(a0.limbs().begin(), a0.limbs().end(), r_cur.d);
  t_cur.d[0] = 1;
  bool prev_neg = false, cur_neg = false;
  while (r_cur.len != 0) {
    while (compare(r_prev, r_cur) >= 0) {
      const std::size_t top = r_prev.bits();
      const std::size_t gap = top - r_cur.bits();
      const std::size_t w = gap <= 64 ? 0 : (gap - 1) / 64;
      u64 q;
      if (top <= 64) {
        q = r_prev.d[0] / r_cur.d[0];
      } else {
        const auto pos = static_cast<std::ptrdiff_t>(top) - 64;
        const u64 x = r_prev.window(pos);
        const u64 y = r_cur.window(pos - static_cast<std::ptrdiff_t>(64 * w));
        q = y == ~u64{0} ? 0 : x / (y + 1);
        if (q == 0) q = 1;
      }
      sub_mul(r_prev, r_cur, q, w);
      add_mul(t_prev, t_cur, q, w);
    }
    std::swap(r_prev, r_cur);
    std::swap(t_prev, t_cur);
    prev_neg = cur_neg;
    cur_neg = !cur_neg;
  }
  if (r_prev.len != 1 || r_prev.d[0] != 1)
    throw std::domain_error("mod_inverse: not invertible");
  BigInt inv = BigInt::from_limbs(std::vector<u64>(t_prev.d, t_prev.d + t_prev.len));
  return prev_neg ? m - inv : inv;
}

BigInt mod_add(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt s = a + b;
  if (s >= m) s = s - m;
  return s;
}

BigInt mod_sub(const BigInt& a, const BigInt& b, const BigInt& m) {
  if (a >= b) return a - b;
  return m - (b - a);
}

BigInt crt_combine(const BigInt& xp, const BigInt& xq, const BigInt& p,
                   const BigInt& q, const BigInt& qinv) {
  // x = xq + q * ((xp - xq) * qinv mod p)
  BigInt diff = mod_sub(xp % p, xq % p, p);
  BigInt h = diff * qinv % p;
  return xq + q * h;
}

}  // namespace sgk
