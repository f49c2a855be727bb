#include "bignum/modmath.h"

#include <stdexcept>
#include <utility>

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

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  if (m <= BigInt(1)) throw std::domain_error("mod_inverse: modulus must be > 1");
  // Extended Euclid tracking only the coefficient of a, as a signed value
  // represented by (magnitude, negative) to stay within natural arithmetic.
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
      // t0 - q*t1 where both share sign s: s*(|t0| - q|t1|)
      if (t0 >= qt) {
        nt = t0 - qt;
        nt_neg = t0_neg;
      } else {
        nt = qt - t0;
        nt_neg = !t0_neg;
      }
    } else {
      // Opposite signs: |t0| + q|t1| with t0's sign.
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
