// Montgomery multiply kernels behind MontgomeryCtx (montgomery.h). Internal
// to bignum; the tests include it to call each kernel directly.
//
// Every kernel computes out = a * b * R^-1 mod n, R = 2^(64k), for a k-limb
// odd modulus n, operands a, b < n of exactly k limbs, and
// n0_inv = -n^-1 mod 2^64. out may alias a, b or both.
//
//   - mul_portable: product scanning in C++, for every width. It is the only
//     kernel off x86-64, on CPUs without ADX/BMI2 and for widths other than
//     8 and 16 limbs, and the oracle the others are tested against.
//   - mul_adx8 / mul_adx16 (x86-64 GCC/Clang builds only): CIOS in inline
//     assembly with MULX and two carry chains (ADCX, ADOX), ending in a
//     branch-free final subtraction. The 8-limb kernel keeps T in registers,
//     the 16-limb one streams it through memory. MontgomeryCtx uses them
//     when adx_available().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SGK_MONTGOMERY_ADX 1
#endif

namespace sgk::montgomery_kernels {

using Limb = std::uint64_t;

/// -n^{-1} mod 2^64 by Newton iteration (n odd): the n0_inv of a modulus
/// whose low limb is n.
constexpr Limb neg_inv64(Limb n) {
  Limb inv = n;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) inv *= 2 - n * inv;
  return ~inv + 1;  // -(n^{-1})
}

/// Scratch limbs mul_portable needs for a k-limb modulus: the reduction
/// multipliers and the k + 1 limb result.
constexpr std::size_t portable_temp_limbs(std::size_t k) { return 2 * k + 1; }

// One column of a product-scanning multiply: a three-limb accumulator.
struct Column {
  Limb c0 = 0, c1 = 0, c2 = 0;

  // (c2:c1:c0) += x * y
  void mac(Limb x, Limb y) {
    using u128 = unsigned __int128;
    const u128 p = static_cast<u128>(x) * y;
    const u128 s = (static_cast<u128>(c1) << 64 | c0) + p;
    c2 += s < p ? 1 : 0;
    c0 = static_cast<Limb>(s);
    c1 = static_cast<Limb>(s >> 64);
  }
  // Moves to the next column: (c2:c1:c0) >>= 64.
  void shift() {
    c0 = c1;
    c1 = c2;
    c2 = 0;
  }
};

/// Product scanning with the reduction folded into each column (FIPS: Koc,
/// Acar and Kaliski, "Analyzing and comparing Montgomery multiplication
/// algorithms", 1996). The column sum stays in a three-limb register
/// accumulator; t (portable_temp_limbs(k) limbs) holds the reduction
/// multipliers m and the result before its final subtraction, which is
/// data-dependent. K is the limb count, or 0 for the runtime width k.
template <std::size_t K>
inline void mul_portable(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                         Limb n0_inv, std::size_t k, Limb* t) {
  using u128 = unsigned __int128;
  if constexpr (K != 0) k = K;
  Limb* m = t;
  Limb* r = t + k;
  Column col;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      col.mac(a[j], b[i - j]);
      col.mac(m[j], n[i - j]);
    }
    col.mac(a[i], b[0]);
    m[i] = col.c0 * n0_inv;
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
  Limb borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const u128 diff = static_cast<u128>(r[j]) - n[j] - borrow;
    out[j] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>((diff >> 64) & 1);
  }
  if (borrow > r[k]) std::copy(r, r + k, out);
}

/// True when this build has the ADX kernels and the CPU supports ADX and
/// BMI2. Decided once per process.
bool adx_available();

#ifdef SGK_MONTGOMERY_ADX
/// The 8-limb ADX kernel. Requires adx_available().
void mul_adx8(Limb* out, const Limb* a, const Limb* b, const Limb* n,
              Limb n0_inv);

/// Scratch limbs mul_adx16 needs: T, 18 limbs.
constexpr std::size_t kAdx16TempLimbs = 18;

/// The 16-limb ADX kernel; t holds kAdx16TempLimbs limbs. Requires
/// adx_available().
void mul_adx16(Limb* out, const Limb* a, const Limb* b, const Limb* n,
               Limb n0_inv, Limb* t);
#endif

}  // namespace sgk::montgomery_kernels
