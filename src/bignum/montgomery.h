// Montgomery modular arithmetic and modular exponentiation.
//
// This mirrors the implementation strategy the paper attributes to OpenSSL
// (Montgomery reduction + sliding-window exponentiation), which matters for
// the fidelity of the cost model: the cost of a modular exponentiation is
// essentially (#squarings + #multiplies) * cost(montgomery multiply), i.e.
// roughly linear in the exponent bit-length for a fixed modulus size.
//
// Every path runs on one Montgomery multiply per modulus width, writing into
// caller-owned limb buffers, so an exponentiation allocates nothing per
// multiply (montgomery_kernels.h). The portable kernel is product scanning
// with the reduction folded into each column (FIPS), templated on the limb
// count and instantiated for 3 limbs (160-bit q), 8 (DH-512 p, RSA-CRT
// primes) and 16 (DH-1024 p, RSA-1024 n), plus a runtime-width instance for
// every other modulus. On x86-64 CPUs with ADX and BMI2 (detected once per
// process; nothing else selects it) the 8- and 16-limb widths use an
// inline-assembly CIOS kernel instead: MULX with two independent carry
// chains (ADCX/ADOX) and a branch-free final subtraction, plus a dedicated
// squaring kernel that forms each cross product once. Both give the same
// limbs. At 8 limbs an exponentiation keeps the kernels' frame (n and its
// accumulator) resident, so the hot loop copies no limbs. On top of them:
//   - exp(): 4-bit sliding window, or plain square-and-multiply for
//     exponents of at most 8 bits (RSA e = 3, BD's small exponents), with
//     every squaring on the squaring kernel and the windows read straight
//     from the exponent's limbs;
//   - exp(FixedBase, e): a precomputed table of base^(d * 16^i), so a fixed
//     base costs one multiply per non-zero 4-bit exponent digit and no
//     squarings (DhGroup's g).
// All of it is variable-time: it branches on exponent bits and indexes its
// tables by exponent digits, and the portable kernel ends each multiply with
// a data-dependent subtraction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bignum/bigint.h"

namespace sgk {

class MontgomeryCtx;

/// base^(d * 16^i) mod n in Montgomery form for i < rows, d = 1..15: the
/// precomputed table exp(FixedBase, e) reads. Built by
/// MontgomeryCtx::fixed_base; only meaningful with the context that built it.
struct FixedBase {
  BigInt base;
  std::size_t rows = 0;             // 4-bit exponent digits covered
  std::vector<std::uint64_t> limbs; // rows * 15 entries of k limbs each
};

/// Precomputed context for arithmetic modulo a fixed odd modulus.
class MontgomeryCtx {
 public:
  /// Requires an odd modulus > 1; throws std::invalid_argument otherwise.
  explicit MontgomeryCtx(const BigInt& modulus);

  const BigInt& modulus() const { return n_; }

  /// (a * b) mod n, for a, b already reduced mod n.
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// (base ^ exp) mod n. base need not be reduced.
  BigInt exp(const BigInt& base, const BigInt& exp) const;

  /// Table for exp(table, e) with exponents of up to `max_bits` bits.
  FixedBase fixed_base(const BigInt& base, std::size_t max_bits) const;
  /// (table.base ^ exp) mod n. Exponents longer than the table covers fall
  /// back to exp(table.base, exp).
  BigInt exp(const FixedBase& table, const BigInt& exp) const;

 private:
  using Limb = std::uint64_t;
  // The multiply kernel and the exponentiations built on it for one kernel
  // width (montgomery.cpp); K = 0 is the runtime-width instance.
  template <std::size_t K>
  struct Kernel;

  BigInt n_;
  std::size_t k_ = 0;        // limb count of n_
  Limb n0_inv_ = 0;          // -n^{-1} mod 2^64
  std::vector<Limb> rr_;     // R^2 mod n, for conversion into Montgomery form
};

/// Convenience one-shot (base ^ exp) mod modulus. For odd moduli uses
/// Montgomery; for even moduli falls back to square-and-multiply with full
/// reductions (only needed by tests).
BigInt mod_exp(const BigInt& base, const BigInt& exp, const BigInt& modulus);

}  // namespace sgk
