#include "bignum/montgomery.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <type_traits>

#include "bignum/montgomery_kernels.h"
#include "util/check.h"

#ifdef SGK_MONTGOMERY_ADX
#include <cpuid.h>
#endif

namespace sgk {

namespace kernels = montgomery_kernels;

namespace {
using u64 = std::uint64_t;

// Window size 4 matches typical sliding-window implementations for the
// 160..1024-bit exponents used here.
constexpr std::size_t kWindow = 4;
constexpr std::size_t kOddPowers = std::size_t{1} << (kWindow - 1);
// Up to this many exponent bits, the odd-power table costs more multiplies
// than it saves; square-and-multiply is used instead.
constexpr std::size_t kShortExpBits = 8;
// Non-zero 4-bit digits: the entries of one fixed-base table row.
constexpr std::size_t kDigits = 15;
// Kernel temporaries for a k-limb modulus.
constexpr std::size_t temp_limbs(std::size_t k) {
  return kernels::portable_temp_limbs(k);
}
#ifdef SGK_MONTGOMERY_ADX
static_assert(temp_limbs(16) >= kernels::kAdx16TempLimbs);
#endif
// Limbs one exponentiation needs: kernel temporaries, accumulator, odd powers
// and the squared base.
constexpr std::size_t exp_limbs(std::size_t k) {
  return temp_limbs(k) + k + kOddPowers * k + k;
}

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

namespace montgomery_kernels {

bool adx_available() {
#ifdef SGK_MONTGOMERY_ADX
  // CPUID leaf 7: EBX bit 8 is BMI2 (MULX), bit 19 is ADX (ADCX, ADOX).
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ebx >> 8 & 1) != 0 && (ebx >> 19 & 1) != 0;
  }();
  return available;
#else
  return false;
#endif
}

#ifdef SGK_MONTGOMERY_ADX
// Both kernels are CIOS: for each limb b_i, T += a * b_i, then
// T = (T + m * n) / 2^64 with m = T_0 * n0_inv mod 2^64. Each of the two
// passes adds the low product halves into T through the ADCX (CF) chain and
// the high halves through the ADOX (OF) chain, so the chains run
// independently. T < 2n between rows, but T + a * b_i can spill into a
// (k+2)-th word when the top limb of n is all ones; both kernels keep it.
// The final subtraction computes T - n and keeps T instead when that borrows,
// by conditional moves. Neither kernel touches rbp, so frame-pointer and
// sanitizer builds keep it.

// One step of a pass over 8 limbs: (hi:lo) = rdx * src; lo into T_j by
// ADCX, hi into T_{j+1} by ADOX.
#define SGK_MULADD(src, tj, tj1)             \
  "mulxq " #src "(%%r15), %%rax, %%r14\n\t"  \
  "adcxq %%rax, %%" #tj "\n\t"               \
  "adoxq %%r14, %%" #tj1 "\n\t"
// Closes a pass: the CF carry into T_8, then both carries into T_9.
#define SGK_CLOSE8(t8, t9)   \
  "movl $0, %%eax\n\t"       \
  "adcxq %%rax, %%" #t8 "\n\t" \
  "adcxq %%rax, %%" #t9 "\n\t" \
  "adoxq %%rax, %%" #t9 "\n\t"
// One row of the 8-limb kernel: b_i sits at boff from b, and t0..t9 name
// the registers holding T_0..T_9 (T_9 = 0 on entry). On exit T_0 = 0 and
// T_1..T_9 are the next row's T_0..T_8, so the next row renames the
// registers by one instead of shifting.
#define SGK_ROW8(boff, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9)            \
  "movq 136(%%r15), %%rdx\n\t"                                           \
  "movq " #boff "(%%rdx), %%rdx\n\t"                                     \
  "xorl %%eax, %%eax\n\t"                                                \
  SGK_MULADD(72, t0, t1) SGK_MULADD(80, t1, t2) SGK_MULADD(88, t2, t3)    \
  SGK_MULADD(96, t3, t4) SGK_MULADD(104, t4, t5) SGK_MULADD(112, t5, t6)  \
  SGK_MULADD(120, t6, t7) SGK_MULADD(128, t7, t8) SGK_CLOSE8(t8, t9)      \
  "movq %%" #t0 ", %%rdx\n\t"                                            \
  "imulq (%%r15), %%rdx\n\t"                                             \
  "xorl %%eax, %%eax\n\t"                                                \
  SGK_MULADD(8, t0, t1) SGK_MULADD(16, t1, t2) SGK_MULADD(24, t2, t3)     \
  SGK_MULADD(32, t3, t4) SGK_MULADD(40, t4, t5) SGK_MULADD(48, t5, t6)    \
  SGK_MULADD(56, t6, t7) SGK_MULADD(64, t7, t8) SGK_CLOSE8(t8, t9)

namespace {
// Everything the 8-limb kernel reads, at fixed offsets from r15, so that
// all ten words of T fit in the remaining registers.
struct Adx8Frame {
  Limb n0_inv;
  Limb n[8];
  Limb a[8];
  const Limb* b;
  Limb* out;
};
static_assert(offsetof(Adx8Frame, n) == 8 && offsetof(Adx8Frame, a) == 72 &&
              offsetof(Adx8Frame, b) == 136 && offsetof(Adx8Frame, out) == 144);
}  // namespace

void mul_adx8(Limb* out, const Limb* a, const Limb* b, const Limb* n,
              Limb n0_inv) {
  Adx8Frame f;
  f.n0_inv = n0_inv;
  std::copy(n, n + 8, f.n);
  std::copy(a, a + 8, f.a);
  f.b = b;
  f.out = out;
  register const Adx8Frame* frame asm("r15") = &f;
  asm volatile(
      "xorl %%ebx, %%ebx\n\t"
      "xorl %%ecx, %%ecx\n\t"
      "xorl %%esi, %%esi\n\t"
      "xorl %%edi, %%edi\n\t"
      "xorl %%r8d, %%r8d\n\t"
      "xorl %%r9d, %%r9d\n\t"
      "xorl %%r10d, %%r10d\n\t"
      "xorl %%r11d, %%r11d\n\t"
      "xorl %%r12d, %%r12d\n\t"
      "xorl %%r13d, %%r13d\n\t"
      SGK_ROW8(0, rbx, rcx, rsi, rdi, r8, r9, r10, r11, r12, r13)
      SGK_ROW8(8, rcx, rsi, rdi, r8, r9, r10, r11, r12, r13, rbx)
      SGK_ROW8(16, rsi, rdi, r8, r9, r10, r11, r12, r13, rbx, rcx)
      SGK_ROW8(24, rdi, r8, r9, r10, r11, r12, r13, rbx, rcx, rsi)
      SGK_ROW8(32, r8, r9, r10, r11, r12, r13, rbx, rcx, rsi, rdi)
      SGK_ROW8(40, r9, r10, r11, r12, r13, rbx, rcx, rsi, rdi, r8)
      SGK_ROW8(48, r10, r11, r12, r13, rbx, rcx, rsi, rdi, r8, r9)
      SGK_ROW8(56, r11, r12, r13, rbx, rcx, rsi, rdi, r8, r9, r10)
      // T_0..T_8 = r12, r13, rbx, rcx, rsi, rdi, r8, r9, r10. Store T, form
      // T - n in place, and on a borrow reload T.
      "movq 144(%%r15), %%rdx\n\t"
      "movq %%r12, 0(%%rdx)\n\t"
      "movq %%r13, 8(%%rdx)\n\t"
      "movq %%rbx, 16(%%rdx)\n\t"
      "movq %%rcx, 24(%%rdx)\n\t"
      "movq %%rsi, 32(%%rdx)\n\t"
      "movq %%rdi, 40(%%rdx)\n\t"
      "movq %%r8, 48(%%rdx)\n\t"
      "movq %%r9, 56(%%rdx)\n\t"
      "subq 8(%%r15), %%r12\n\t"
      "sbbq 16(%%r15), %%r13\n\t"
      "sbbq 24(%%r15), %%rbx\n\t"
      "sbbq 32(%%r15), %%rcx\n\t"
      "sbbq 40(%%r15), %%rsi\n\t"
      "sbbq 48(%%r15), %%rdi\n\t"
      "sbbq 56(%%r15), %%r8\n\t"
      "sbbq 64(%%r15), %%r9\n\t"
      "sbbq $0, %%r10\n\t"
      "cmovcq 0(%%rdx), %%r12\n\t"
      "cmovcq 8(%%rdx), %%r13\n\t"
      "cmovcq 16(%%rdx), %%rbx\n\t"
      "cmovcq 24(%%rdx), %%rcx\n\t"
      "cmovcq 32(%%rdx), %%rsi\n\t"
      "cmovcq 40(%%rdx), %%rdi\n\t"
      "cmovcq 48(%%rdx), %%r8\n\t"
      "cmovcq 56(%%rdx), %%r9\n\t"
      "movq %%r12, 0(%%rdx)\n\t"
      "movq %%r13, 8(%%rdx)\n\t"
      "movq %%rbx, 16(%%rdx)\n\t"
      "movq %%rcx, 24(%%rdx)\n\t"
      "movq %%rsi, 32(%%rdx)\n\t"
      "movq %%rdi, 40(%%rdx)\n\t"
      "movq %%r8, 48(%%rdx)\n\t"
      "movq %%r9, 56(%%rdx)\n\t"
      :
      : "r"(frame)
      : "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11",
        "r12", "r13", "r14", "cc", "memory");
}

#undef SGK_ROW8
#undef SGK_CLOSE8
#undef SGK_MULADD

// The 16-limb kernel keeps T in t[0..17] and loops over the rows. Within a
// pass, step j forms T_j + lo_j + hi_{j-1} in rax (ADCX adds T_j, ADOX the
// previous high half) while the high halves alternate between r8 and r9;
// r10 stays zero and r11 counts rows. The reduction pass stores step j's
// word at T_{j-1}, which is the shift by one limb.
#define SGK_STEP16(src, off, dst, hi, prev)     \
  "mulxq " #off "(%[" #src "]), %%rax, %%" #hi "\n\t" \
  "adcxq " #off "(%[t]), %%rax\n\t"              \
  "adoxq %%" #prev ", %%rax\n\t"                 \
  "movq %%rax, " #dst "(%[t])\n\t"
#define SGK_PASS16(src, d)                                                  \
  SGK_STEP16(src, 8, 8 - d, r9, r8) SGK_STEP16(src, 16, 16 - d, r8, r9)     \
  SGK_STEP16(src, 24, 24 - d, r9, r8) SGK_STEP16(src, 32, 32 - d, r8, r9)   \
  SGK_STEP16(src, 40, 40 - d, r9, r8) SGK_STEP16(src, 48, 48 - d, r8, r9)   \
  SGK_STEP16(src, 56, 56 - d, r9, r8) SGK_STEP16(src, 64, 64 - d, r8, r9)   \
  SGK_STEP16(src, 72, 72 - d, r9, r8) SGK_STEP16(src, 80, 80 - d, r8, r9)   \
  SGK_STEP16(src, 88, 88 - d, r9, r8) SGK_STEP16(src, 96, 96 - d, r8, r9)   \
  SGK_STEP16(src, 104, 104 - d, r9, r8)                                     \
  SGK_STEP16(src, 112, 112 - d, r8, r9)                                     \
  SGK_STEP16(src, 120, 120 - d, r9, r8)                                     \
  "movq 128(%[t]), %%rax\n\t"                                               \
  "adcxq %%r10, %%rax\n\t"                                                  \
  "adoxq %%r9, %%rax\n\t"                                                   \
  "movq %%rax, 128 - " #d "(%[t])\n\t"
#define SGK_SUB16(off)                \
  "movq " #off "(%[t]), %%rax\n\t"    \
  "sbbq " #off "(%[n]), %%rax\n\t"    \
  "movq %%rax, " #off "(%[out])\n\t"
#define SGK_SELECT16(off)               \
  "movq " #off "(%[out]), %%rax\n\t"    \
  "cmovcq " #off "(%[t]), %%rax\n\t"    \
  "movq %%rax, " #off "(%[out])\n\t"

void mul_adx16(Limb* out, const Limb* a, const Limb* b, const Limb* n,
               Limb n0_inv, Limb* t) {
  std::fill(t, t + 17, Limb{0});
  asm volatile(
      "xorl %%r10d, %%r10d\n\t"
      "movl $16, %%r11d\n\t"
      "1:\n\t"
      // T += a * b_i; T_17 is written, not read: it is zero on entry.
      "movq (%[b]), %%rdx\n\t"
      "xorl %%eax, %%eax\n\t"
      "mulxq 0(%[a]), %%rax, %%r8\n\t"
      "adcxq 0(%[t]), %%rax\n\t"
      "movq %%rax, 0(%[t])\n\t"
      SGK_PASS16(a, 0)
      "movl $0, %%eax\n\t"
      "adcxq %%r10, %%rax\n\t"
      "adoxq %%r10, %%rax\n\t"
      "movq %%rax, 136(%[t])\n\t"
      // T = (T + m * n) / 2^64.
      "movq 0(%[t]), %%rdx\n\t"
      "imulq %[n0], %%rdx\n\t"
      "xorl %%eax, %%eax\n\t"
      "mulxq 0(%[n]), %%rax, %%r8\n\t"
      "adcxq 0(%[t]), %%rax\n\t"
      SGK_PASS16(n, 8)
      "movq 136(%[t]), %%rax\n\t"
      "adcxq %%r10, %%rax\n\t"
      "adoxq %%r10, %%rax\n\t"
      "movq %%rax, 128(%[t])\n\t"
      "leaq 8(%[b]), %[b]\n\t"
      "decl %%r11d\n\t"
      "jnz 1b\n\t"
      // out = T - n, or T when that borrows.
      "movq 0(%[t]), %%rax\n\t"
      "subq 0(%[n]), %%rax\n\t"
      "movq %%rax, 0(%[out])\n\t"
      SGK_SUB16(8) SGK_SUB16(16) SGK_SUB16(24) SGK_SUB16(32) SGK_SUB16(40)
      SGK_SUB16(48) SGK_SUB16(56) SGK_SUB16(64) SGK_SUB16(72) SGK_SUB16(80)
      SGK_SUB16(88) SGK_SUB16(96) SGK_SUB16(104) SGK_SUB16(112)
      SGK_SUB16(120)
      "movq 128(%[t]), %%rax\n\t"
      "sbbq $0, %%rax\n\t"
      SGK_SELECT16(0) SGK_SELECT16(8) SGK_SELECT16(16) SGK_SELECT16(24)
      SGK_SELECT16(32) SGK_SELECT16(40) SGK_SELECT16(48) SGK_SELECT16(56)
      SGK_SELECT16(64) SGK_SELECT16(72) SGK_SELECT16(80) SGK_SELECT16(88)
      SGK_SELECT16(96) SGK_SELECT16(104) SGK_SELECT16(112)
      SGK_SELECT16(120)
      : [b] "+r"(b)
      : [a] "r"(a), [n] "r"(n), [t] "r"(t), [out] "r"(out), [n0] "rm"(n0_inv)
      : "rax", "rdx", "r8", "r9", "r10", "r11", "cc", "memory");
}

#undef SGK_SELECT16
#undef SGK_SUB16
#undef SGK_PASS16
#undef SGK_STEP16
#endif  // SGK_MONTGOMERY_ADX

}  // namespace montgomery_kernels

// The routines of one kernel width over caller-owned buffers: every operand
// and result is exactly width() limbs and `t` holds temp_limbs(width())
// limbs. Only BigInt results and the reduction of an input >= n allocate.
template <std::size_t K>
struct MontgomeryCtx::Kernel {
  const MontgomeryCtx& ctx;
  Limb* t;
  bool adx = kernels::adx_available();

  std::size_t width() const { return K != 0 ? K : ctx.k_; }

  // out = a * b * R^-1 mod n; out may alias a or b.
  void mul(Limb* out, const Limb* a, const Limb* b) const {
    const Limb* n = ctx.n_.limbs().data();
#ifdef SGK_MONTGOMERY_ADX
    if constexpr (K == 8) {
      if (adx) return kernels::mul_adx8(out, a, b, n, ctx.n0_inv_);
    } else if constexpr (K == 16) {
      if (adx) return kernels::mul_adx16(out, a, b, n, ctx.n0_inv_, t);
    }
#endif
    kernels::mul_portable<K>(out, a, b, n, ctx.n0_inv_, ctx.k_, t);
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
  n0_inv_ = kernels::neg_inv64(n_.limbs()[0]);
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
