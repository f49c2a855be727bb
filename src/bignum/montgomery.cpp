#include "bignum/montgomery.h"

#include <algorithm>
#include <bit>
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
// Bits [lo, lo + count) of an exponent's limbs, for count <= kWindow and
// lo + count at most its bit length.
unsigned exponent_bits(const std::vector<u64>& el, std::size_t lo,
                       std::size_t count) {
  const std::size_t limb = lo / 64;
  const std::size_t shift = lo % 64;
  u64 v = el[limb] >> shift;
  if (shift + count > 64) v |= el[limb + 1] << (64 - shift);
  return static_cast<unsigned>(v & ((u64{1} << count) - 1));
}
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
// Both multiply kernels are CIOS: for each limb b_i, T += a * b_i, then
// T = (T + m * n) / 2^64 with m = T_0 * n0_inv mod 2^64. Each of the two
// passes adds the low product halves into T through the ADCX (CF) chain and
// the high halves through the ADOX (OF) chain, so the chains run
// independently. T < 2n between rows, but T + a * b_i can spill into a
// (k+2)-th word when the top limb of n is all ones; both kernels keep it.
// The square kernels form the 2k-limb square P = a * a first and then run
// the reduction passes alone. The final subtraction computes T - n and keeps
// T instead when that borrows, by conditional moves. No kernel touches rbp,
// so frame-pointer and sanitizer builds keep it.

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
// T = (T + m * n) / 2^64 over the registers t0..t9 holding T_0..T_9
// (T_9 = 0 on entry). On exit T_0 = 0 and T_1..T_9 are the next row's
// T_0..T_8, so the next row renames the registers by one instead of
// shifting.
#define SGK_REDUCE8(t0, t1, t2, t3, t4, t5, t6, t7, t8, t9)               \
  "movq %%" #t0 ", %%rdx\n\t"                                            \
  "imulq (%%r15), %%rdx\n\t"                                             \
  "xorl %%eax, %%eax\n\t"                                                \
  SGK_MULADD(8, t0, t1) SGK_MULADD(16, t1, t2) SGK_MULADD(24, t2, t3)     \
  SGK_MULADD(32, t3, t4) SGK_MULADD(40, t4, t5) SGK_MULADD(48, t5, t6)    \
  SGK_MULADD(56, t6, t7) SGK_MULADD(64, t7, t8) SGK_CLOSE8(t8, t9)
// One row of the 8-limb multiply: T += a * b_i, b_i at boff from b, then
// the reduction.
#define SGK_ROW8(boff, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9)            \
  "movq 136(%%r15), %%rdx\n\t"                                           \
  "movq " #boff "(%%rdx), %%rdx\n\t"                                     \
  "xorl %%eax, %%eax\n\t"                                                \
  SGK_MULADD(72, t0, t1) SGK_MULADD(80, t1, t2) SGK_MULADD(88, t2, t3)    \
  SGK_MULADD(96, t3, t4) SGK_MULADD(104, t4, t5) SGK_MULADD(112, t5, t6)  \
  SGK_MULADD(120, t6, t7) SGK_MULADD(128, t7, t8) SGK_CLOSE8(t8, t9)      \
  SGK_REDUCE8(t0, t1, t2, t3, t4, t5, t6, t7, t8, t9)
// Both 8-limb kernels end with T_0..T_8 in r12, r13, rbx, rcx, rsi, rdi, r8,
// r9, r10. Store T at out, form T - n in place, and on a borrow reload T.
#define SGK_FINAL8                 \
  "movq 144(%%r15), %%rdx\n\t"     \
  "movq %%r12, 0(%%rdx)\n\t"       \
  "movq %%r13, 8(%%rdx)\n\t"       \
  "movq %%rbx, 16(%%rdx)\n\t"      \
  "movq %%rcx, 24(%%rdx)\n\t"      \
  "movq %%rsi, 32(%%rdx)\n\t"      \
  "movq %%rdi, 40(%%rdx)\n\t"      \
  "movq %%r8, 48(%%rdx)\n\t"       \
  "movq %%r9, 56(%%rdx)\n\t"       \
  "subq 8(%%r15), %%r12\n\t"       \
  "sbbq 16(%%r15), %%r13\n\t"      \
  "sbbq 24(%%r15), %%rbx\n\t"      \
  "sbbq 32(%%r15), %%rcx\n\t"      \
  "sbbq 40(%%r15), %%rsi\n\t"      \
  "sbbq 48(%%r15), %%rdi\n\t"      \
  "sbbq 56(%%r15), %%r8\n\t"       \
  "sbbq 64(%%r15), %%r9\n\t"       \
  "sbbq $0, %%r10\n\t"             \
  "cmovcq 0(%%rdx), %%r12\n\t"     \
  "cmovcq 8(%%rdx), %%r13\n\t"     \
  "cmovcq 16(%%rdx), %%rbx\n\t"    \
  "cmovcq 24(%%rdx), %%rcx\n\t"    \
  "cmovcq 32(%%rdx), %%rsi\n\t"    \
  "cmovcq 40(%%rdx), %%rdi\n\t"    \
  "cmovcq 48(%%rdx), %%r8\n\t"     \
  "cmovcq 56(%%rdx), %%r9\n\t"     \
  "movq %%r12, 0(%%rdx)\n\t"       \
  "movq %%r13, 8(%%rdx)\n\t"       \
  "movq %%rbx, 16(%%rdx)\n\t"      \
  "movq %%rcx, 24(%%rdx)\n\t"      \
  "movq %%rsi, 32(%%rdx)\n\t"      \
  "movq %%rdi, 40(%%rdx)\n\t"      \
  "movq %%r8, 48(%%rdx)\n\t"       \
  "movq %%r9, 56(%%rdx)\n\t"
#define SGK_CLOBBERS8                                                      \
  "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11", "r12", \
      "r13", "r14", "cc", "memory"

static_assert(offsetof(Adx8Frame, n) == 8 && offsetof(Adx8Frame, a) == 72 &&
              offsetof(Adx8Frame, b) == 136 &&
              offsetof(Adx8Frame, out) == 144 &&
              offsetof(Adx8Frame, p) == 152);

void mul_adx8(Adx8Frame& f, const Limb* b, Limb* out) {
  f.b = b;
  f.out = out;
  register Adx8Frame* frame asm("r15") = &f;
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
      SGK_FINAL8
      :
      : "r"(frame)
      : SGK_CLOBBERS8);
}

// The square in three phases. (1) Row i adds a_i * a_j for j > i into the
// cross-product words X_{2i+1}..X_{i+8}; word w lives in register
// (w - 1) mod 8 of rbx, rcx, rsi, rdi, r8, r9, r10, r11, X_{i+8} is new
// (zeroed, which also clears both carry flags), and X_{2i+1} and X_{2i+2}
// are final after row i and go to p. (2) P = 2X + sum a_i^2 2^(128i), the
// doubling by ADCX and the squares by ADOX: P_0..P_7 stay in the registers
// the reduction starts from, P_8..P_15 go back to p. (3) Eight reduction
// rows turn P_0..P_7 into Q = (P_lo + M * n) / 2^512 <= n, and
// Q + P_8..P_15 = (P + M * n) / R < 2n goes to the final subtraction.
// Starts a row: rdx = a_i (at aoff) and the new top word zeroed.
#define SGK_SQROW8(aoff, top)        \
  "movq " #aoff "(%%r15), %%rdx\n\t" \
  "xorq %%" #top ", %%" #top "\n\t"
// Ends a row: the CF carry into the top word, and the two finished words
// lo and hi to p at ploff.
#define SGK_SQEND8(top, lo, hi, ploff)           \
  "movl $0, %%eax\n\t"                          \
  "adcxq %%rax, %%" #top "\n\t"                 \
  "movq %%" #lo ", " #ploff "(%%r15)\n\t"       \
  "movq %%" #hi ", " #ploff "+8(%%r15)\n\t"
// P_{2i} and P_{2i+1} into registers lo and hi, from X_{2i} and X_{2i+1}
// at woff and a_i^2 = (r14:rax).
#define SGK_SQDIAG8(aoff, woff, lo, hi)  \
  "movq " #aoff "(%%r15), %%rdx\n\t"     \
  "mulxq %%rdx, %%rax, %%r14\n\t"        \
  "movq " #woff "(%%r15), %%" #lo "\n\t" \
  "adcxq %%" #lo ", %%" #lo "\n\t"       \
  "adoxq %%rax, %%" #lo "\n\t"           \
  "movq " #woff "+8(%%r15), %%" #hi "\n\t" \
  "adcxq %%" #hi ", %%" #hi "\n\t"       \
  "adoxq %%r14, %%" #hi "\n\t"
// The same for the high words, written back to p through r12 and r13.
#define SGK_SQDIAG8_HI(aoff, woff)         \
  SGK_SQDIAG8(aoff, woff, r12, r13)        \
  "movq %%r12, " #woff "(%%r15)\n\t"       \
  "movq %%r13, " #woff "+8(%%r15)\n\t"

void sqr_adx8(Adx8Frame& f, Limb* out) {
  f.out = out;
  register Adx8Frame* frame asm("r15") = &f;
  asm volatile(
      "xorl %%ebx, %%ebx\n\t"
      "xorl %%ecx, %%ecx\n\t"
      "xorl %%esi, %%esi\n\t"
      "xorl %%edi, %%edi\n\t"
      "xorl %%r8d, %%r8d\n\t"
      "xorl %%r9d, %%r9d\n\t"
      "xorl %%r10d, %%r10d\n\t"
      // (1) Cross products. p[w] is at 152 + 8w.
      SGK_SQROW8(72, r11)
      SGK_MULADD(80, rbx, rcx) SGK_MULADD(88, rcx, rsi)
      SGK_MULADD(96, rsi, rdi) SGK_MULADD(104, rdi, r8)
      SGK_MULADD(112, r8, r9) SGK_MULADD(120, r9, r10)
      SGK_MULADD(128, r10, r11)
      SGK_SQEND8(r11, rbx, rcx, 160)
      SGK_SQROW8(80, rbx)
      SGK_MULADD(88, rsi, rdi) SGK_MULADD(96, rdi, r8)
      SGK_MULADD(104, r8, r9) SGK_MULADD(112, r9, r10)
      SGK_MULADD(120, r10, r11) SGK_MULADD(128, r11, rbx)
      SGK_SQEND8(rbx, rsi, rdi, 176)
      SGK_SQROW8(88, rcx)
      SGK_MULADD(96, r8, r9) SGK_MULADD(104, r9, r10)
      SGK_MULADD(112, r10, r11) SGK_MULADD(120, r11, rbx)
      SGK_MULADD(128, rbx, rcx)
      SGK_SQEND8(rcx, r8, r9, 192)
      SGK_SQROW8(96, rsi)
      SGK_MULADD(104, r10, r11) SGK_MULADD(112, r11, rbx)
      SGK_MULADD(120, rbx, rcx) SGK_MULADD(128, rcx, rsi)
      SGK_SQEND8(rsi, r10, r11, 208)
      SGK_SQROW8(104, rdi)
      SGK_MULADD(112, rbx, rcx) SGK_MULADD(120, rcx, rsi)
      SGK_MULADD(128, rsi, rdi)
      SGK_SQEND8(rdi, rbx, rcx, 224)
      SGK_SQROW8(112, r8)
      SGK_MULADD(120, rsi, rdi) SGK_MULADD(128, rdi, r8)
      SGK_SQEND8(r8, rsi, rdi, 240)
      SGK_SQROW8(120, r9)
      SGK_MULADD(128, r8, r9)
      SGK_SQEND8(r9, r8, r9, 256)
      // (2) Doubling and squares; X_0 = X_15 = 0.
      "xorl %%eax, %%eax\n\t"
      "movq 72(%%r15), %%rdx\n\t"
      "mulxq %%rdx, %%rbx, %%r14\n\t"
      "movq 160(%%r15), %%rcx\n\t"
      "adcxq %%rcx, %%rcx\n\t"
      "adoxq %%r14, %%rcx\n\t"
      SGK_SQDIAG8(80, 168, rsi, rdi)
      SGK_SQDIAG8(88, 184, r8, r9)
      SGK_SQDIAG8(96, 200, r10, r11)
      SGK_SQDIAG8_HI(104, 216)
      SGK_SQDIAG8_HI(112, 232)
      SGK_SQDIAG8_HI(120, 248)
      "movq 128(%%r15), %%rdx\n\t"
      "mulxq %%rdx, %%rax, %%r14\n\t"
      "movq 264(%%r15), %%r12\n\t"
      "adcxq %%r12, %%r12\n\t"
      "adoxq %%rax, %%r12\n\t"
      "movl $0, %%r13d\n\t"
      "adcxq %%r13, %%r13\n\t"
      "adoxq %%r14, %%r13\n\t"
      "movq %%r12, 264(%%r15)\n\t"
      "movq %%r13, 272(%%r15)\n\t"
      // (3) Reduction of P_0..P_7, then + P_8..P_15.
      "xorl %%r12d, %%r12d\n\t"
      "xorl %%r13d, %%r13d\n\t"
      SGK_REDUCE8(rbx, rcx, rsi, rdi, r8, r9, r10, r11, r12, r13)
      SGK_REDUCE8(rcx, rsi, rdi, r8, r9, r10, r11, r12, r13, rbx)
      SGK_REDUCE8(rsi, rdi, r8, r9, r10, r11, r12, r13, rbx, rcx)
      SGK_REDUCE8(rdi, r8, r9, r10, r11, r12, r13, rbx, rcx, rsi)
      SGK_REDUCE8(r8, r9, r10, r11, r12, r13, rbx, rcx, rsi, rdi)
      SGK_REDUCE8(r9, r10, r11, r12, r13, rbx, rcx, rsi, rdi, r8)
      SGK_REDUCE8(r10, r11, r12, r13, rbx, rcx, rsi, rdi, r8, r9)
      SGK_REDUCE8(r11, r12, r13, rbx, rcx, rsi, rdi, r8, r9, r10)
      "addq 216(%%r15), %%r12\n\t"
      "adcq 224(%%r15), %%r13\n\t"
      "adcq 232(%%r15), %%rbx\n\t"
      "adcq 240(%%r15), %%rcx\n\t"
      "adcq 248(%%r15), %%rsi\n\t"
      "adcq 256(%%r15), %%rdi\n\t"
      "adcq 264(%%r15), %%r8\n\t"
      "adcq 272(%%r15), %%r9\n\t"
      "adcq $0, %%r10\n\t"
      SGK_FINAL8
      :
      : "r"(frame)
      : SGK_CLOBBERS8);
}

#undef SGK_SQDIAG8_HI
#undef SGK_SQDIAG8
#undef SGK_SQEND8
#undef SGK_SQROW8
#undef SGK_CLOBBERS8
#undef SGK_FINAL8
#undef SGK_ROW8
#undef SGK_REDUCE8
#undef SGK_CLOSE8
#undef SGK_MULADD

// The 16-limb kernels keep T in t and loop over the reduction rows. Within a
// pass, step j forms T_j + lo_j + hi_{j-1} in rax (ADCX adds T_j, ADOX the
// previous high half) while the high halves alternate between r8 and r9;
// r10 stays zero and r11 counts rows. The multiply's reduction pass stores
// step j's word at T_{j-1}, which is the shift by one limb.
#define SGK_STEP16(src, off, dst, hi, prev)     \
  "mulxq " #off "(%[" #src "]), %%rax, %%" #hi "\n\t" \
  "adcxq " #off "(%[t]), %%rax\n\t"              \
  "adoxq %%" #prev ", %%rax\n\t"                 \
  "movq %%rax, " #dst "(%[t])\n\t"
// Steps 1..15 of a pass over src; step j stores its word d bytes below T_j.
#define SGK_STEPS16(src, d)                                                 \
  SGK_STEP16(src, 8, 8 - d, r9, r8) SGK_STEP16(src, 16, 16 - d, r8, r9)     \
  SGK_STEP16(src, 24, 24 - d, r9, r8) SGK_STEP16(src, 32, 32 - d, r8, r9)   \
  SGK_STEP16(src, 40, 40 - d, r9, r8) SGK_STEP16(src, 48, 48 - d, r8, r9)   \
  SGK_STEP16(src, 56, 56 - d, r9, r8) SGK_STEP16(src, 64, 64 - d, r8, r9)   \
  SGK_STEP16(src, 72, 72 - d, r9, r8) SGK_STEP16(src, 80, 80 - d, r8, r9)   \
  SGK_STEP16(src, 88, 88 - d, r9, r8) SGK_STEP16(src, 96, 96 - d, r8, r9)   \
  SGK_STEP16(src, 104, 104 - d, r9, r8)                                     \
  SGK_STEP16(src, 112, 112 - d, r8, r9)                                     \
  SGK_STEP16(src, 120, 120 - d, r9, r8)
#define SGK_PASS16(src, d)                                                  \
  SGK_STEPS16(src, d)                                                       \
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
// out = T - n, or T when that borrows; `top` subtracts the borrow from T_16.
#define SGK_FINAL16(top)                                                    \
  "movq 0(%[t]), %%rax\n\t"                                                 \
  "subq 0(%[n]), %%rax\n\t"                                                 \
  "movq %%rax, 0(%[out])\n\t"                                               \
  SGK_SUB16(8) SGK_SUB16(16) SGK_SUB16(24) SGK_SUB16(32) SGK_SUB16(40)      \
  SGK_SUB16(48) SGK_SUB16(56) SGK_SUB16(64) SGK_SUB16(72) SGK_SUB16(80)     \
  SGK_SUB16(88) SGK_SUB16(96) SGK_SUB16(104) SGK_SUB16(112)                 \
  SGK_SUB16(120)                                                            \
  top                                                                       \
  SGK_SELECT16(0) SGK_SELECT16(8) SGK_SELECT16(16) SGK_SELECT16(24)         \
  SGK_SELECT16(32) SGK_SELECT16(40) SGK_SELECT16(48) SGK_SELECT16(56)       \
  SGK_SELECT16(64) SGK_SELECT16(72) SGK_SELECT16(80) SGK_SELECT16(88)       \
  SGK_SELECT16(96) SGK_SELECT16(104) SGK_SELECT16(112)                      \
  SGK_SELECT16(120)

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
      SGK_FINAL16("movq 128(%[t]), %%rax\n\t"
                  "sbbq $0, %%rax\n\t")
      : [b] "+r"(b)
      : [a] "r"(a), [n] "r"(n), [t] "r"(t), [out] "r"(out), [n0] "rm"(n0_inv)
      : "rax", "rdx", "r8", "r9", "r10", "r11", "cc", "memory");
}

// The square in three phases over t = P_0..P_31. (1) Row i (a_i at byte
// offset i8) adds a_i * a_j for j > i into the cross-product words
// X_{2i+1}..X_{i+16}: the first step's low half into X_{2i+1}, then
// SGK_XT<m> runs the m remaining steps, each a SGK_STEP16 at word i + j, and
// closes X_{i+16}, which no earlier row wrote. The offsets are sums for the
// assembler to add. (2) P = 2X + sum a_i^2 2^(128i), in place: the doubling
// by ADCX, the squares by ADOX. (3) Sixteen reduction rows add m * n at
// T = t + 8r in place. Each row's carry out of T_16 (0, 1 or 2) goes into
// the next row's T_16 through the register c; after the last row T_0..T_15
// and c hold (P + M * n) / R < 2n.
#define SGK_XS16(i8, j8, hi, prev)                        \
  "mulxq " #j8 "(%[a]), %%rax, %%" #hi "\n\t"             \
  "adcxq " #i8 "+" #j8 "(%[t]), %%rax\n\t"                \
  "adoxq %%" #prev ", %%rax\n\t"                          \
  "movq %%rax, " #i8 "+" #j8 "(%[t])\n\t"
#define SGK_XT0(i8, j8, hi, prev)   \
  "movl $0, %%eax\n\t"              \
  "adcxq %%r10, %%rax\n\t"          \
  "adoxq %%" #prev ", %%rax\n\t"    \
  "movq %%rax, " #i8 "+128(%[t])\n\t"
#define SGK_XT1(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT0(i8, j8+8, prev, hi)
#define SGK_XT2(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT1(i8, j8+8, prev, hi)
#define SGK_XT3(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT2(i8, j8+8, prev, hi)
#define SGK_XT4(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT3(i8, j8+8, prev, hi)
#define SGK_XT5(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT4(i8, j8+8, prev, hi)
#define SGK_XT6(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT5(i8, j8+8, prev, hi)
#define SGK_XT7(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT6(i8, j8+8, prev, hi)
#define SGK_XT8(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT7(i8, j8+8, prev, hi)
#define SGK_XT9(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT8(i8, j8+8, prev, hi)
#define SGK_XT10(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT9(i8, j8+8, prev, hi)
#define SGK_XT11(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT10(i8, j8+8, prev, hi)
#define SGK_XT12(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT11(i8, j8+8, prev, hi)
#define SGK_XT13(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT12(i8, j8+8, prev, hi)
#define SGK_XT14(i8, j8, hi, prev) \
  SGK_XS16(i8, j8, hi, prev) SGK_XT13(i8, j8+8, prev, hi)
#define SGK_XROW16(i8, tail)                          \
  "movq " #i8 "(%[a]), %%rdx\n\t"                     \
  "xorl %%eax, %%eax\n\t"                             \
  "mulxq " #i8 "+8(%[a]), %%rax, %%r8\n\t"            \
  "adcxq " #i8 "+" #i8 "+8(%[t]), %%rax\n\t"          \
  "movq %%rax, " #i8 "+" #i8 "+8(%[t])\n\t"           \
  tail(i8, i8+16, r9, r8)
// P_w at byte offset w8 from X_w and `add`, in place.
#define SGK_DOUBLE16(w8, add)                 \
  "movq " #w8 "(%[t]), %%r9\n\t"              \
  "adcxq %%r9, %%r9\n\t"                      \
  "adoxq %%" #add ", %%r9\n\t"                \
  "movq %%r9, " #w8 "(%[t])\n\t"
#define SGK_DIAG16(i8, w8)                    \
  "movq " #i8 "(%[a]), %%rdx\n\t"             \
  "mulxq %%rdx, %%rax, %%r8\n\t"              \
  SGK_DOUBLE16(w8, rax) SGK_DOUBLE16(w8+8, r8)

void sqr_adx16(Limb* out, const Limb* a, const Limb* n, Limb n0_inv,
               Limb* t) {
  std::fill(t + 1, t + 16, Limb{0});
  Limb c;
  asm volatile(
      "xorl %%r10d, %%r10d\n\t"
      // (1) Cross products.
      SGK_XROW16(0, SGK_XT14) SGK_XROW16(8, SGK_XT13)
      SGK_XROW16(16, SGK_XT12) SGK_XROW16(24, SGK_XT11)
      SGK_XROW16(32, SGK_XT10) SGK_XROW16(40, SGK_XT9)
      SGK_XROW16(48, SGK_XT8) SGK_XROW16(56, SGK_XT7)
      SGK_XROW16(64, SGK_XT6) SGK_XROW16(72, SGK_XT5)
      SGK_XROW16(80, SGK_XT4) SGK_XROW16(88, SGK_XT3)
      SGK_XROW16(96, SGK_XT2) SGK_XROW16(104, SGK_XT1)
      SGK_XROW16(112, SGK_XT0)
      // (2) Doubling and squares; X_0 = X_31 = 0.
      "xorl %%eax, %%eax\n\t"
      "movq 0(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %%rax, %%r8\n\t"
      "movq %%rax, 0(%[t])\n\t"
      SGK_DOUBLE16(8, r8)
      SGK_DIAG16(8, 16) SGK_DIAG16(16, 32) SGK_DIAG16(24, 48)
      SGK_DIAG16(32, 64) SGK_DIAG16(40, 80) SGK_DIAG16(48, 96)
      SGK_DIAG16(56, 112) SGK_DIAG16(64, 128) SGK_DIAG16(72, 144)
      SGK_DIAG16(80, 160) SGK_DIAG16(88, 176) SGK_DIAG16(96, 192)
      SGK_DIAG16(104, 208) SGK_DIAG16(112, 224)
      "movq 120(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %%rax, %%r8\n\t"
      SGK_DOUBLE16(240, rax)
      "movl $0, %%r9d\n\t"
      "adcxq %%r9, %%r9\n\t"
      "adoxq %%r8, %%r9\n\t"
      "movq %%r9, 248(%[t])\n\t"
      // (3) Reduction rows.
      "xorl %k[c], %k[c]\n\t"
      "movl $16, %%r11d\n\t"
      "1:\n\t"
      "movq 0(%[t]), %%rdx\n\t"
      "imulq %[n0], %%rdx\n\t"
      "xorl %%eax, %%eax\n\t"
      "mulxq 0(%[n]), %%rax, %%r8\n\t"
      "adcxq 0(%[t]), %%rax\n\t"
      SGK_STEPS16(n, 0)
      "movq 128(%[t]), %%rax\n\t"
      "adoxq %%r9, %%rax\n\t"
      "adcxq %[c], %%rax\n\t"
      "movq %%rax, 128(%[t])\n\t"
      "movl $0, %k[c]\n\t"
      "adcxq %%r10, %[c]\n\t"
      "adoxq %%r10, %[c]\n\t"
      "leaq 8(%[t]), %[t]\n\t"
      "decl %%r11d\n\t"
      "jnz 1b\n\t"
      SGK_FINAL16("sbbq $0, %[c]\n\t")
      : [t] "+r"(t), [c] "=&r"(c)
      : [a] "r"(a), [n] "r"(n), [out] "r"(out), [n0] "rm"(n0_inv)
      : "rax", "rdx", "r8", "r9", "r10", "r11", "cc", "memory");
}

#undef SGK_DIAG16
#undef SGK_DOUBLE16
#undef SGK_XROW16
#undef SGK_XT14
#undef SGK_XT13
#undef SGK_XT12
#undef SGK_XT11
#undef SGK_XT10
#undef SGK_XT9
#undef SGK_XT8
#undef SGK_XT7
#undef SGK_XT6
#undef SGK_XT5
#undef SGK_XT4
#undef SGK_XT3
#undef SGK_XT2
#undef SGK_XT1
#undef SGK_XT0
#undef SGK_XS16
#undef SGK_FINAL16
#undef SGK_SELECT16
#undef SGK_SUB16
#undef SGK_PASS16
#undef SGK_STEPS16
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
#ifdef SGK_MONTGOMERY_ADX
  // The 8-limb ADX kernels' resident frame: n0_inv and n are filled once,
  // here, and accumulator() keeps the exponentiations' accumulator in it.
  mutable kernels::Adx8Frame frame;
#endif

  Kernel(const MontgomeryCtx& c, Limb* temp) : ctx(c), t(temp) {
#ifdef SGK_MONTGOMERY_ADX
    if constexpr (K == 8) {
      frame.n0_inv = ctx.n0_inv_;
      std::copy_n(ctx.n_.limbs().data(), 8, frame.n);
    }
#endif
  }

  std::size_t width() const { return K != 0 ? K : ctx.k_; }

  // Where an exponentiation keeps its accumulator: in the 8-limb ADX frame,
  // so that multiplying or squaring it copies no limbs, else at `ws`. A
  // multiply or square with neither operand there overwrites it.
  Limb* accumulator(Limb* ws) const {
#ifdef SGK_MONTGOMERY_ADX
    if constexpr (K == 8) {
      if (adx) return frame.a;
    }
#endif
    return ws;
  }

  // out = a * b * R^-1 mod n; out may alias a or b.
  void mul(Limb* out, const Limb* a, const Limb* b) const {
    const Limb* n = ctx.n_.limbs().data();
#ifdef SGK_MONTGOMERY_ADX
    if constexpr (K == 8) {
      if (adx) {
        if (b == frame.a) std::swap(a, b);
        return kernels::mul_adx8(frame_with(a), b, out);
      }
    } else if constexpr (K == 16) {
      if (adx) return kernels::mul_adx16(out, a, b, n, ctx.n0_inv_, t);
    }
#endif
    kernels::mul_portable<K>(out, a, b, n, ctx.n0_inv_, ctx.k_, t);
  }

  // out = a * a * R^-1 mod n; out may alias a.
  void sqr(Limb* out, const Limb* a) const {
#ifdef SGK_MONTGOMERY_ADX
    if constexpr (K == 8) {
      if (adx) return kernels::sqr_adx8(frame_with(a), out);
    } else if constexpr (K == 16) {
      if (adx)
        return kernels::sqr_adx16(out, a, ctx.n_.limbs().data(), ctx.n0_inv_,
                                  t);
    }
#endif
    mul(out, a, a);
  }

#ifdef SGK_MONTGOMERY_ADX
  // The frame with operand a, copied in unless it is already there.
  kernels::Adx8Frame& frame_with(const Limb* a) const {
    if (a != frame.a) std::copy_n(a, 8, frame.a);
    return frame;
  }
#endif

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
    const std::vector<Limb>& el = e.limbs();
    const std::size_t ebits = e.bit_length();
    Limb* pows = ws;  // base^1, base^3, ..., base^(2^kWindow - 1)
    Limb* sq = pows + kOddPowers * k;
    Limb* acc = accumulator(sq + k);
    to_mont(pows, base);
    if (ebits <= kShortExpBits) {
      std::copy(pows, pows + k, acc);
      for (std::size_t i = ebits - 1; i-- > 0;) {
        sqr(acc, acc);
        if ((el[0] >> i & 1) != 0) mul(acc, acc, pows);
      }
      return from_mont(acc, sq);
    }
    sqr(sq, pows);
    for (std::size_t j = 1; j < kOddPowers; ++j)
      mul(pows + j * k, pows + (j - 1) * k, sq);

    // The top bit is set, so the first window seeds acc instead of
    // multiplying into a power of one.
    bool seeded = false;
    std::size_t i = ebits;  // bits [0, i) are left
    while (i > 0) {
      // The next min(kWindow, i) bits: a zero top bit is one squaring, else
      // the window drops its low zero bits, so that its value is odd.
      std::size_t win = std::min(kWindow, i);
      unsigned value = exponent_bits(el, i - win, win);
      if ((value >> (win - 1)) == 0) {
        sqr(acc, acc);
        --i;
        continue;
      }
      const auto zeros = static_cast<std::size_t>(std::countr_zero(value));
      value >>= zeros;
      win -= zeros;
      const Limb* pow = pows + (value >> 1) * k;
      if (seeded) {
        for (std::size_t b = 0; b < win; ++b) sqr(acc, acc);
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
    Limb* acc = accumulator(ws);
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
    return from_mont(acc, ws + k);
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
