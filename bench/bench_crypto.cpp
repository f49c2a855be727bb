// Microbenchmarks of the cryptographic primitives (google-benchmark).
//
// These are the primitives whose 2002-era costs the paper quotes in section
// 6.1.1 (modular exponentiation at 512/1024 bits, RSA-1024 sign/verify with
// e=3). On modern hardware the absolute numbers are far smaller; the *ratios*
// (1024-bit exp ~4x 512-bit, sign >> verify for e=3) are what the simulator's
// cost model encodes, and these benchmarks let you check those ratios hold
// for this implementation too.
#include <benchmark/benchmark.h>

#include <vector>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "bignum/montgomery_kernels.h"
#include "bignum/prime.h"
#include "crypto/aes.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace sgk {
namespace {

// g^e for a session exponent: the fixed-base table path.
void BM_ExpG(benchmark::State& state, DhBits bits) {
  const DhGroup& grp = dh_group(bits);
  Drbg rng(1, "bench");
  BigInt e = grp.random_exponent(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp.exp_g(e));
}
BENCHMARK_CAPTURE(BM_ExpG, 512, DhBits::k512);
BENCHMARK_CAPTURE(BM_ExpG, 1024, DhBits::k1024);

// b^e for a random group element b and a session exponent: the
// sliding-window path every non-g exponentiation takes.
void BM_ModExp(benchmark::State& state, DhBits bits) {
  const DhGroup& grp = dh_group(bits);
  Drbg rng(2, "bench");
  BigInt base = grp.exp_g(grp.random_exponent(rng));
  BigInt e = grp.random_exponent(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp.exp(base, e));
}
BENCHMARK_CAPTURE(BM_ModExp, 512, DhBits::k512);
BENCHMARK_CAPTURE(BM_ModExp, 1024, DhBits::k1024);

// One modular multiply through MontgomeryCtx::mul: two kernel multiplies,
// a * b * R^-1 and then a multiply by R^2 mod n.
void BM_MontMul(benchmark::State& state, DhBits bits) {
  const DhGroup& grp = dh_group(bits);
  const MontgomeryCtx ctx(grp.p());
  Drbg rng(6, "bench");
  BigInt a = BigInt::random_below(grp.p(), rng);
  BigInt b = BigInt::random_below(grp.p(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(ctx.mul(a, b));
}
BENCHMARK_CAPTURE(BM_MontMul, 512, DhBits::k512);
BENCHMARK_CAPTURE(BM_MontMul, 1024, DhBits::k1024);

// One kernel multiply, x = x * y * R^-1 mod p, per kernel at 8 limbs (DH-512
// p; the RSA-CRT primes are 8 limbs too) and 16 (DH-1024 p, RSA-1024 n).
// MontgomeryCtx uses the ADX kernel wherever the CPU has it (the
// "montgomery_kernel" context line says which); these rows time each kernel
// on its own.
template <class Mul>
void run_kernel(benchmark::State& state, Mul mul) {
  namespace mk = montgomery_kernels;
  const BigInt& p =
      dh_group(state.range(0) == 8 ? DhBits::k512 : DhBits::k1024).p();
  const std::size_t k = p.limbs().size();
  Drbg rng(7, "bench");
  std::vector<mk::Limb> x = BigInt::random_below(p, rng).limbs();
  std::vector<mk::Limb> y = BigInt::random_below(p, rng).limbs();
  x.resize(k);
  y.resize(k);
  std::vector<mk::Limb> t(mk::portable_temp_limbs(k));
  const mk::Limb n0_inv = mk::neg_inv64(p.limbs()[0]);
  for (auto _ : state) {
    mul(x.data(), y.data(), p.limbs().data(), n0_inv, t.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}

void BM_MontMulKernel_portable(benchmark::State& state) {
  run_kernel(state, [&](auto* x, const auto* y, const auto* n, auto n0,
                        auto* t) {
    if (state.range(0) == 8)
      montgomery_kernels::mul_portable<8>(x, x, y, n, n0, 8, t);
    else
      montgomery_kernels::mul_portable<16>(x, x, y, n, n0, 16, t);
  });
}
BENCHMARK(BM_MontMulKernel_portable)->Arg(8)->Arg(16);

#ifdef SGK_MONTGOMERY_ADX
void BM_MontMulKernel_adx(benchmark::State& state) {
  if (!montgomery_kernels::adx_available()) {
    state.SkipWithError("this CPU lacks ADX or BMI2");
    return;
  }
  run_kernel(state, [&](auto* x, const auto* y, const auto* n, auto n0,
                        auto* t) {
    if (state.range(0) == 8)
      montgomery_kernels::mul_adx8(x, x, y, n, n0);
    else
      montgomery_kernels::mul_adx16(x, x, y, n, n0, t);
  });
}
BENCHMARK(BM_MontMulKernel_adx)->Arg(8)->Arg(16);
#endif

void BM_ModExp512_SmallExponent(benchmark::State& state) {
  // BD's step-3 "hidden cost" exponentiations: exponent < group size.
  const DhGroup& grp = dh_group(DhBits::k512);
  Drbg rng(3, "bench");
  BigInt base = grp.exp_g(grp.random_exponent(rng));
  BigInt e(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(grp.exp(base, e));
}
BENCHMARK(BM_ModExp512_SmallExponent)->Arg(7)->Arg(25)->Arg(50);

void BM_RsaSign1024(benchmark::State& state) {
  const RsaPrivateKey& key = RsaPrivateKey::test_key(0);
  Bytes msg = str_bytes("group key agreement message");
  for (auto _ : state) benchmark::DoNotOptimize(key.sign(msg));
}
BENCHMARK(BM_RsaSign1024);

void BM_RsaVerify1024_E3(benchmark::State& state) {
  const RsaPrivateKey& key = RsaPrivateKey::test_key(0);
  Bytes msg = str_bytes("group key agreement message");
  Bytes sig = key.sign(msg);
  for (auto _ : state)
    benchmark::DoNotOptimize(key.public_key().verify(msg, sig));
}
BENCHMARK(BM_RsaVerify1024_E3);

// Inverse mod q by extended Euclid (DSA, inverse mod p) ...
void BM_ModInverseQ(benchmark::State& state) {
  const DhGroup& grp = dh_group(DhBits::k512);
  Drbg rng(4, "bench");
  BigInt a = grp.random_exponent(rng);
  for (auto _ : state) benchmark::DoNotOptimize(mod_inverse(a, grp.q()));
}
BENCHMARK(BM_ModInverseQ);

// ... and by Fermat under the group's cached q context (GDH, CKD).
void BM_InverseQ(benchmark::State& state) {
  const DhGroup& grp = dh_group(DhBits::k512);
  Drbg rng(4, "bench");
  BigInt a = grp.random_exponent(rng);
  for (auto _ : state) benchmark::DoNotOptimize(grp.inverse_q(a));
}
BENCHMARK(BM_InverseQ);

// Inverse mod p by extended Euclid: BD's CryptoContext::inverse_p at 512 and
// 1024 bits.
void BM_ModInverseP(benchmark::State& state, DhBits bits) {
  const DhGroup& grp = dh_group(bits);
  Drbg rng(8, "bench");
  const BigInt a = grp.exp_g(grp.random_exponent(rng));
  for (auto _ : state) benchmark::DoNotOptimize(mod_inverse(a, grp.p()));
}
BENCHMARK_CAPTURE(BM_ModInverseP, 512, DhBits::k512);
BENCHMARK_CAPTURE(BM_ModInverseP, 1024, DhBits::k1024);

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(Sha256::digest(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x11);
  Bytes data(1024, 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(hmac_sha256(key, data));
}
BENCHMARK(BM_HmacSha256);

void BM_Aes128CbcEncrypt(benchmark::State& state) {
  Bytes key(16, 0x22), iv(16, 0x33);
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state)
    benchmark::DoNotOptimize(aes128_cbc_encrypt(key, iv, data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128CbcEncrypt)->Arg(1024);

void BM_MillerRabin512(benchmark::State& state) {
  Drbg rng(5, "bench");
  const BigInt p = dh_group(DhBits::k512).p();
  for (auto _ : state)
    benchmark::DoNotOptimize(is_probable_prime(p, rng, 8));
}
BENCHMARK(BM_MillerRabin512);

}  // namespace
}  // namespace sgk

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "montgomery_kernel",
      sgk::montgomery_kernels::adx_available() ? "adx" : "portable");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
