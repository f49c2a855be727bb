#include "crypto/rsa.h"

#include <stdexcept>

#include "bignum/modmath.h"
#include "bignum/prime.h"
#include "crypto/sha256.h"
#include "util/check.h"

namespace sgk {

namespace {
// DigestInfo prefix for SHA-256 (RFC 8017, section 9.2 notes).
constexpr std::uint8_t kSha256Prefix[] = {0x30, 0x31, 0x30, 0x0d, 0x06, 0x09,
                                          0x60, 0x86, 0x48, 0x01, 0x65, 0x03,
                                          0x04, 0x02, 0x01, 0x05, 0x00, 0x04,
                                          0x20};

// Fixed 1024-bit test keys with e = 3, generated offline with this library's
// own prime generator.
struct TestKeyHex {
  const char* n;
  const char* d;
  const char* p;
  const char* q;
};

constexpr TestKeyHex kTestKeys[4] = {
    {"9a868cef263476934602cec2d11d68f9225e4ab6d02daff717f6e7a0d42b1204e7e5afab"
     "42ea34beef0dd03bde471ef30060a981c6039cdb7fec0777646a0e555b0303526dac219c"
     "fe1fc8d3a5e2d097b51282c72a9f6ee477d7c40889c5f404fd1d67c8929b64713f94ca27"
     "a184ebbb4199033e9c48aaa2b0c082c33b74716d",
     "67045df4c422f9b78401df2c8b68f0a616e987248ac91ffa0ff9efc08d720c034543ca72"
     "2c9c2329f4b3e027e984bf4caaeb1babd957bde7aa9d5a4f9846b437d9546f7d28ae5675"
     "5054dfda45f2dcd0d9e22eb2a14f3b3fb3334481fb89f91cbe40ca8e4a37f25d64eb75f7"
     "e6f91e650126af7060384a0499b273e364ae01d3",
     "a46a21af9e6a2cb500103462ed282fbeaad3c452af129ebbd492530a35d5c98fb293c95b"
     "5f2643c55571946a1a9d0a64e4988aaa4b4d6b82dda61df61886d13b",
     "f09a3a67123c7338059044a94fce559fc36b78688995f74916788a3b5aa134ca2d286e97"
     "c421351fd2c204c9ac7233bedb46716bc0a6d018ec8eb6f80be89d77"},
    {"a6575a8dc0eeee3147e049dce82f721d1d84e74cbf16358d426783ec68530ca62eaea6f8"
     "90916cc83900475ee0ee82a56bf423e3c126e95d93e892a2ea8bb5aab869c98f720c2d7a"
     "e148abd228397b0e974a465e4ee1ae76b1af8b356925689e2cda3441796e354c619d8b96"
     "e8bc21c4e2ea1ce541d09afc87916971be838759",
     "6ee4e7092b49f420da9586934574f6be13adef887f6423b3819a57f2f0375dc41f1f19fb"
     "0b0b9ddad0aada3f409f01c39d4d6d4280c49b93b7f061c1f1b2791b67cc1d9cbd02b591"
     "a9c10428f77d6c925b2492e97e96b2b51f8193e0e5c8367907f55cd472dd58cdb571db92"
     "abef53c73a4a8502503560ab6f604ca6d3d8c743",
     "cf15961b025f252afd39824a6b6874684e9ff4bb2dfa92555dffa957dc19f5b0c0c6d768"
     "a94d828f285c48d44a49177788057e56c6aaf30c8c07923f083d60d3",
     "cda207095428f7f5656da34a4994e3cabff37544e3051011a46d840c345f2137e023519a"
     "23d4ad88a91679669c8c0ca28374d70b02d596eed47964387880fba3"},
    {"81575fc60b5aa29a77a20ba7e3f6c54bf98a0aeae28ae2f2e56b0b2f535691099012e16b"
     "18cf8da9d228a74a56c1b4125d33b30a664a8c9abba63c80e17c3cf713d09ec1d94bca19"
     "8a250fec11577d12f86f612fb82f8609e25e62ce65fdf5ce1499e78939fdaba7186346fd"
     "6e16c0d72f316f9741ed217836e74ff5c6a3474b",
     "563a3fd95ce71711a516b26fed4f2e32a65c074741b1eca1ee475cca378f0b5bb561eb9c"
     "bb35091be1706f86e48122b6e8cd2206eedc5dbc7d197dab40fd7df90e82b7f5acc9f771"
     "9d0624406cf432209d87c4b94ff1f1ebea16ec32d2294eacc0047fe07d05d791eb34b382"
     "61abcab98b6bbeca5985e7ab3aeec4296d34493b",
     "84e53d448c0def43eea9f76fd589b1820c79ed4e8394cc53f12e6cdcf62c6afdb538fe59"
     "9e120132c6217358f5878e203e59d1fabedd76bb1685a1d1cfb7b855",
     "f9274d8cca0ee7ab2ff1e21b985f805fffa9cccb3cafced4120d93a5349394cd3f5a295e"
     "e062e7197172c660e60d82a09fb5ff6cfcc6cf3c47fb87e5d31d211f"},
    {"ac3b8b53d09dfed2ecf57bb8bd2942b24df57decf0d85977a4b5b78e1f99cf336d1121f2"
     "74adceb70d659c334efbdb6d956e422f657f90ba653ab891f923588e8c4245d8df00d6d3"
     "dd425e0db55781fc28171ffa12fd28199fea72091a40d12913cad380af3d6a450de550ff"
     "733739c85ab400db84736e9ae0b28416168ed371",
     "72d25ce28b13ff3748a3a7d07e1b81cc33f8fe9df5e590fa6dce7a5ebfbbdf779e0b6bf6"
     "f873df24b39912ccdf5292490e498174ee550b26ee2725b6a617905ded2a92b287644841"
     "68108430c42ddb9ea9596bc538521eac168e730287a63cde1cfd8d95419d8f40d7dcc36d"
     "27b42f8d4271c1353509b9bda95a9de413b3e6ab",
     "b543314177c516b8ded2a4e38b199c7ad7de0db67285ac8c8b53391ac845001bca25da45"
     "926ff8f1f9f0d9e7f7d5f8d8dc39575e4a7c1a3dbd985a360fdcf921",
     "f33f388b9c2553b8e256f2e103f91c135232f09bcbfc4d8af2c18c6a868275c01e28a4db"
     "3a611a71d02951f3bfd2f99b9ad007ad6a68bdc0a5123d09e9240051"}};
}  // namespace

Bytes pkcs1_encode_digest(const Bytes& digest, std::size_t em_len) {
  SGK_CHECK(digest.size() == Sha256::kDigestSize);
  const std::size_t t_len = sizeof(kSha256Prefix) + digest.size();
  if (em_len < t_len + 11)
    throw std::invalid_argument("pkcs1_encode_digest: modulus too small");
  Bytes em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(std::begin(kSha256Prefix), std::end(kSha256Prefix),
            em.begin() + static_cast<std::ptrdiff_t>(em_len - t_len));
  std::copy(digest.begin(), digest.end(),
            em.begin() + static_cast<std::ptrdiff_t>(em_len - digest.size()));
  return em;
}

Bytes pkcs1_encode_sha256(const Bytes& message, std::size_t em_len) {
  return pkcs1_encode_digest(Sha256::digest(message), em_len);
}

RsaPublicKey::RsaPublicKey(BigInt n, std::uint64_t e)
    : n_(std::move(n)), e_(e), ctx_(n_) {
  SGK_CHECK(e_ >= 3 && (e_ & 1) != 0);
}

bool RsaPublicKey::verify(const Bytes& message, const Bytes& signature) const {
  return verify_digest(Sha256::digest(message), signature);
}

bool RsaPublicKey::verify_digest(const Bytes& digest,
                                 const Bytes& signature) const {
  if (signature.size() != modulus_bytes()) return false;
  const BigInt s = BigInt::from_bytes(signature);
  if (s >= n_) return false;
  const BigInt em_int = ctx_.exp(s, BigInt(e_));
  Bytes em;
  try {
    em = em_int.to_bytes_padded(modulus_bytes());
  } catch (const std::length_error&) {
    return false;
  }
  const Bytes expected = pkcs1_encode_digest(digest, modulus_bytes());
  return ct_equal(em, expected);
}

RsaPrivateKey::RsaPrivateKey(BigInt n, std::uint64_t e, BigInt d, BigInt p,
                             BigInt q)
    : pub_(std::move(n), e),
      d_(std::move(d)),
      p_(std::move(p)),
      q_(std::move(q)),
      dp_(d_ % (p_ - BigInt(1))),
      dq_(d_ % (q_ - BigInt(1))),
      qinv_(mod_inverse(q_, p_)),
      ctx_p_(p_),
      ctx_q_(q_) {
  SGK_CHECK(p_ * q_ == pub_.n());
}

Bytes RsaPrivateKey::sign(const Bytes& message) const {
  const std::size_t k = pub_.modulus_bytes();
  const BigInt m = BigInt::from_bytes(pkcs1_encode_sha256(message, k));
  // CRT: s = CRT(m^dp mod p, m^dq mod q).
  const BigInt sp = ctx_p_.exp(m, dp_);
  const BigInt sq = ctx_q_.exp(m, dq_);
  const BigInt s = crt_combine(sp, sq, p_, q_, qinv_);
  return s.to_bytes_padded(k);
}

RsaPrivateKey RsaPrivateKey::generate(std::size_t bits, RandomSource& rng,
                                      std::uint64_t e) {
  SGK_CHECK(bits >= 512 && bits % 2 == 0);
  const BigInt e_big(e);
  auto gen_coprime_prime = [&](std::size_t half_bits) {
    for (;;) {
      BigInt candidate = generate_prime(half_bits, rng);
      if (gcd(candidate - BigInt(1), e_big) == BigInt(1)) return candidate;
    }
  };
  for (;;) {
    BigInt p = gen_coprime_prime(bits / 2);
    BigInt q = gen_coprime_prime(bits / 2);
    if (p == q) continue;
    BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    BigInt d = mod_inverse(e_big, phi);
    return RsaPrivateKey(std::move(n), e, std::move(d), std::move(p),
                         std::move(q));
  }
}

const RsaPrivateKey& RsaPrivateKey::test_key(int index) {
  SGK_CHECK(index >= 0 && index < 4);
  static const RsaPrivateKey keys[4] = {
      RsaPrivateKey(BigInt::from_hex(kTestKeys[0].n), 3,
                    BigInt::from_hex(kTestKeys[0].d),
                    BigInt::from_hex(kTestKeys[0].p),
                    BigInt::from_hex(kTestKeys[0].q)),
      RsaPrivateKey(BigInt::from_hex(kTestKeys[1].n), 3,
                    BigInt::from_hex(kTestKeys[1].d),
                    BigInt::from_hex(kTestKeys[1].p),
                    BigInt::from_hex(kTestKeys[1].q)),
      RsaPrivateKey(BigInt::from_hex(kTestKeys[2].n), 3,
                    BigInt::from_hex(kTestKeys[2].d),
                    BigInt::from_hex(kTestKeys[2].p),
                    BigInt::from_hex(kTestKeys[2].q)),
      RsaPrivateKey(BigInt::from_hex(kTestKeys[3].n), 3,
                    BigInt::from_hex(kTestKeys[3].d),
                    BigInt::from_hex(kTestKeys[3].p),
                    BigInt::from_hex(kTestKeys[3].q))};
  return keys[index];
}

}  // namespace sgk
