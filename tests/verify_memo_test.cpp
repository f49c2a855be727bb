// VerifyMemo: the per-network table that lets one receiver of a signed frame
// pay for the signature check and hands the others its verdict. The memo must
// be exact (a memoised verdict always equals a direct verify()), hold only
// passing checks, stay bounded with FIFO eviction, and, in a real deployment,
// check every signature with exactly one modexp.
#include "core/verify_memo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "fault/plan.h"
#include "gcs/secure_group.h"
#include "server/deployment.h"
#include "sim/topology.h"
#include "util/serde.h"

namespace sgk {
namespace {

/// A full check with no memo: what every memoised verdict must equal.
bool direct_verify(const VerifyKey& pub, const Bytes& message,
                   const Bytes& sig) {
  if (const auto* rsa = std::get_if<RsaPublicKey>(&pub))
    return rsa->verify(message, sig);
  try {
    return std::get<DsaPublicKey>(pub).verify(message,
                                              dsa_signature_from_bytes(sig));
  } catch (const DecodeError&) {
    return false;
  }
}

Bytes flip_bit(Bytes b, std::size_t bit) {
  b[bit / 8 % b.size()] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return b;
}

/// Two signers of one scheme, their keys enrolled in a Pki (whose entries
/// are what the memo identifies keys by), sharing one memo.
struct Signers {
  explicit Signers(SigScheme scheme)
      : alice(dh_group(DhBits::k512), RsaPrivateKey::test_key(0),
              CostModel::paper2002(), Drbg(1, "alice"), memo, scheme),
        bob(dh_group(DhBits::k512), RsaPrivateKey::test_key(1),
            CostModel::paper2002(), Drbg(2, "bob"), memo, scheme) {
    pki.enroll(1, alice.verify_key());
    pki.enroll(2, bob.verify_key());
  }
  const VerifyKey& alice_key() const { return *pki.find(1); }
  const VerifyKey& bob_key() const { return *pki.find(2); }

  VerifyMemo memo;
  CryptoContext alice;
  CryptoContext bob;
  Pki pki;
};

class VerifyMemoScheme : public ::testing::TestWithParam<SigScheme> {};

// Over random messages and their signatures, one-bit flips in either, and a
// wrong key, bob's memoised verdict equals a direct verify() on the first
// call (always a miss) and on the second (a hit exactly when valid).
TEST_P(VerifyMemoScheme, VerdictEqualsDirectVerify) {
  Signers s(GetParam());
  Drbg rng(7, "verify-memo-test");
  for (int i = 0; i < 12; ++i) {
    Bytes msg(1 + rng.next_u64(200));
    rng.fill(msg.data(), msg.size());
    const Bytes sig = s.alice.sign(msg);
    struct Case {
      const VerifyKey* pub;
      Bytes msg;
      Bytes sig;
    };
    const std::vector<Case> cases = {
        {&s.alice_key(), msg, sig},
        {&s.alice_key(), flip_bit(msg, rng.next_u64(msg.size() * 8)), sig},
        {&s.alice_key(), msg, flip_bit(sig, rng.next_u64(sig.size() * 8))},
        {&s.bob_key(), msg, sig},
    };
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const Case& k = cases[c];
      const bool expected = direct_verify(*k.pub, k.msg, k.sig);
      EXPECT_EQ(expected, c == 0) << "message " << i << " case " << c;
      const std::uint64_t hits = s.memo.hits();
      const std::uint64_t misses = s.memo.misses();
      EXPECT_EQ(s.bob.verify(*k.pub, k.msg, k.sig), expected);
      EXPECT_EQ(s.memo.misses(), misses + 1) << "message " << i << " case " << c;
      EXPECT_EQ(s.bob.verify(*k.pub, k.msg, k.sig), expected);
      EXPECT_EQ(s.memo.hits(), hits + (expected ? 1 : 0));
      EXPECT_EQ(s.memo.misses(), misses + (expected ? 1 : 2));
    }
  }
  // Every call is counted, hit or miss.
  EXPECT_EQ(s.bob.counters().verify_ops, s.memo.hits() + s.memo.misses());
}

INSTANTIATE_TEST_SUITE_P(Schemes, VerifyMemoScheme,
                         ::testing::Values(SigScheme::kRsa, SigScheme::kDsa),
                         [](const auto& info) {
                           return std::string(info.param == SigScheme::kRsa
                                                  ? "Rsa"
                                                  : "Dsa");
                         });

// A failing check is never stored: the same bad tuple misses every time.
TEST(VerifyMemo, RepeatedBadTupleIsNeverCached) {
  Signers s(SigScheme::kRsa);
  const Bytes msg = str_bytes("frame");
  const Bytes bad = flip_bit(s.alice.sign(msg), 5);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_FALSE(s.bob.verify(s.alice_key(), msg, bad));
    EXPECT_EQ(s.memo.misses(), i);
    EXPECT_EQ(s.memo.hits(), 0u);
  }
}

// kCapacity + 1 distinct valid frames push out the first one only; it
// verifies true again, as a miss, while the other kCapacity are hits. A hit
// never runs the full check.
TEST(VerifyMemo, OldestEntryIsEvictedFirst) {
  Signers s(SigScheme::kRsa);
  std::vector<Bytes> msgs;
  std::vector<Bytes> sigs;
  for (std::size_t i = 0; i <= VerifyMemo::kCapacity; ++i) {
    msgs.push_back(str_bytes("frame " + std::to_string(i)));
    sigs.push_back(s.alice.sign(msgs.back()));
    EXPECT_TRUE(s.bob.verify(s.alice_key(), msgs.back(), sigs.back()));
  }
  EXPECT_EQ(s.memo.misses(), VerifyMemo::kCapacity + 1);
  EXPECT_EQ(s.memo.hits(), 0u);

  // Frames 1..kCapacity are all still held: none runs the full check.
  int full_checks = 0;
  for (std::size_t i = 1; i <= VerifyMemo::kCapacity; ++i) {
    EXPECT_TRUE(s.memo.check(s.alice_key(), Sha256::digest(msgs[i]), sigs[i],
                             [&] {
                               ++full_checks;
                               return true;
                             }));
  }
  EXPECT_EQ(full_checks, 0);
  EXPECT_EQ(s.memo.hits(), VerifyMemo::kCapacity);

  EXPECT_TRUE(s.bob.verify(s.alice_key(), msgs.front(), sigs.front()));
  EXPECT_EQ(s.memo.misses(), VerifyMemo::kCapacity + 2);
  EXPECT_EQ(s.memo.hits(), VerifyMemo::kCapacity);
}

// In a join-only build every member verifies through its network's memo:
// every verify call is one lookup, and each signed frame costs exactly one
// full check, at its first receiver.
TEST(VerifyMemo, DeploymentChecksEachSignatureOnce) {
  for (const ProtocolKind kind :
       {ProtocolKind::kGdh, ProtocolKind::kCkd, ProtocolKind::kTgdh,
        ProtocolKind::kStr, ProtocolKind::kBd}) {
    MemberConfig member;
    member.protocol = kind;
    server::Deployment d(lan_testbed(4), SpreadParams{}, member);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(d.apply(fault::ChurnOp{d.sim().now(),
                                         fault::ChurnKind::kJoin, 0}));
      d.sim().run();
    }
    std::uint64_t verify_ops = 0;
    std::uint64_t sign_ops = 0;
    for (const SecureGroupMember* m : d.alive()) {
      ASSERT_TRUE(m->has_key());
      verify_ops += m->counters().verify_ops;
      sign_ops += m->counters().sign_ops;
    }
    const VerifyMemo& memo = d.net().verify_memo();
    EXPECT_GT(memo.hits(), 0u) << to_string(kind);
    EXPECT_EQ(memo.hits() + memo.misses(), verify_ops) << to_string(kind);
    EXPECT_EQ(memo.misses(), sign_ops) << to_string(kind);
  }
}

}  // namespace
}  // namespace sgk
