// VerifyMemo: the per-network table that lets one receiver of a signed frame
// pay for the signature check and hands the others its verdict. The memo must
// be exact (a memoised verdict always equals a direct verify()), hold only
// passing checks, hash and check only on a miss, hold frames by handle, stay
// bounded with FIFO eviction, and, in a real deployment, check every
// signature with exactly one modexp.
#include "core/verify_memo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "util/check.h"
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

/// A signed frame laid out like a wire frame: signed bytes, then signature.
struct Frame {
  SharedBytes bytes;
  std::size_t signed_size = 0;
  ByteView message() const { return ByteView(*bytes).first(signed_size); }
  ByteView sig() const { return ByteView(*bytes).subspan(signed_size); }
};

Frame make_frame(const Bytes& message, const Bytes& sig) {
  auto b = std::make_shared<Bytes>(message);
  b->insert(b->end(), sig.begin(), sig.end());
  return Frame{std::move(b), message.size()};
}

/// `ctx.verify()` of (message, sig) read from a fresh frame holding them.
bool verify(CryptoContext& ctx, const VerifyKey& pub, const Bytes& message,
            const Bytes& sig) {
  const Frame f = make_frame(message, sig);
  return ctx.verify(pub, f.message(), f.sig(), f.bytes);
}

/// `memo.check()` of (message, sig) read from a fresh frame holding them.
template <typename Verify>
bool check(VerifyMemo& memo, const VerifyKey& pub, const Bytes& message,
           const Bytes& sig, Verify&& full) {
  const Frame f = make_frame(message, sig);
  return memo.check(pub, f.bytes, f.message(), f.sig(), full);
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
      EXPECT_EQ(verify(s.bob, *k.pub, k.msg, k.sig), expected);
      EXPECT_EQ(s.memo.misses(), misses + 1) << "message " << i << " case " << c;
      EXPECT_EQ(verify(s.bob, *k.pub, k.msg, k.sig), expected);
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

// A failing check is never stored: the same bad tuple misses every time, and
// runs the full check every time, beside a held good tuple that hits.
TEST(VerifyMemo, RepeatedBadTupleIsNeverCached) {
  Signers s(SigScheme::kRsa);
  const Bytes msg = str_bytes("frame");
  const Bytes good = s.alice.sign(msg);
  const Bytes bad = flip_bit(good, 5);
  EXPECT_TRUE(verify(s.bob, s.alice_key(), msg, good));
  int full_checks = 0;
  const auto direct = [&] {
    ++full_checks;
    return direct_verify(s.alice_key(), msg, bad);
  };
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_FALSE(verify(s.bob, s.alice_key(), msg, bad));
    EXPECT_FALSE(check(s.memo, s.alice_key(), msg, bad, direct));
    EXPECT_EQ(full_checks, static_cast<int>(i));
    EXPECT_EQ(s.memo.misses(), 1 + 2 * i);
    EXPECT_TRUE(verify(s.bob, s.alice_key(), msg, good));
    EXPECT_EQ(s.memo.hits(), i);
  }
}

// The full check (and with it the SHA-256 of the signed bytes) runs exactly
// once per miss and never on a hit, over a mix of valid, tampered and
// repeated frames from two signers.
TEST(VerifyMemo, FullCheckRunsOncePerMiss) {
  Signers s(SigScheme::kRsa);
  Drbg rng(11, "verify-memo-count");
  std::vector<Bytes> msgs;
  std::vector<Bytes> sigs;
  for (int i = 0; i < 6; ++i) {
    msgs.push_back(str_bytes("frame " + std::to_string(i)));
    sigs.push_back((i % 2 == 0 ? s.alice : s.bob).sign(msgs.back()));
  }
  std::uint64_t full_checks = 0;
  for (int round = 0; round < 40; ++round) {
    const std::size_t i = rng.next_u64(msgs.size());
    const VerifyKey& pub = i % 2 == 0 ? s.alice_key() : s.bob_key();
    Bytes msg = msgs[i];
    if (rng.next_u64(4) == 0) msg = flip_bit(msg, rng.next_u64(msg.size() * 8));
    const bool expected = direct_verify(pub, msg, sigs[i]);
    EXPECT_EQ(check(s.memo, pub, msg, sigs[i],
                    [&] {
                      ++full_checks;
                      return direct_verify(pub, msg, sigs[i]);
                    }),
              expected);
  }
  EXPECT_EQ(full_checks, s.memo.misses());
  EXPECT_EQ(s.memo.hits() + s.memo.misses(), 40u);
  EXPECT_GT(s.memo.hits(), 0u);
}

// The key is byte equality over views into shared frames: the same frame
// object hits, an equal copy in another object hits, and a one-bit flip in
// the signed bytes or the signature, or a wrong key, misses with the verdict
// of a direct check. A held frame is held by handle, not copied.
TEST_P(VerifyMemoScheme, SharedFrameKeyIsByteEquality) {
  Signers s(GetParam());
  Drbg rng(13, "verify-memo-frames");
  for (int i = 0; i < 6; ++i) {
    Bytes msg(1 + rng.next_u64(300));
    rng.fill(msg.data(), msg.size());
    const Bytes sig = s.alice.sign(msg);
    const Frame frame = make_frame(msg, sig);
    const std::uint64_t misses = s.memo.misses();
    EXPECT_TRUE(s.bob.verify(s.alice_key(), frame.message(), frame.sig(),
                             frame.bytes));
    EXPECT_EQ(s.memo.misses(), misses + 1);
    EXPECT_EQ(frame.bytes.use_count(), 2) << "held by handle";

    const std::uint64_t hits = s.memo.hits();
    EXPECT_TRUE(s.bob.verify(s.alice_key(), frame.message(), frame.sig(),
                             frame.bytes));
    const Frame copy = make_frame(msg, sig);
    EXPECT_TRUE(s.bob.verify(s.alice_key(), copy.message(), copy.sig(),
                             copy.bytes));
    EXPECT_EQ(s.memo.hits(), hits + 2);
    EXPECT_EQ(copy.bytes.use_count(), 1) << "a hit holds nothing new";

    struct Case {
      const VerifyKey* pub;
      Frame frame;
    };
    const std::vector<Case> bad = {
        {&s.alice_key(),
         make_frame(flip_bit(msg, rng.next_u64(msg.size() * 8)), sig)},
        {&s.alice_key(),
         make_frame(msg, flip_bit(sig, rng.next_u64(sig.size() * 8)))},
        {&s.bob_key(), frame},
    };
    for (std::size_t c = 0; c < bad.size(); ++c) {
      const Case& k = bad[c];
      const Bytes m(k.frame.message().begin(), k.frame.message().end());
      const Bytes g(k.frame.sig().begin(), k.frame.sig().end());
      ASSERT_FALSE(direct_verify(*k.pub, m, g)) << "case " << c;
      const std::uint64_t before = s.memo.misses();
      EXPECT_FALSE(s.bob.verify(*k.pub, k.frame.message(), k.frame.sig(),
                                k.frame.bytes));
      EXPECT_EQ(s.memo.misses(), before + 1) << "case " << c;
    }
  }
}

// A stored verdict holds the frame its views point into, so a frame that
// does not own them is refused (it would leave the entry's views dangling
// once their own buffer goes), and nothing is held.
TEST(VerifyMemo, StoreRefusesAFrameThatDoesNotOwnTheViews) {
  Signers s(SigScheme::kRsa);
  const Bytes msg = str_bytes("frame");
  const Bytes sig = s.alice.sign(msg);
  const Frame owner = make_frame(msg, sig);
  const Frame other = make_frame(msg, sig);
  EXPECT_THROW(s.bob.verify(s.alice_key(), owner.message(), owner.sig(),
                            other.bytes),
               CheckFailure);
  EXPECT_THROW(s.bob.verify(s.alice_key(), owner.message(), sig, owner.bytes),
               CheckFailure);
  EXPECT_THROW(s.bob.verify(s.alice_key(), owner.message(), owner.sig(),
                            nullptr),
               CheckFailure);
  EXPECT_EQ(other.bytes.use_count(), 1) << "nothing held";
  EXPECT_EQ(owner.bytes.use_count(), 1) << "nothing held";
  EXPECT_EQ(s.memo.hits(), 0u);
  EXPECT_TRUE(s.bob.verify(s.alice_key(), owner.message(), owner.sig(),
                           owner.bytes));
  EXPECT_EQ(s.memo.misses(), 4u);
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
    EXPECT_TRUE(verify(s.bob, s.alice_key(), msgs.back(), sigs.back()));
  }
  EXPECT_EQ(s.memo.misses(), VerifyMemo::kCapacity + 1);
  EXPECT_EQ(s.memo.hits(), 0u);

  // Frames 1..kCapacity are all still held: none runs the full check.
  int full_checks = 0;
  for (std::size_t i = 1; i <= VerifyMemo::kCapacity; ++i) {
    EXPECT_TRUE(check(s.memo, s.alice_key(), msgs[i], sigs[i], [&] {
      ++full_checks;
      return true;
    }));
  }
  EXPECT_EQ(full_checks, 0);
  EXPECT_EQ(s.memo.hits(), VerifyMemo::kCapacity);

  EXPECT_TRUE(verify(s.bob, s.alice_key(), msgs.front(), sigs.front()));
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
