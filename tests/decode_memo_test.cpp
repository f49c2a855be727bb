// DecodeMemo: the per-network table that lets the first receiver of a
// protocol frame run validate_and_decode and hands every later receiver the
// same result. The memo must be exact (a shared result always equals a fresh
// decode of the same bytes and prime), run the decoder once per miss, and
// stay read-only: members copy what they keep, so one member changing its
// own state never reaches the shared value or another member.
#include "core/decode_memo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bd.h"
#include "core/crypto_context.h"
#include "core/key_agreement.h"
#include "core/str.h"
#include "core/tgdh.h"
#include "core/verify_memo.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "fault/plan.h"
#include "gcs/secure_group.h"
#include "server/deployment.h"
#include "sim/topology.h"
#include "util/check.h"
#include "util/serde.h"

namespace sgk {
namespace {

const BigInt& P() { return dh_group(DhBits::k512).p(); }

Bytes bd_body(std::uint8_t type, const BigInt& v) {
  Writer w;
  w.u8(type);
  put_bigint(w, v);
  return w.take();
}

SharedBytes frame_of(Bytes bytes) {
  return std::make_shared<const Bytes>(std::move(bytes));
}

// Same frame object, or equal bytes in another object, with the same prime
// and decoder: one decode, shared. A different prime, a different decoder or
// different bytes: a fresh decode.
TEST(DecodeMemo, KeyIsDecoderBytesAndPrime) {
  DecodeMemo memo;
  const BigInt value = dh_group(DhBits::k512).g();
  const SharedBytes frame = frame_of(bd_body(BdProtocol::kZ, value));
  int decodes = 0;
  const auto bd = [&](const SharedBytes& f, const BigInt& p) {
    return memo.get<BdProtocol::Wire>(f, *f, p, [&] {
      ++decodes;
      return BdProtocol::validate_and_decode(*f, p);
    });
  };
  const auto first = bd(frame, P());
  ASSERT_TRUE(first->ok());
  EXPECT_EQ(first->value.value, value);
  EXPECT_EQ(bd(frame, P()).get(), first.get());
  const SharedBytes copy = frame_of(*frame);
  EXPECT_EQ(bd(copy, P()).get(), first.get());
  EXPECT_EQ(decodes, 1);
  EXPECT_EQ(frame.use_count(), 2) << "held by handle";
  EXPECT_EQ(copy.use_count(), 1) << "a hit holds nothing new";

  EXPECT_NE(bd(frame, dh_group(DhBits::k1024).p()).get(), first.get());
  EXPECT_EQ(decodes, 2);
  const SharedBytes other = frame_of(bd_body(BdProtocol::kX, value));
  EXPECT_NE(bd(other, P()).get(), first.get());
  EXPECT_EQ(decodes, 3);
  const auto as_str = memo.get<StrProtocol::Wire>(frame, *frame, P(), [&] {
    ++decodes;
    return StrProtocol::validate_and_decode(*frame, P());
  });
  EXPECT_EQ(decodes, 4) << "another decoder never shares a result";
  EXPECT_FALSE(as_str->ok());
  EXPECT_EQ(memo.misses(), static_cast<std::uint64_t>(decodes));
  EXPECT_EQ(memo.hits(), 2u);
}

// A held result keeps the frame its body view points into, so a frame that
// does not own the view is refused (the view would dangle once its own
// buffer goes), and nothing is held.
TEST(DecodeMemo, StoreRefusesAFrameThatDoesNotOwnTheView) {
  DecodeMemo memo;
  const SharedBytes owner =
      frame_of(bd_body(BdProtocol::kZ, dh_group(DhBits::k512).g()));
  const SharedBytes other = frame_of(*owner);
  const auto decode = [&] {
    return BdProtocol::validate_and_decode(*owner, P());
  };
  EXPECT_THROW(memo.get<BdProtocol::Wire>(other, *owner, P(), decode),
               CheckFailure);
  EXPECT_THROW(memo.get<BdProtocol::Wire>(nullptr, *owner, P(), decode),
               CheckFailure);
  EXPECT_EQ(other.use_count(), 1) << "nothing held";
  EXPECT_EQ(memo.hits(), 0u);
  memo.get<BdProtocol::Wire>(owner, *owner, P(), decode);
  EXPECT_EQ(memo.misses(), 3u);
}

/// A bare protocol host: a crypto context and the memos, nothing sent.
struct BareHost final : ProtocolHost {
  BareHost()
      : crypto_(dh_group(DhBits::k512), RsaPrivateKey::test_key(0),
                CostModel::paper2002(), Drbg(1, "bare-host"), verify_memo,
                SigScheme::kRsa) {}
  ProcessId self() const override { return 1; }
  CryptoContext& crypto() override { return crypto_; }
  void send_multicast(Bytes) override {}
  void send_ordered(ProcessId, Bytes) override {}
  void send_unicast(ProcessId, Bytes) override {}
  void deliver_key(const BigInt&) override {}
  bool key_confirmation() const override { return false; }
  DecodeMemo& decode_memo() override { return memo; }

  VerifyMemo verify_memo;
  DecodeMemo memo;
  CryptoContext crypto_;
};

/// Decodes each message as BD through the host's memo, unless `trip` makes
/// the handler fail an invariant first.
class DecodingProtocol final : public KeyAgreement {
 public:
  using KeyAgreement::KeyAgreement;
  ProtocolKind kind() const override { return ProtocolKind::kBd; }
  bool trip = false;

 protected:
  void handle_view(const View&, const ViewDelta&) override {}
  void handle_message(ProcessId, ByteView body) override {
    SGK_CHECK(!trip);
    decode(body, &BdProtocol::validate_and_decode);
  }
};

// The protocol holds the frame of the message in hand only while handling
// it: a handler that throws leaves nothing behind, and a decode that lands
// is held by the memo alone.
TEST(DecodeMemo, MessageFrameIsReleasedWhenTheHandlerThrows) {
  BareHost host;
  DecodingProtocol protocol(host);
  const SharedBytes frame =
      frame_of(bd_body(BdProtocol::kZ, dh_group(DhBits::k512).g()));
  protocol.trip = true;
  EXPECT_THROW(protocol.on_message(2, *frame, frame), CheckFailure);
  EXPECT_EQ(frame.use_count(), 1) << "released on the throw";
  protocol.trip = false;
  protocol.on_message(2, *frame, frame);
  EXPECT_EQ(host.memo.misses(), 1u);
  EXPECT_EQ(frame.use_count(), 2) << "held by the memo only";
}

// Rejections are pure results too: a malformed body is decoded once and its
// reason shared.
TEST(DecodeMemo, RejectionIsSharedWithItsReason) {
  DecodeMemo memo;
  const SharedBytes frame = frame_of(Bytes{3});
  int decodes = 0;
  for (int i = 0; i < 3; ++i) {
    const auto d = memo.get<BdProtocol::Wire>(frame, *frame, P(), [&] {
      ++decodes;
      return BdProtocol::validate_and_decode(*frame, P());
    });
    EXPECT_EQ(d->reason, RejectReason::kBadTag);
  }
  EXPECT_EQ(decodes, 1);
}

/// Grows the deployment's group to `n` by joins; returns the protocol bodies
/// stamped during the last join.
std::vector<Bytes> grow(server::Deployment& d, std::size_t n) {
  std::vector<Bytes> last;
  for (std::size_t i = 0; i < n; ++i) {
    last.clear();
    d.net().set_wire_tap([&last](const std::string&, ProcessId,
                                 const Bytes& wire) {
      Reader r(wire);
      if (r.u8() != 1) return;
      r.u64();
      r.u32();
      const ByteView body = r.view();
      last.emplace_back(body.begin(), body.end());
    });
    EXPECT_TRUE(d.apply(fault::ChurnOp{d.sim().now(), fault::ChurnKind::kJoin, 0}));
    d.sim().run();
  }
  d.net().set_wire_tap(nullptr);
  return last;
}

Bytes tree_bytes(const KeyTree& tree) {
  Writer w;
  tree.serialize(w);
  return w.take();
}

// Every TGDH member absorbs the sponsor's broadcast from one shared decode,
// then computes the secret keys on its own path into its own tree. The shared
// tree stays exactly what a fresh decode gives (no member's secrets written
// into it), and the members' trees, though built from it, differ in the
// secrets each holds.
TEST(DecodeMemo, TgdhMembersShareOneDecodeAndKeepTheirOwnTrees) {
  MemberConfig member;
  member.protocol = ProtocolKind::kTgdh;
  server::Deployment d(lan_testbed(4), SpreadParams{}, member);
  const std::vector<Bytes> bodies = grow(d, 6);
  ASSERT_FALSE(bodies.empty());
  EXPECT_GT(d.net().decode_memo().hits(), 0u);

  const Bytes& body = bodies.back();
  const SharedBytes copy = frame_of(body);
  int decodes = 0;
  const auto shared = d.net().decode_memo().get<TgdhProtocol::Wire>(
      copy, *copy, P(), [&] {
        ++decodes;
        return TgdhProtocol::validate_and_decode(body, P());
      });
  EXPECT_EQ(decodes, 0) << "the last broadcast is still held";
  const Decoded<TgdhProtocol::Wire> fresh =
      TgdhProtocol::validate_and_decode(body, P());
  ASSERT_TRUE(shared->ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(tree_bytes(shared->value.tree), tree_bytes(fresh.value.tree));
  for (std::size_t i = 0; i < shared->value.tree.node_count(); ++i)
    EXPECT_FALSE(shared->value.tree.node(static_cast<int>(i)).has_key)
        << "node " << i;

  // Each member holds secrets on its own leaf-to-root path only, so no two
  // members' trees hold the same set of secret nodes.
  std::vector<std::vector<bool>> secrets;
  for (SecureGroupMember* m : d.alive()) {
    ASSERT_TRUE(m->has_key());
    const KeyTree& tree = static_cast<TgdhProtocol&>(m->protocol()).tree();
    EXPECT_TRUE(tree.same_structure(shared->value.tree));
    std::vector<bool> held;
    for (std::size_t i = 0; i < tree.node_count(); ++i)
      held.push_back(tree.node(static_cast<int>(i)).has_key);
    for (const auto& other : secrets) EXPECT_NE(held, other);
    secrets.push_back(held);
  }
}

// STR members fold the same shared side announcement into their own chains;
// the shared SideInfo stays equal to a fresh decode afterwards.
TEST(DecodeMemo, StrMembersLeaveTheSharedDecodeUntouched) {
  MemberConfig member;
  member.protocol = ProtocolKind::kStr;
  server::Deployment d(lan_testbed(4), SpreadParams{}, member);
  const std::vector<Bytes> bodies = grow(d, 6);
  ASSERT_FALSE(bodies.empty());
  EXPECT_GT(d.net().decode_memo().hits(), 0u);
  for (const SecureGroupMember* m : d.alive()) EXPECT_TRUE(m->has_key());

  const Bytes& body = bodies.back();
  const SharedBytes copy = frame_of(body);
  int decodes = 0;
  const auto shared = d.net().decode_memo().get<StrProtocol::Wire>(
      copy, *copy, P(), [&] {
        ++decodes;
        return StrProtocol::validate_and_decode(body, P());
      });
  EXPECT_EQ(decodes, 0) << "the last broadcast is still held";
  const Decoded<StrProtocol::Wire> fresh =
      StrProtocol::validate_and_decode(body, P());
  ASSERT_TRUE(shared->ok());
  EXPECT_EQ(shared->value.type, fresh.value.type);
  EXPECT_EQ(shared->value.info.members, fresh.value.info.members);
  EXPECT_EQ(shared->value.info.br, fresh.value.info.br);
  EXPECT_EQ(shared->value.info.bk, fresh.value.info.bk);
}

// In a join-only build most decodes are shared: the memo runs fewer decodes
// than it serves, and no more than one per stamped frame.
TEST(DecodeMemo, DeploymentSharesMostDecodes) {
  for (const ProtocolKind kind : {ProtocolKind::kTgdh, ProtocolKind::kStr,
                                  ProtocolKind::kBd}) {
    MemberConfig member;
    member.protocol = kind;
    server::Deployment d(lan_testbed(4), SpreadParams{}, member);
    grow(d, 6);
    const DecodeMemo& memo = d.net().decode_memo();
    EXPECT_GT(memo.hits(), memo.misses()) << to_string(kind);
    EXPECT_LE(memo.misses(), d.net().messages_stamped()) << to_string(kind);
  }
}

}  // namespace
}  // namespace sgk
