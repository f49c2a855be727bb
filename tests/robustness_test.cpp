// Failure injection and cascaded-event tests: stale messages, malformed and
// unauthenticated traffic, and membership events arriving while a key
// agreement is still in flight.
#include <gtest/gtest.h>

#include "tests/protocol_harness.h"
#include "util/serde.h"

namespace sgk {
namespace {

using testing::ProtocolFixture;

class Robustness : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(Robustness, CascadedJoinsConverge) {
  // A second join is requested while the first join's key agreement is
  // still running; every member must converge on the final view's key.
  ProtocolFixture f(GetParam());
  f.grow_to(3);

  // First join: create the member, but interrupt the agreement midway.
  const MachineId m1 = static_cast<MachineId>(f.members.size() % 13);
  ProcessId p1 = f.net.create_process(m1);
  MemberConfig cfg;
  cfg.protocol = f.protocol_kind;
  cfg.seed = 42;
  f.members.push_back(std::make_unique<SecureGroupMember>(f.net, p1, f.pki, cfg));
  f.members.back()->join();
  // Run just past the view install (~3 ms) but not to quiescence.
  f.sim.run_until(f.sim.now() + 8.0);

  // Second join lands mid-agreement.
  const MachineId m2 = static_cast<MachineId>(f.members.size() % 13);
  ProcessId p2 = f.net.create_process(m2);
  f.members.push_back(std::make_unique<SecureGroupMember>(f.net, p2, f.pki, cfg));
  f.members.back()->join();
  f.sim.run();

  f.expect_agreement();
  EXPECT_EQ(f.alive()[0]->view()->members.size(), 5u);
}

TEST_P(Robustness, LeaveDuringJoinAgreementConverges) {
  ProtocolFixture f(GetParam());
  f.grow_to(4);
  const MachineId m1 = static_cast<MachineId>(f.members.size() % 13);
  ProcessId p1 = f.net.create_process(m1);
  MemberConfig cfg;
  cfg.protocol = f.protocol_kind;
  cfg.seed = 42;
  f.members.push_back(std::make_unique<SecureGroupMember>(f.net, p1, f.pki, cfg));
  f.members.back()->join();
  f.sim.run_until(f.sim.now() + 8.0);

  // A member leaves while the join's agreement is still in flight.
  f.members[1]->leave();
  f.members[1].reset();
  f.sim.run();

  f.expect_agreement();
  EXPECT_EQ(f.alive()[0]->view()->members.size(), 4u);
}

TEST_P(Robustness, PartitionDuringAgreementConverges) {
  ProtocolFixture f(GetParam(), lan_testbed(4));
  f.grow_to(4);
  f.add_member();  // member 4 on machine 0
  // Trigger a fresh join and partition mid-flight.
  const ProcessId p = f.net.create_process(1);
  MemberConfig cfg;
  cfg.protocol = f.protocol_kind;
  cfg.seed = 43;
  f.members.push_back(std::make_unique<SecureGroupMember>(f.net, p, f.pki, cfg));
  f.members.back()->join();
  f.sim.run_until(f.sim.now() + 8.0);
  f.net.partition({{0, 1}, {2, 3}});
  f.sim.run();
  // Each side independently converges.
  auto live = f.alive();
  for (SecureGroupMember* m : live) {
    ASSERT_TRUE(m->has_key()) << "member " << m->id();
  }
  // Heal and verify global convergence.
  f.net.heal();
  f.sim.run();
  f.expect_agreement();
}

/// An attacker process that joined the group (the GCS cannot stop it — it is
/// an insider at the membership layer but has no certified key) injects
/// malformed and unauthenticated protocol traffic.
class Attacker : public GroupClient {
 public:
  Attacker(SpreadNetwork& net, ProcessId self) : net_(net), self_(self) {}
  void on_view(const std::string&, const View& v, const ViewDelta&) override {
    view_ = v;
    // Garbage bytes.
    net_.multicast("secure-group", self_, Bytes{0xde, 0xad, 0xbe, 0xef});
    // A well-formed frame with a bogus signature, claiming the right epoch.
    Writer w;
    w.u8(1);             // protocol message
    w.u64(v.view_id);    // current epoch
    w.u32(self_);        // honest sender field (signature still fails)
    w.bytes(str_bytes("malicious body"));
    w.bytes(Bytes(128, 0x41));  // fake signature
    net_.multicast("secure-group", self_, w.take());
  }
  void on_message(const std::string&, ProcessId, const SharedBytes&) override {}

 private:
  SpreadNetwork& net_;
  ProcessId self_;
  View view_;
};

TEST_P(Robustness, UnauthenticatedInjectionIsIgnored) {
  ProtocolFixture f(GetParam());
  f.grow_to(3);
  // The attacker joins the group at the GCS layer.
  ProcessId evil = f.net.create_process(3);
  Attacker attacker(f.net, evil);
  f.net.attach(evil, &attacker);
  f.net.join_group("secure-group", evil);
  f.sim.run();

  // The honest members treat the attacker as a (silent) member: they re-key
  // around it. Key agreement among honest members must still converge for
  // every subsequent event despite the attacker's junk traffic.
  f.net.leave_group("secure-group", evil);
  f.sim.run();
  f.add_member();
  f.expect_agreement();
}

TEST_P(Robustness, StaleEpochMessagesAreDropped) {
  // Replaying an old protocol message (captured from a previous epoch) must
  // not disturb the current agreement.
  ProtocolFixture f(GetParam());
  f.grow_to(3);
  // Capture: run one more join to advance the epoch, then replay a frame
  // with the old epoch number.
  std::uint64_t old_epoch = f.members[0]->view()->view_id;
  f.add_member();
  Writer w;
  w.u8(1);
  w.u64(old_epoch);
  w.u32(f.members[0]->id());
  w.bytes(str_bytes("replayed"));
  w.bytes(Bytes(128, 0x42));
  f.net.multicast("secure-group", f.members[0]->id(), w.take());
  f.sim.run();
  f.add_member();
  f.expect_agreement();
}

TEST_P(Robustness, RapidChurnSequenceConverges) {
  ProtocolFixture f(GetParam());
  f.grow_to(4);
  // Fire a burst of membership operations with partial progress between
  // them: join, leave, join with only small slices of simulation time.
  MemberConfig cfg;
  cfg.protocol = f.protocol_kind;
  cfg.seed = 99;
  for (int round = 0; round < 3; ++round) {
    ProcessId p = f.net.create_process(static_cast<MachineId>(round % 13));
    f.members.push_back(std::make_unique<SecureGroupMember>(f.net, p, f.pki, cfg));
    f.members.back()->join();
    f.sim.run_until(f.sim.now() + 4.0);
    // A random established member leaves immediately.
    for (std::size_t i = 0; i < f.members.size(); ++i) {
      if (f.members[i]) {
        f.members[i]->leave();
        f.members[i].reset();
        break;
      }
    }
    f.sim.run_until(f.sim.now() + 4.0);
  }
  f.sim.run();
  f.expect_agreement();
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, Robustness, ::testing::ValuesIn(sgk::testing::all_protocols()),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace sgk
