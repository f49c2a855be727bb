// Group communication system tests: total order, view synchrony,
// membership events, partitions and merges.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "fault/hooks.h"
#include "gcs/spread.h"

#include "util/serde.h"

namespace sgk {
namespace {

/// Records every delivery for later inspection.
class RecordingClient : public GroupClient {
 public:
  struct Delivery {
    SimTime time;
    std::string group;
    ProcessId sender;
    Bytes payload;
    SharedBytes frame;  // the delivered handle itself
  };
  struct ViewInstall {
    SimTime time;
    std::string group;
    View view;
    ViewDelta delta;
  };

  explicit RecordingClient(Simulator& sim) : sim_(sim) {}

  void on_view(const std::string& group, const View& view,
               const ViewDelta& delta) override {
    views.push_back({sim_.now(), group, view, delta});
  }
  void on_message(const std::string& group, ProcessId sender,
                  const SharedBytes& payload) override {
    messages.push_back({sim_.now(), group, sender, *payload, payload});
  }

  std::vector<ViewInstall> views;
  std::vector<Delivery> messages;

 private:
  Simulator& sim_;
};

struct Fixture {
  explicit Fixture(int machines = 4, Topology topo_in = Topology{})
      : topo(topo_in.machine_count() ? std::move(topo_in) : lan_testbed(machines)),
        net(sim, topo) {}

  ProcessId spawn(MachineId m) {
    ProcessId p = net.create_process(m);
    clients.push_back(std::make_unique<RecordingClient>(sim));
    net.attach(p, clients.back().get());
    return p;
  }

  RecordingClient& client(ProcessId p) { return *clients[p]; }

  Simulator sim;
  Topology topo;
  SpreadNetwork net;
  std::vector<std::unique_ptr<RecordingClient>> clients;
};

TEST(Gcs, JoinInstallsViewAtJoiner) {
  Fixture f;
  ProcessId a = f.spawn(0);
  f.net.join_group("g", a);
  f.sim.run();
  ASSERT_EQ(f.client(a).views.size(), 1u);
  const auto& v = f.client(a).views[0];
  EXPECT_EQ(v.view.members, std::vector<ProcessId>{a});
  EXPECT_TRUE(v.delta.first_view);
  EXPECT_GT(v.time, 0.0);  // membership protocol takes nonzero time
}

TEST(Gcs, SecondJoinSeenByBothWithConsistentDelta) {
  Fixture f;
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(1);
  f.net.join_group("g", a);
  f.sim.run();
  f.net.join_group("g", b);
  f.sim.run();
  ASSERT_EQ(f.client(a).views.size(), 2u);
  ASSERT_EQ(f.client(b).views.size(), 1u);
  const auto& va = f.client(a).views[1];
  const auto& vb = f.client(b).views[0];
  EXPECT_EQ(va.view.members, (std::vector<ProcessId>{a, b}));
  EXPECT_EQ(va.view.view_id, vb.view.view_id);
  // Existing member sees a join of exactly b; joiner sees first_view.
  EXPECT_EQ(va.delta.classify(), GroupEvent::kJoin);
  EXPECT_EQ(va.delta.joined, std::vector<ProcessId>{b});
  EXPECT_TRUE(vb.delta.first_view);
  // Sides are identical for both: [{a}, {b}].
  ASSERT_EQ(va.delta.sides.size(), 2u);
  EXPECT_EQ(va.delta.sides, vb.delta.sides);
}

TEST(Gcs, LeaveInstallsReducedView) {
  Fixture f;
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(1);
  f.net.join_group("g", a);
  f.net.join_group("g", b);
  f.sim.run();
  f.net.leave_group("g", b);
  f.sim.run();
  const auto& last = f.client(a).views.back();
  EXPECT_EQ(last.view.members, std::vector<ProcessId>{a});
  EXPECT_EQ(last.delta.classify(), GroupEvent::kLeave);
  EXPECT_EQ(last.delta.left, std::vector<ProcessId>{b});
}

TEST(Gcs, MulticastReachesAllMembersIncludingSender) {
  Fixture f;
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(1);
  ProcessId c = f.spawn(2);
  for (ProcessId p : {a, b, c}) f.net.join_group("g", p);
  f.sim.run();
  f.net.multicast("g", a, str_bytes("hello"));
  f.sim.run();
  for (ProcessId p : {a, b, c}) {
    ASSERT_EQ(f.client(p).messages.size(), 1u) << "member " << p;
    EXPECT_EQ(f.client(p).messages[0].sender, a);
    EXPECT_EQ(f.client(p).messages[0].payload, str_bytes("hello"));
  }
}

// A multicast is stamped once as one immutable frame: every receiver, on
// every machine and the sender's own loopback included, is handed the same
// bytes object rather than a copy.
TEST(Gcs, MulticastReceiversShareOneFrameObject) {
  Fixture f(3);
  std::vector<ProcessId> members;
  for (MachineId m : {0, 0, 1, 1, 2, 2}) members.push_back(f.spawn(m));
  for (ProcessId p : members) f.net.join_group("g", p);
  f.sim.run();
  f.net.multicast("g", members[0], str_bytes("one frame"));
  f.net.multicast("g", members[3], str_bytes("one frame"));
  f.sim.run();
  const RecordingClient& first = f.client(members[0]);
  ASSERT_EQ(first.messages.size(), 2u);
  // Two multicasts are two frames, even with equal bytes.
  EXPECT_NE(first.messages[0].frame.get(), first.messages[1].frame.get());
  for (ProcessId p : members) {
    const RecordingClient& c = f.client(p);
    ASSERT_EQ(c.messages.size(), 2u) << "member " << p;
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(c.messages[i].frame.get(), first.messages[i].frame.get())
          << "member " << p << " message " << i;
      EXPECT_EQ(*c.messages[i].frame, str_bytes("one frame"));
    }
  }
}

/// Leaves copies and timing alone; flips the first byte of every frame whose
/// unit `mutate` accepts, and records the units it saw.
class FlipFirstByte : public fault::WireFaultHook {
 public:
  explicit FlipFirstByte(std::function<bool(std::uint64_t)> mutate)
      : mutate_(std::move(mutate)) {}
  fault::WireFault on_daemon_copy(int, int, std::uint64_t) override {
    return {};
  }
  fault::WireFault on_unicast(ProcessId, ProcessId) override { return {}; }
  fault::MutationKind on_frame(Bytes& wire, std::uint64_t unit) override {
    units.push_back(unit);
    if (!mutate_(unit)) return fault::MutationKind::kNone;
    wire[0] ^= 0x80;
    return fault::MutationKind::kBitFlip;
  }
  std::vector<std::uint64_t> units;

 private:
  std::function<bool(std::uint64_t)> mutate_;
};

// A stamp-time mutation happens once, before the frame is shared: every
// receiver, the sender included, sees the one mutated object.
TEST(Gcs, StampTimeMutationIsOneObjectEveryReceiverSees) {
  Fixture f(3);
  FlipFirstByte hook([](std::uint64_t) { return true; });
  f.net.set_fault_hook(&hook);
  std::vector<ProcessId> members;
  for (MachineId m : {0, 1, 1, 2}) members.push_back(f.spawn(m));
  for (ProcessId p : members) f.net.join_group("g", p);
  f.sim.run();
  const Bytes sent = str_bytes("payload");
  Bytes mutated = sent;
  mutated[0] ^= 0x80;
  f.net.multicast("g", members[1], sent);
  f.sim.run();
  EXPECT_EQ(hook.units.size(), 1u) << "one mutation point per multicast";
  const SharedBytes& frame = f.client(members[0]).messages.at(0).frame;
  for (ProcessId p : members) {
    ASSERT_EQ(f.client(p).messages.size(), 1u) << "member " << p;
    EXPECT_EQ(f.client(p).messages[0].frame.get(), frame.get());
    EXPECT_EQ(*f.client(p).messages[0].frame, mutated);
  }
}

// A unicast draws its own mutation: mutating one touches neither another
// unicast of the same bytes nor a multicast frame.
TEST(Gcs, UnicastMutationTouchesOnlyThatUnicast) {
  Fixture f;
  // Unicasts draw units with the top bit set; mutate only the first one.
  constexpr std::uint64_t kFirstUnicast = 1ULL << 63;
  FlipFirstByte hook([](std::uint64_t unit) { return unit == kFirstUnicast; });
  f.net.set_fault_hook(&hook);
  const ProcessId a = f.spawn(0);
  const ProcessId b = f.spawn(1);
  const ProcessId c = f.spawn(2);
  for (ProcessId p : {a, b, c}) f.net.join_group("g", p);
  f.sim.run();
  const Bytes sent = str_bytes("direct");
  Bytes mutated = sent;
  mutated[0] ^= 0x80;
  f.net.multicast("g", a, sent);
  f.net.unicast("g", a, b, sent);
  f.net.unicast("g", a, c, sent);
  f.sim.run();
  // b got the multicast and its (mutated) unicast; c both pristine.
  ASSERT_EQ(f.client(b).messages.size(), 2u);
  ASSERT_EQ(f.client(c).messages.size(), 2u);
  const auto& b_msgs = f.client(b).messages;
  const auto& c_msgs = f.client(c).messages;
  const bool b_unicast_first = *b_msgs[0].frame == mutated;
  const auto& b_unicast = b_msgs[b_unicast_first ? 0 : 1];
  const auto& b_multicast = b_msgs[b_unicast_first ? 1 : 0];
  EXPECT_EQ(*b_unicast.frame, mutated);
  EXPECT_EQ(*b_multicast.frame, sent);
  for (const auto& m : c_msgs) EXPECT_EQ(*m.frame, sent);
  EXPECT_EQ(*f.client(a).messages.at(0).frame, sent);
  EXPECT_NE(b_unicast.frame.get(), b_multicast.frame.get());
}

TEST(Gcs, NonMemberDoesNotReceive) {
  Fixture f;
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(1);
  ProcessId outsider = f.spawn(2);
  f.net.join_group("g", a);
  f.net.join_group("g", b);
  f.sim.run();
  f.net.multicast("g", a, str_bytes("secret"));
  f.sim.run();
  EXPECT_TRUE(f.client(outsider).messages.empty());
  EXPECT_TRUE(f.client(outsider).views.empty());
}

TEST(Gcs, AgreedTotalOrderAcrossSenders) {
  Fixture f(13);
  std::vector<ProcessId> members;
  for (int i = 0; i < 10; ++i) members.push_back(f.spawn(i % 13));
  for (ProcessId p : members) f.net.join_group("g", p);
  f.sim.run();
  // Everyone multicasts simultaneously (a BD-like round).
  for (ProcessId p : members) {
    Writer w;
    w.u32(p);
    f.net.multicast("g", p, w.take());
  }
  f.sim.run();
  // Every member delivered all 10 messages in the identical order.
  std::vector<ProcessId> reference;
  for (const auto& d : f.client(members[0]).messages) reference.push_back(d.sender);
  EXPECT_EQ(reference.size(), 10u);
  for (ProcessId p : members) {
    std::vector<ProcessId> order;
    for (const auto& d : f.client(p).messages) order.push_back(d.sender);
    EXPECT_EQ(order, reference) << "member " << p;
  }
}

TEST(Gcs, OrderedSendDeliversOnlyToDest) {
  Fixture f;
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(1);
  ProcessId c = f.spawn(2);
  for (ProcessId p : {a, b, c}) f.net.join_group("g", p);
  f.sim.run();
  f.net.ordered_send("g", a, b, str_bytes("for b only"));
  f.sim.run();
  EXPECT_EQ(f.client(b).messages.size(), 1u);
  EXPECT_TRUE(f.client(a).messages.empty());
  EXPECT_TRUE(f.client(c).messages.empty());
}

TEST(Gcs, OrderedSendInterleavesWithMulticastOrder) {
  Fixture f;
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(1);
  for (ProcessId p : {a, b}) f.net.join_group("g", p);
  f.sim.run();
  f.net.multicast("g", a, str_bytes("m1"));
  f.net.ordered_send("g", a, b, str_bytes("u"));
  f.net.multicast("g", a, str_bytes("m2"));
  f.sim.run();
  ASSERT_EQ(f.client(b).messages.size(), 3u);
  EXPECT_EQ(f.client(b).messages[0].payload, str_bytes("m1"));
  EXPECT_EQ(f.client(b).messages[1].payload, str_bytes("u"));
  EXPECT_EQ(f.client(b).messages[2].payload, str_bytes("m2"));
}

TEST(Gcs, UnicastIsDirectAndFast) {
  Fixture f;
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(1);
  for (ProcessId p : {a, b}) f.net.join_group("g", p);
  f.sim.run();
  SimTime start = f.sim.now();
  f.net.unicast("g", a, b, str_bytes("direct"));
  f.sim.run();
  ASSERT_EQ(f.client(b).messages.size(), 1u);
  // Direct latency, no token wait: well under one token cycle.
  EXPECT_LT(f.client(b).messages[0].time - start, f.net.token_cycle_ms(0));
}

TEST(Gcs, LanAgreedMulticastCostMatchesPaper) {
  // Section 6.1.1: sending and delivering one Agreed multicast costs about
  // 0.8 to 1.3 ms on the 13-machine LAN.
  Fixture f(13);
  std::vector<ProcessId> members;
  for (int i = 0; i < 13; ++i) members.push_back(f.spawn(i));
  for (ProcessId p : members) f.net.join_group("g", p);
  f.sim.run();
  SimTime start = f.sim.now();
  f.net.multicast("g", members[5], str_bytes("x"));
  f.sim.run();
  SimTime worst = 0;
  for (ProcessId p : members)
    worst = std::max(worst, f.client(p).messages.back().time - start);
  EXPECT_GT(worst, 0.2);
  EXPECT_LT(worst, 2.0);
}

TEST(Gcs, WanAgreedMulticastCostMatchesPaper) {
  // Section 6.2.1: Agreed delivery costs roughly 300-340 ms on the WAN.
  Fixture f(0, wan_testbed());
  std::vector<ProcessId> members;
  for (MachineId m : {0, 5, 11, 12}) members.push_back(f.spawn(m));
  for (ProcessId p : members) f.net.join_group("g", p);
  f.sim.run();
  // Average several multicasts under steady token circulation (the paper's
  // ~300-335 ms numbers are steady-state averages).
  double total = 0;
  const int kRounds = 6;
  for (int i = 0; i < kRounds; ++i) {
    SimTime start = f.sim.now();
    f.net.multicast("g", members[static_cast<std::size_t>(i * 5) % members.size()],
                    str_bytes("x"));
    f.sim.run();
    SimTime worst = 0;
    for (ProcessId p : members)
      worst = std::max(worst, f.client(p).messages.back().time - start);
    total += worst;
  }
  const double avg = total / kRounds;
  EXPECT_GT(avg, 150.0);
  EXPECT_LT(avg, 600.0);
}

TEST(Gcs, WanMembershipCostMatchesPaper) {
  // Section 6.2.1: membership service costs 400-700 ms on the WAN.
  Fixture f(0, wan_testbed());
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(11);
  f.net.join_group("g", a);
  f.sim.run();
  SimTime start = f.sim.now();
  f.net.join_group("g", b);
  f.sim.run();
  SimTime install = f.client(a).views.back().time - start;
  EXPECT_GT(install, 300.0);
  EXPECT_LT(install, 900.0);
}

TEST(Gcs, PartitionInstallsDisjointViews) {
  Fixture f(4);
  std::vector<ProcessId> members;
  for (int i = 0; i < 4; ++i) members.push_back(f.spawn(i));
  for (ProcessId p : members) f.net.join_group("g", p);
  f.sim.run();
  f.net.partition({{0, 1}, {2, 3}});
  f.sim.run();
  const auto& v0 = f.client(members[0]).views.back();
  const auto& v2 = f.client(members[2]).views.back();
  EXPECT_EQ(v0.view.members, (std::vector<ProcessId>{members[0], members[1]}));
  EXPECT_EQ(v2.view.members, (std::vector<ProcessId>{members[2], members[3]}));
  EXPECT_EQ(v0.delta.classify(), GroupEvent::kPartition);
  EXPECT_EQ(v0.delta.left, (std::vector<ProcessId>{members[2], members[3]}));
}

TEST(Gcs, MessagesDoNotCrossPartition) {
  Fixture f(4);
  std::vector<ProcessId> members;
  for (int i = 0; i < 4; ++i) members.push_back(f.spawn(i));
  for (ProcessId p : members) f.net.join_group("g", p);
  f.sim.run();
  f.net.partition({{0, 1}, {2, 3}});
  f.sim.run();
  std::size_t before = f.client(members[2]).messages.size();
  f.net.multicast("g", members[0], str_bytes("side A"));
  f.net.unicast("g", members[0], members[2], str_bytes("direct"));
  f.sim.run();
  EXPECT_EQ(f.client(members[2]).messages.size(), before);
  EXPECT_EQ(f.client(members[1]).messages.back().payload, str_bytes("side A"));
}

TEST(Gcs, HealMergesViewsWithSides) {
  Fixture f(4);
  std::vector<ProcessId> members;
  for (int i = 0; i < 4; ++i) members.push_back(f.spawn(i));
  for (ProcessId p : members) f.net.join_group("g", p);
  f.sim.run();
  f.net.partition({{0, 1}, {2, 3}});
  f.sim.run();
  f.net.heal();
  f.sim.run();
  const auto& v = f.client(members[0]).views.back();
  EXPECT_EQ(v.view.members.size(), 4u);
  EXPECT_EQ(v.delta.classify(), GroupEvent::kMerge);
  EXPECT_EQ(v.delta.joined, (std::vector<ProcessId>{members[2], members[3]}));
  // Sides reflect the two merging components.
  ASSERT_EQ(v.delta.sides.size(), 2u);
  // Same sides at a member from the other component.
  const auto& v2 = f.client(members[2]).views.back();
  EXPECT_EQ(v2.delta.sides, v.delta.sides);
  EXPECT_EQ(v2.delta.joined, (std::vector<ProcessId>{members[0], members[1]}));
}

TEST(Gcs, DisconnectActsAsLeave) {
  Fixture f;
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(1);
  for (ProcessId p : {a, b}) f.net.join_group("g", p);
  f.sim.run();
  f.net.disconnect(b);
  f.sim.run();
  const auto& v = f.client(a).views.back();
  EXPECT_EQ(v.view.members, std::vector<ProcessId>{a});
  EXPECT_EQ(v.delta.classify(), GroupEvent::kLeave);
}

TEST(Gcs, MultipleGroupsAreIndependent) {
  Fixture f;
  ProcessId a = f.spawn(0);
  ProcessId b = f.spawn(1);
  f.net.join_group("g1", a);
  f.net.join_group("g1", b);
  f.net.join_group("g2", a);
  f.sim.run();
  f.net.multicast("g2", a, str_bytes("only g2"));
  f.sim.run();
  EXPECT_TRUE(f.client(b).messages.empty());
  ASSERT_EQ(f.client(a).messages.size(), 1u);
  EXPECT_EQ(f.client(a).messages[0].group, "g2");
}

TEST(Gcs, ViewIdsIncreaseMonotonically) {
  Fixture f;
  ProcessId a = f.spawn(0);
  f.net.join_group("g", a);
  f.sim.run();
  std::uint64_t prev = 0;
  for (int i = 0; i < 3; ++i) {
    ProcessId p = f.spawn(i % 4);
    f.net.join_group("g", p);
    f.sim.run();
  }
  for (const auto& v : f.client(a).views) {
    EXPECT_GT(v.view.view_id, prev);
    prev = v.view.view_id;
  }
}

TEST(Gcs, TokenCycleShorterOnLanThanWan) {
  Simulator sim1, sim2;
  SpreadNetwork lan(sim1, lan_testbed());
  SpreadNetwork wan(sim2, wan_testbed());
  EXPECT_LT(lan.token_cycle_ms(0), 2.0);
  EXPECT_GT(wan.token_cycle_ms(0), 250.0);
}

TEST(Gcs, CurrentViewReflectsInstalledMembership) {
  Fixture f;
  ProcessId a = f.spawn(0);
  EXPECT_FALSE(f.net.current_view("g", a).has_value());
  f.net.join_group("g", a);
  f.sim.run();
  auto view = f.net.current_view("g", a);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->members, std::vector<ProcessId>{a});
}

}  // namespace
}  // namespace sgk
