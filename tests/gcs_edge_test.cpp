// GCS edge cases: token parking/waking, view deduplication, forced
// refreshes, multi-group partitions, and component bookkeeping.
#include <gtest/gtest.h>

#include "util/check.h"
#include "gcs/spread.h"
#include "util/serde.h"

namespace sgk {
namespace {

class CountingClient : public GroupClient {
 public:
  void on_view(const std::string&, const View& v, const ViewDelta& d) override {
    ++views;
    last_view = v;
    last_delta = d;
  }
  void on_message(const std::string&, ProcessId, const SharedBytes&) override {
    ++messages;
  }
  int views = 0;
  int messages = 0;
  View last_view;
  ViewDelta last_delta;
};

struct Bed {
  explicit Bed(Topology t = lan_testbed(4)) : topo(std::move(t)), net(sim, topo) {}
  ProcessId spawn(MachineId m) {
    ProcessId p = net.create_process(m);
    clients.push_back(std::make_unique<CountingClient>());
    net.attach(p, clients.back().get());
    return p;
  }
  Simulator sim;
  Topology topo;
  SpreadNetwork net;
  std::vector<std::unique_ptr<CountingClient>> clients;
};

TEST(GcsEdge, SimulationQuiescesAfterActivity) {
  // The token must park; otherwise sim.run() would never return (this test
  // finishing at all is the assertion, plus a bounded event count).
  Bed b;
  ProcessId a = b.spawn(0);
  b.net.join_group("g", a);
  b.sim.run();
  std::uint64_t events_after_join = b.sim.executed();
  b.net.multicast("g", a, str_bytes("x"));
  b.sim.run();
  EXPECT_LT(b.sim.executed() - events_after_join, 200u);
}

TEST(GcsEdge, DuplicateViewRequestsCollapse) {
  Bed b;
  ProcessId a = b.spawn(0);
  ProcessId c = b.spawn(1);
  b.net.join_group("g", a);
  // Two processes join before the sim runs: their membership changes may
  // collapse into fewer views, but the final view must contain both.
  b.net.join_group("g", c);
  b.sim.run();
  EXPECT_EQ(b.clients[a]->last_view.members, (std::vector<ProcessId>{a, c}));
  EXPECT_EQ(b.clients[c]->last_view.members, (std::vector<ProcessId>{a, c}));
}

TEST(GcsEdge, RefreshForcesNewViewSameMembers) {
  Bed b;
  ProcessId a = b.spawn(0);
  ProcessId c = b.spawn(1);
  b.net.join_group("g", a);
  b.net.join_group("g", c);
  b.sim.run();
  int views_before = b.clients[a]->views;
  std::uint64_t id_before = b.clients[a]->last_view.view_id;
  b.net.refresh_group("g", a);
  b.sim.run();
  EXPECT_EQ(b.clients[a]->views, views_before + 1);
  EXPECT_GT(b.clients[a]->last_view.view_id, id_before);
  EXPECT_EQ(b.clients[a]->last_view.members, (std::vector<ProcessId>{a, c}));
  EXPECT_EQ(b.clients[a]->last_delta.classify(), GroupEvent::kRefresh);
}

TEST(GcsEdge, RefreshByNonMemberRejected) {
  Bed b;
  ProcessId a = b.spawn(0);
  ProcessId outsider = b.spawn(1);
  b.net.join_group("g", a);
  b.sim.run();
  EXPECT_THROW(b.net.refresh_group("g", outsider), CheckFailure);
}

TEST(GcsEdge, DoubleJoinRejected) {
  Bed b;
  ProcessId a = b.spawn(0);
  b.net.join_group("g", a);
  EXPECT_THROW(b.net.join_group("g", a), CheckFailure);
}

TEST(GcsEdge, LeaveWithoutJoinRejected) {
  Bed b;
  ProcessId a = b.spawn(0);
  EXPECT_THROW(b.net.leave_group("g", a), CheckFailure);
}

TEST(GcsEdge, PartitionValidatesCoverage) {
  Bed b;
  EXPECT_THROW(b.net.partition({{0, 1}}), CheckFailure);          // missing machines
  EXPECT_THROW(b.net.partition({{0, 1, 2, 3}, {3}}), CheckFailure);  // duplicate
  EXPECT_THROW(b.net.partition({{0, 1}, {}, {2, 3}}), CheckFailure); // empty part
}

TEST(GcsEdge, MultipleGroupsSurvivePartition) {
  Bed b;
  ProcessId a = b.spawn(0);
  ProcessId c = b.spawn(1);
  ProcessId d = b.spawn(2);
  b.net.join_group("g1", a);
  b.net.join_group("g1", c);
  b.net.join_group("g2", c);
  b.net.join_group("g2", d);
  b.sim.run();
  b.net.partition({{0, 3}, {1, 2}});
  b.sim.run();
  // g1 splits: a alone on one side, c alone on the other.
  EXPECT_EQ(b.clients[a]->last_view.members, std::vector<ProcessId>{a});
  // g2 stays whole: c (machine 1) and d (machine 2) are in one component.
  EXPECT_EQ(b.clients[d]->last_view.members, (std::vector<ProcessId>{c, d}));
}

TEST(GcsEdge, RepartitionWhileAlreadyPartitioned) {
  Bed b(lan_testbed(6));
  std::vector<ProcessId> ps;
  for (int i = 0; i < 6; ++i) ps.push_back(b.spawn(i));
  for (ProcessId p : ps) b.net.join_group("g", p);
  b.sim.run();
  b.net.partition({{0, 1, 2}, {3, 4, 5}});
  b.sim.run();
  // Split one side again without healing first.
  b.net.partition({{0, 1}, {2}, {3, 4, 5}});
  b.sim.run();
  EXPECT_EQ(b.clients[ps[0]]->last_view.members, (std::vector<ProcessId>{ps[0], ps[1]}));
  EXPECT_EQ(b.clients[ps[2]]->last_view.members, std::vector<ProcessId>{ps[2]});
  EXPECT_EQ(b.clients[ps[3]]->last_view.members.size(), 3u);
  b.net.heal();
  b.sim.run();
  EXPECT_EQ(b.clients[ps[0]]->last_view.members.size(), 6u);
}

TEST(GcsEdge, EmptyGroupViewNotDelivered) {
  Bed b;
  ProcessId a = b.spawn(0);
  b.net.join_group("g", a);
  b.sim.run();
  b.net.leave_group("g", a);
  b.sim.run();
  // The sole member left: nobody receives the empty view.
  EXPECT_EQ(b.clients[a]->last_view.members, std::vector<ProcessId>{a});
}

TEST(GcsEdge, RejoinAfterLeaveWorks) {
  Bed b;
  ProcessId a = b.spawn(0);
  ProcessId c = b.spawn(1);
  b.net.join_group("g", a);
  b.net.join_group("g", c);
  b.sim.run();
  b.net.leave_group("g", c);
  b.sim.run();
  b.net.join_group("g", c);
  b.sim.run();
  EXPECT_EQ(b.clients[c]->last_view.members, (std::vector<ProcessId>{a, c}));
  EXPECT_TRUE(b.clients[c]->last_delta.first_view);  // fresh membership
}

TEST(GcsEdge, MessagesStampedCounterAdvances) {
  Bed b;
  ProcessId a = b.spawn(0);
  b.net.join_group("g", a);
  b.sim.run();
  std::uint64_t before = b.net.messages_stamped();
  b.net.multicast("g", a, str_bytes("one"));
  b.net.multicast("g", a, str_bytes("two"));
  b.sim.run();
  EXPECT_EQ(b.net.messages_stamped(), before + 2);
}

TEST(GcsEdge, OrderedSendToDepartedMemberIsHarmless) {
  Bed b;
  ProcessId a = b.spawn(0);
  ProcessId c = b.spawn(1);
  b.net.join_group("g", a);
  b.net.join_group("g", c);
  b.sim.run();
  b.net.leave_group("g", c);
  b.sim.run();
  b.net.ordered_send("g", a, c, str_bytes("late"));
  b.sim.run();
  EXPECT_EQ(b.clients[c]->messages, 0);
}

}  // namespace
}  // namespace sgk
