// src/server: the multi-group daemon. The headline contract under test is
// determinism — a GroupServer run must produce byte-identical output for any
// worker-thread count — plus the pieces that contract is built from: the
// shard executor's epoch barrier, disjoint per-group process-id blocks, the
// directory's ordered snapshots, and the Deployment every group (and every
// chaos and experiment run) is driven through.
#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/run_report.h"
#include "server/deployment.h"
#include "server/group_directory.h"
#include "server/shard_executor.h"
#include "sim/topology.h"

namespace {

using namespace sgk;
using namespace sgk::server;

ServerConfig small_config(int threads) {
  ServerConfig cfg;
  cfg.groups = 6;       // spans all five protocols plus one repeat
  cfg.members_per_group = 3;
  cfg.churn_events = 2;
  cfg.threads = threads;
  cfg.seed = 42;
  return cfg;
}

/// Runs a small server and assembles the same deterministic RunReport a
/// bench would write (payload section + merged metrics; no wall clock).
std::string report_bytes(int threads) {
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  GroupServer server(small_config(threads));
  const ServerResult result = server.run();
  obs::RunReport report("server_test");
  report.add_section("multi_group", result.to_json(/*with_groups=*/true));
  report.add_metrics(registry);
  return report.json().dump(2);
}

// The determinism regression: one worker thread vs eight, byte-identical
// RunReport JSON (group rows, aggregate quantiles, every metric counter).
TEST(GroupServerDeterminism, ThreadCountDoesNotChangeReportBytes) {
  const std::string one = report_bytes(1);
  const std::string eight = report_bytes(8);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

// Re-running the same config must also be bit-stable (seeded schedules,
// no ambient entropy).
TEST(GroupServerDeterminism, RerunIsByteIdentical) {
  EXPECT_EQ(report_bytes(2), report_bytes(2));
}

TEST(GroupServer, SmallFleetConvergesAndAggregates) {
  GroupServer server(small_config(4));
  const ServerResult result = server.run();
  EXPECT_EQ(result.groups_hosted, 6u);
  EXPECT_EQ(result.groups_converged, 6u);
  ASSERT_EQ(result.groups.size(), 6u);
  for (const GroupReport& g : result.groups) {
    EXPECT_TRUE(g.converged) << "group " << g.id;
    EXPECT_GE(g.final_size, 2u);
    EXPECT_TRUE(g.violations.empty());
  }
  // Group ids come back ascending (the aggregation order that makes the
  // report thread-count independent).
  for (std::size_t i = 1; i < result.groups.size(); ++i)
    EXPECT_LT(result.groups[i - 1].id, result.groups[i].id);
  EXPECT_GT(result.key_installs, 0u);
  EXPECT_GT(result.virtual_makespan_ms, 0.0);
  EXPECT_GT(result.event_to_key_p99_ms, 0.0);
  // Every group's network was absorbed into the shared (locked) stats.
  EXPECT_EQ(server.shared_stats().networks_absorbed(), 6u);
  EXPECT_GT(server.shared_stats().stamped_total(), 0u);
  EXPECT_GE(server.shared_stats().processes_total(), 6u * 3u);
  // And the directory saw every group settle.
  EXPECT_EQ(server.directory().group_count(), 6u);
  EXPECT_EQ(server.directory().count(GroupState::kSettled), 6u);
}

// Disjoint per-group process-id blocks: no pid appears in two groups, and
// every pid sits inside its group's [gid * stride, (gid+1) * stride) block.
TEST(GroupServer, ProcessIdBlocksAreDisjoint) {
  SpreadParams params;
  params.first_process_id = 3 * GroupServer::kPidStride;
  Simulator sim;
  const Topology topo = lan_testbed(2);
  SpreadNetwork net(sim, topo, params);
  EXPECT_EQ(net.create_process(0), 3 * GroupServer::kPidStride);
  EXPECT_EQ(net.create_process(1), 3 * GroupServer::kPidStride + 1);
  EXPECT_EQ(net.first_process_id(), 3 * GroupServer::kPidStride);
}

// Deployment::apply is the one interpretation of a churn op. Each verdict is
// pinned on a scripted op list, including the skipped ops (a leave or crash
// at two members) that a server counts out of its events_applied.
TEST(Deployment, ApplyVerdictsOnAScriptedOpList) {
  MemberConfig member;
  member.protocol = ProtocolKind::kTgdh;
  Deployment d(lan_testbed(4), SpreadParams{}, member);
  const auto apply = [&](fault::ChurnKind kind, std::uint64_t arg) {
    const bool applied = d.apply(fault::ChurnOp{d.sim().now(), kind, arg});
    d.sim().run();
    return applied;
  };
  using fault::ChurnKind;

  EXPECT_FALSE(apply(ChurnKind::kRekey, 0));  // nobody to request it
  EXPECT_EQ(d.alive().size(), 0u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(apply(ChurnKind::kJoin, 0));
  EXPECT_EQ(d.alive().size(), 3u);
  EXPECT_TRUE(apply(ChurnKind::kLeave, 1));
  EXPECT_EQ(d.alive().size(), 2u);
  EXPECT_FALSE(apply(ChurnKind::kLeave, 0));  // would drop below two
  EXPECT_FALSE(apply(ChurnKind::kCrash, 1));
  EXPECT_EQ(d.alive().size(), 2u);
  EXPECT_TRUE(apply(ChurnKind::kJoin, 0));
  EXPECT_TRUE(apply(ChurnKind::kCrash, 0));
  EXPECT_EQ(d.alive().size(), 2u);
  EXPECT_EQ(d.spawned(), 4u);
  EXPECT_TRUE(apply(ChurnKind::kRekey, 7));

  // Split machines {0} / {1,2,3}: the two survivors (members 2 and 3, on
  // machines 2 and 3) stay together, so one component must still agree.
  EXPECT_TRUE(apply(ChurnKind::kPartition, 3));
  EXPECT_TRUE(apply(ChurnKind::kHeal, 0));

  fault::InvariantChecker checker;
  const Deployment::Audit audit = d.audit(checker);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_EQ(audit.final_size, 2u);
  EXPECT_EQ(audit.frames_rejected, 0u);
  EXPECT_EQ(audit.recoveries, 0u);
  ASSERT_NE(audit.first_keyed, nullptr);
  EXPECT_EQ(audit.first_keyed, d.alive().front());
  for (const SecureGroupMember* m : d.alive()) {
    EXPECT_EQ(m->key_epoch(), audit.final_epoch);
    EXPECT_EQ(m->key_fingerprint(), audit.fingerprint());
  }
  // Joins, leave, crash, rekey and the heal each re-keyed the group.
  EXPECT_GE(audit.final_epoch, 7u);
}

// The split point is 1 + arg % (machines - 1); with one machine there is
// nothing to split, and the op reports that it did not take effect.
TEST(Deployment, PartitionOfOneMachineIsSkipped) {
  Deployment d(lan_testbed(1), SpreadParams{}, MemberConfig{});
  for (int i = 0; i < 2; ++i) d.spawn().join();
  d.sim().run();
  EXPECT_FALSE(d.apply(fault::ChurnOp{d.sim().now(), fault::ChurnKind::kPartition, 0}));
  EXPECT_TRUE(d.apply(fault::ChurnOp{d.sim().now(), fault::ChurnKind::kHeal, 0}));
  d.sim().run();
  fault::InvariantChecker checker;
  EXPECT_EQ(d.audit(checker).final_size, 2u);
  EXPECT_TRUE(checker.ok());
}

// The audit probes per network component: mid-partition the two sides hold
// different keys and that is not a violation, but a member still running
// its agreement is reported as wedged.
TEST(Deployment, AuditIsComponentAwareAndFlagsInFlightMembers) {
  Deployment d(lan_testbed(2), SpreadParams{}, MemberConfig{});
  for (int i = 0; i < 4; ++i) d.spawn().join();
  d.sim().run();
  d.net().partition({{0}, {1}});
  d.sim().run();
  fault::InvariantChecker split;
  EXPECT_EQ(d.audit(split).final_size, 4u);
  EXPECT_TRUE(split.ok()) << split.violations().front();

  // Stop the next join's agreement half way: step until a member is in it.
  d.spawn().join();
  const auto in_flight = [&] {
    for (const SecureGroupMember* m : d.alive())
      if (m->agreement_in_flight()) return true;
    return false;
  };
  while (!in_flight()) ASSERT_TRUE(d.sim().step());
  fault::InvariantChecker early;
  d.audit(early);
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.violations().front().rfind("wedge: member", 0), 0u)
      << early.violations().front();
}

TEST(ShardExecutor, EpochBarrierRunsEveryShardToCompletion) {
  constexpr int kThreads = 4;
  ShardExecutor exec(kThreads);
  EXPECT_EQ(exec.threads(), kThreads);
  std::vector<int> per_shard(kThreads, 0);  // slot per shard: no sharing
  for (int epoch = 0; epoch < 50; ++epoch) {
    exec.run_epoch([&](int shard) { ++per_shard[shard]; });
    // The barrier has passed: every shard's work for this epoch is visible.
    for (int shard = 0; shard < kThreads; ++shard)
      ASSERT_EQ(per_shard[shard], epoch + 1) << "shard " << shard;
  }
}

TEST(ShardExecutor, SingleThreadRunsInline) {
  ShardExecutor exec(1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  exec.run_epoch([&](int shard) {
    EXPECT_EQ(shard, 0);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(GroupDirectory, SnapshotIsAscendingById) {
  GroupDirectory dir;
  for (GroupId id : {7u, 1u, 4u}) {
    GroupSpec spec;
    spec.id = id;
    spec.name = "g" + std::to_string(id);
    dir.register_group(spec);
  }
  EXPECT_EQ(dir.group_count(), 3u);
  EXPECT_EQ(dir.count(GroupState::kPending), 3u);

  GroupStatus active;
  active.state = GroupState::kActive;
  active.epoch = 2;
  dir.update(4, active);
  EXPECT_EQ(dir.count(GroupState::kPending), 2u);
  EXPECT_EQ(dir.count(GroupState::kActive), 1u);

  const auto snap = dir.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first.id, 1u);
  EXPECT_EQ(snap[1].first.id, 4u);
  EXPECT_EQ(snap[2].first.id, 7u);
  EXPECT_EQ(snap[1].second.state, GroupState::kActive);
  EXPECT_EQ(snap[1].second.epoch, 2u);
}

TEST(GroupDirectory, StateNamesRoundTrip) {
  EXPECT_STREQ(to_string(GroupState::kPending), "pending");
  EXPECT_STREQ(to_string(GroupState::kOnboarding), "onboarding");
  EXPECT_STREQ(to_string(GroupState::kActive), "active");
  EXPECT_STREQ(to_string(GroupState::kSettled), "settled");
  EXPECT_STREQ(to_string(GroupState::kFailed), "failed");
}

}  // namespace
