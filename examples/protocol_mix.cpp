// Protocol mix: different key agreement protocols for different groups.
//
// One of the paper's stated contributions is a "group key agreement
// framework that supports multiple protocols. This allows the system to
// assign different key agreement protocols to different groups." Here a
// single simulated deployment hosts two groups at once: a small interactive
// "control" group using BD (cheap for small, stable groups) and a large
// "bulk" group using TGDH (scales with churn). One process participates in
// both simultaneously.
#include <iostream>

#include "gcs/secure_group.h"

using namespace sgk;

int main() {
  Simulator sim;
  SpreadNetwork net(sim, lan_testbed());
  auto pki = std::make_shared<Pki>();

  // A "bridge" process is a member of both groups: one SecureGroupMember per
  // (process, group) pair, both attached to the same process id via a small
  // demultiplexer.
  struct Demux : GroupClient {
    std::vector<GroupClient*> targets;
    void on_view(const std::string& g, const View& v, const ViewDelta& d) override {
      for (auto* t : targets) t->on_view(g, v, d);
    }
    void on_message(const std::string& g, ProcessId s,
                    const SharedBytes& b) override {
      for (auto* t : targets) t->on_message(g, s, b);
    }
  };

  std::vector<std::unique_ptr<SecureGroupMember>> control, bulk;
  auto make_member = [&](const std::string& group, ProtocolKind kind,
                         MachineId machine,
                         std::vector<std::unique_ptr<SecureGroupMember>>& out)
      -> SecureGroupMember& {
    ProcessId pid = net.create_process(machine);
    MemberConfig cfg;
    cfg.group = group;
    cfg.protocol = kind;
    out.push_back(std::make_unique<SecureGroupMember>(net, pid, pki, cfg));
    return *out.back();
  };

  // Control group: 3 members on BD.
  for (int i = 0; i < 3; ++i)
    make_member("control", ProtocolKind::kBd, static_cast<MachineId>(i), control)
        .join();
  sim.run();

  // Bulk group: 10 members on TGDH.
  for (int i = 0; i < 10; ++i)
    make_member("bulk", ProtocolKind::kTgdh, static_cast<MachineId>(i % 13), bulk)
        .join();
  sim.run();

  // The bridge: one process that is in both groups. Its two protocol
  // engines run independently; the GCS demultiplexes by group name.
  ProcessId bridge_pid = net.create_process(5);
  Demux demux;
  net.attach(bridge_pid, &demux);
  MemberConfig ctl_cfg;
  ctl_cfg.group = "control";
  ctl_cfg.protocol = ProtocolKind::kBd;
  SecureGroupMember bridge_control(net, bridge_pid, pki, ctl_cfg);
  MemberConfig bulk_cfg;
  bulk_cfg.group = "bulk";
  bulk_cfg.protocol = ProtocolKind::kTgdh;
  SecureGroupMember bridge_bulk(net, bridge_pid, pki, bulk_cfg);
  // The SecureGroupMember constructor attaches itself; restore the demux and
  // fan deliveries out to both engines.
  net.attach(bridge_pid, &demux);
  demux.targets = {&bridge_control, &bridge_bulk};

  bridge_control.join();
  sim.run();
  bridge_bulk.join();
  sim.run();

  std::cout << "control group (BD): " << control.size() + 1 << " members, epoch "
            << bridge_control.key_epoch() << ", key "
            << bridge_control.key_fingerprint() << "\n";
  std::cout << "bulk group (TGDH): " << bulk.size() + 1 << " members, epoch "
            << bridge_bulk.key_epoch() << ", key "
            << bridge_bulk.key_fingerprint() << "\n";

  if (!ct_equal(control[0]->key(), bridge_control.key()) ||
      !ct_equal(bulk[0]->key(), bridge_bulk.key())) {
    std::cerr << "bridge key mismatch!\n";
    return 1;
  }
  std::cout << "\nthe bridge process agrees with both groups, each under its "
               "own protocol.\n";

  // Relay a message from the control group into the bulk group, re-encrypted
  // under the bulk key.
  int bulk_deliveries = 0;
  for (auto& m : bulk)
    m->set_data_listener([&](ProcessId, const Bytes&) { ++bulk_deliveries; });
  bridge_bulk.set_data_listener([](ProcessId, const Bytes&) {});
  control[0]->set_data_listener([](ProcessId, const Bytes&) {});
  bridge_control.set_data_listener([&](ProcessId sender, const Bytes& pt) {
    std::cout << "bridge relaying control message from " << sender
              << " into the bulk group\n";
    bridge_bulk.send_data(pt);
  });
  control[0]->send_data(str_bytes("deploy the new build"));
  sim.run();
  std::cout << "bulk group received the relayed message at " << bulk_deliveries
            << " members.\n";
  return 0;
}
