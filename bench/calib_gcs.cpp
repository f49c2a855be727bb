// Reproduces the group-communication primitives the paper calibrates its
// discussion against (sections 6.1.1 and 6.2.1):
//  * LAN: one Agreed multicast costs ~0.8-1.3 ms for 2..50 members; an
//    all-to-all round (every member broadcasts, everyone receives n-1)
//    costs a few ms at n=13 and tens of ms at n=50; the membership service
//    costs a few ms.
//  * WAN: Agreed delivery costs ~300-335 ms depending on the sender's site;
//    the membership service costs 400-700 ms.
#include <iomanip>
#include <iostream>

#include "gcs/spread.h"
#include "harness/bench_io.h"
#include "util/bytes.h"

namespace sgk {
namespace {

class Sink : public GroupClient {
 public:
  explicit Sink(Simulator& sim) : sim_(sim) {}
  void on_view(const std::string&, const View&, const ViewDelta&) override {
    last_view_time = sim_.now();
  }
  void on_message(const std::string&, ProcessId, const SharedBytes&) override {
    last_msg_time = sim_.now();
    ++received;
  }
  SimTime last_view_time = -1;
  SimTime last_msg_time = -1;
  int received = 0;

 private:
  Simulator& sim_;
};

struct Bed {
  explicit Bed(Topology topo) : topology(std::move(topo)), net(sim, topology) {}
  ProcessId spawn(MachineId m) {
    ProcessId p = net.create_process(m);
    sinks.push_back(std::make_unique<Sink>(sim));
    net.attach(p, sinks.back().get());
    return p;
  }
  Simulator sim;
  Topology topology;
  SpreadNetwork net;
  std::vector<std::unique_ptr<Sink>> sinks;
};

double measure_agreed(Bed& bed, const std::vector<ProcessId>& members,
                      const std::vector<ProcessId>& senders, int rounds) {
  double total = 0;
  for (int i = 0; i < rounds; ++i) {
    // Rotate senders with a large stride so no sender conveniently sits next
    // to where the token last parked; first bounce the token to a different
    // member's daemon with an unmeasured message, as in a busy system.
    ProcessId sender = senders[static_cast<std::size_t>(i * 5) % senders.size()];
    ProcessId decoy = members[(static_cast<std::size_t>(i) * 7 + 3) % members.size()];
    if (decoy != sender) {
      bed.net.multicast("g", decoy, str_bytes("decoy"));
      bed.sim.run();
    }
    SimTime start = bed.sim.now();
    bed.net.multicast("g", sender, str_bytes("calibration"));
    bed.sim.run();
    SimTime worst = start;
    for (ProcessId p : members)
      worst = std::max(worst, bed.sinks[p]->last_msg_time);
    total += worst - start;
  }
  return total / rounds;
}

double measure_all_to_all(Bed& bed, const std::vector<ProcessId>& members) {
  SimTime start = bed.sim.now();
  for (ProcessId p : members) bed.net.multicast("g", p, str_bytes("round"));
  bed.sim.run();
  SimTime worst = start;
  for (ProcessId p : members)
    worst = std::max(worst, bed.sinks[p]->last_msg_time);
  return worst - start;
}

void lan_section() {
  std::cout << "== LAN primitives (13 dual-CPU machines) ==\n";
  std::cout << std::setw(6) << "n" << std::setw(16) << "agreed mcast"
            << std::setw(16) << "all-to-all" << std::setw(16) << "membership"
            << "\n";
  for (std::size_t n : {2u, 7u, 13u, 26u, 50u}) {
    Bed bed(lan_testbed());
    std::vector<ProcessId> members;
    for (std::size_t i = 0; i < n; ++i)
      members.push_back(bed.spawn(static_cast<MachineId>(i % 13)));
    double membership = 0;
    for (ProcessId p : members) {
      SimTime start = bed.sim.now();
      bed.net.join_group("g", p);
      bed.sim.run();
      membership = bed.sinks[p]->last_view_time - start;
    }
    double agreed = measure_agreed(bed, members, members, 8);
    double a2a = measure_all_to_all(bed, members);
    std::cout << std::setw(6) << n << std::setw(14) << std::fixed
              << std::setprecision(2) << agreed << "ms" << std::setw(14) << a2a
              << "ms" << std::setw(14) << membership << "ms\n";
  }
  std::cout << "(paper: agreed 0.8-1.3 ms; membership 1-3 ms)\n\n";
}

void wan_section() {
  std::cout << "== WAN primitives (JHU/UCI/ICU) ==\n";
  Bed bed(wan_testbed());
  std::vector<ProcessId> members;
  for (int i = 0; i < 13; ++i)
    members.push_back(bed.spawn(static_cast<MachineId>(i)));
  double membership = 0;
  for (ProcessId p : members) {
    SimTime start = bed.sim.now();
    bed.net.join_group("g", p);
    bed.sim.run();
    membership = bed.sinks[p]->last_view_time - start;
  }
  struct SiteSender {
    const char* name;
    ProcessId pid;
  };
  const SiteSender senders[] = {{"JHU", members[0]}, {"UCI", members[11]},
                                {"ICU", members[12]}};
  for (const auto& s : senders) {
    double agreed = measure_agreed(bed, members, {s.pid}, 8);
    std::cout << "  agreed mcast, sender at " << s.name << ": " << std::fixed
              << std::setprecision(1) << agreed << " ms (paper: ~305-334)\n";
  }
  double a2a = measure_all_to_all(bed, members);
  std::cout << "  all-to-all round (13 members): " << a2a << " ms\n";
  std::cout << "  membership install: " << membership
            << " ms (paper: 400-700)\n";
  std::cout << "  token cycle: " << bed.net.token_cycle_ms(0) << " ms\n";
}

}  // namespace
}  // namespace sgk

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  sgk::FlagTable flags(opts);
  if (const auto status = flags.parse(argc, argv)) return *status;
  sgk::ObsSession session(opts);
  sgk::lan_section();
  sgk::wan_section();
  sgk::obs::RunReport report("calib_gcs");
  return session.finish(report) ? 0 : 1;
}
