// Experiment harness: drives membership events against a simulated Secure
// Spread deployment and measures what the paper measures — the total elapsed
// time from the membership event until the key agreement has finished and
// every member has been notified of the new key (section 6).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/drbg.h"
#include "gcs/secure_group.h"
#include "gcs/spread.h"
#include "server/deployment.h"

namespace sgk {

/// Which member leaves in a leave experiment. The paper pins this down per
/// protocol (section 6.1.2): STR uses the middle member (average case), CKD
/// accounts for the 1/n chance of the controller leaving, GDH/BD are
/// oblivious to the choice.
enum class LeavePolicy {
  kRandom,   // uniform among members (matches CKD's 1/n controller factor)
  kMiddle,   // the n/2-th member in join order (STR's average case)
  kOldest,   // first joiner (CKD controller: the expensive case)
  kNewest,   // last joiner (GDH controller)
};

struct ExperimentConfig {
  Topology topology = lan_testbed();
  ProtocolKind protocol = ProtocolKind::kTgdh;
  DhBits dh_bits = DhBits::k512;
  CostModel cost = CostModel::paper2002();
  std::uint64_t seed = 1;
  /// Blinded-key recomputation in TGDH/STR (on in the paper's measured
  /// system; off for Table 1's operation counting).
  bool key_confirmation = true;
  /// Signature scheme for protocol messages.
  SigScheme signature = SigScheme::kRsa;
  /// Placement of member i: machine i % machine_count (the paper's uniform
  /// distribution over the testbed machines).
};

/// Result of one measured membership event.
struct EventResult {
  double elapsed_ms = 0;         // event injection -> last member keyed
  double membership_ms = 0;      // event injection -> last view install
  OpCounters total;              // summed over all members
  OpCounters max_member;         // heaviest single member
  std::size_t group_size = 0;    // resulting group size
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  /// Adds a member without measuring (setup).
  void grow_to(std::size_t n);

  /// Measured events; each runs the simulation to quiescence and asserts
  /// that every member derived the same key (every member of the same
  /// network component, after a partition); a disagreement throws
  /// CheckFailure naming the first violation.
  EventResult measure_join();
  EventResult measure_leave(LeavePolicy policy);
  /// `count` random members leave simultaneously (the paper's "partition"
  /// event at the group level: multiple members disappear in one view).
  EventResult measure_multi_leave(std::size_t count);
  /// Partitions the network into `parts` machine groups; elapsed time is the
  /// slowest component's re-key.
  EventResult measure_partition(const std::vector<std::vector<MachineId>>& parts);
  /// Heals all partitions; elapsed is until the merged group re-keys.
  EventResult measure_merge();

  std::size_t group_size() const;
  const std::vector<SecureGroupMember*> members() const;
  SpreadNetwork& network() { return deployment_.net(); }
  Simulator& simulator() { return deployment_.sim(); }

 private:
  /// Snapshots every live member's counters (the baseline of the next
  /// event's per-member deltas) and returns their sum.
  OpCounters snapshot_counters();
  /// Opens the tracer's root span for a measured event at t0.
  void begin_event(const char* event_name, double t0);
  /// Runs the sim, checks key agreement and collects timing/counter deltas
  /// for one event.
  EventResult finish_event(const char* event_name, double t0,
                           OpCounters before_total);
  /// Throws CheckFailure unless every component agrees on one key.
  void check_agreement() const;
  /// Closes the root span at `keyed` and records event metrics.
  void record_event(const char* event_name, const EventResult& r, double keyed);
  OpCounters sum_counters() const;

  ExperimentConfig config_;
  server::Deployment deployment_;
  Drbg rng_;
  std::vector<OpCounters> last_counters_;  // per member slot, at event start
  /// Host-clock stamp taken in begin_event when a wall profiler is
  /// installed; record_event closes the interval so `--wallclock` runs get
  /// real ns per membership event beside the virtual elapsed_ms.
  std::uint64_t wall_t0_ = 0;
};

}  // namespace sgk
