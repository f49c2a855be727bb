// One hosted group: a complete, isolated Secure Spread deployment (its own
// server::Deployment — Simulator, SpreadNetwork, members — and seeded churn
// plan) that a GroupServer advances in virtual-time slices.
//
// Isolation is the determinism mechanism: everything a host touches while
// advancing is owned by the host, except the server-wide Pki, which carries
// a real lock (process ids are globally unique thanks to the host's disjoint
// SpreadParams::first_process_id block). A host is only ever advanced by the
// one worker that owns its shard, one epoch at a time, with the executor's
// barrier ordering epochs — hence SGK_CONFINED_TO_RUN on the class itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/key_agreement.h"
#include "crypto/dh.h"
#include "fault/injector.h"
#include "fault/invariants.h"
#include "fault/plan.h"
#include "gcs/rekey_batcher.h"
#include "gcs/secure_group.h"
#include "obs/metrics.h"
#include "server/deployment.h"
#include "sim/topology.h"
#include "util/thread_annotations.h"

namespace sgk::server {

using GroupId = std::uint32_t;

/// Shape of a group's churn schedule (see fault::FaultPlan).
enum class StormKind {
  kUniform,  // randomize(): uniform gaps (the chaos regime)
  kBursty,   // bursty_storm(): tight bursts separated by idle stretches
};

/// Immutable per-group configuration, fixed when the server builds its
/// schedule. Copied by value into the group's host. Churn starts
/// fault::kChurnStartMs after onboarding and the group must settle within
/// fault::kChurnGraceMs of its last op (fault/plan.h).
struct GroupSpec {
  // Built once on the main thread before workers start; read-only after.
  SGK_CONFINED_TO_RUN;
  GroupId id = 0;
  std::string name;  // "g<id>", used for group labels and metric prefixes
  ProtocolKind protocol = ProtocolKind::kTgdh;
  DhBits dh_bits = DhBits::k512;
  std::size_t initial_size = 4;
  /// Total churn budget; a bursty storm needs a multiple of burst_size.
  int churn_events = 4;
  double onboard_at_ms = 0.0;  // virtual time the group's members start joining
  std::uint64_t seed = 1;      // per-group schedule + DRBG seed
  fault::FaultRates rates;     // wire-fault rates for this group's network
  /// Churn schedule shape; kUniform reproduces the pre-storm plans exactly.
  StormKind storm = StormKind::kUniform;
  int burst_size = 8;  // kBursty: events per burst
  /// Rekey batching for this group's network (disabled by default — every
  /// membership event rekeys immediately, the legacy behavior).
  BatchConfig batch;
};

/// The group's seeded churn plan, derived purely from its spec (the host
/// builds the same plan internally; the server uses this to know deadlines
/// before any host exists).
fault::FaultPlan build_group_plan(const GroupSpec& spec);

/// Liveness bound for a spec: last scheduled churn op + grace.
double group_deadline_ms(const GroupSpec& spec);

/// Deterministic per-group outcome, produced once by finalize().
struct GroupReport {
  // Built by the finalizing thread; plain value afterwards.
  SGK_CONFINED_TO_RUN;
  GroupId id = 0;
  ProtocolKind protocol = ProtocolKind::kTgdh;
  bool converged = false;
  std::vector<std::string> violations;  // empty iff converged
  std::size_t final_size = 0;
  std::uint64_t final_epoch = 0;
  std::uint64_t rekeys = 0;          // distinct keyed epochs beyond the first
  double onboard_ms = 0.0;           // onboard start -> first key anywhere
  double settled_ms = 0.0;           // virtual time the group went quiet
  std::vector<double> event_to_key_ms;  // per key install: view -> key latency
  std::uint64_t restarts = 0;
  std::uint64_t stale_dropped = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t recoveries = 0;
  std::string fingerprint;  // final group key fingerprint (loggable)
  /// Churn ops that actually took effect (a leave skipped to keep two
  /// members does not count) — the denominator of keys-per-event.
  std::uint64_t events_applied = 0;
  /// Transport totals of the group's network: agreed messages stamped and
  /// processes ever created.
  std::uint64_t messages_stamped = 0;
  std::uint64_t processes = 0;
  /// Rekey pipeline stats (all zeros when spec.batch is disabled); the
  /// batcher's own event-arrival -> key latency samples live in
  /// batch.event_to_key_ms.
  BatchStats batch;
};

class GroupHost {
  // Owned by one shard; advanced by at most one worker at a time (the
  // executor's epoch barrier separates slices). The one shared structure it
  // touches (Pki) carries its own lock.
  SGK_CONFINED_TO_RUN;

 public:
  /// Builds the deployment and schedules member onboarding at
  /// `spec.onboard_at_ms` plus the seeded churn plan after it. `pki` is the
  /// server-wide directory shared across groups; `first_pid` is this group's
  /// disjoint process-id block.
  GroupHost(const GroupSpec& spec, std::shared_ptr<Pki> pki,
            ProcessId first_pid, const Topology& topology);

  GroupHost(const GroupHost&) = delete;
  GroupHost& operator=(const GroupHost&) = delete;

  /// Runs this group's events up to virtual time `until`, with the calling
  /// thread's ambient metrics registry pointed at this group's own registry
  /// for the duration of the slice.
  void advance(SimTime until);

  /// True once the event queue drained (the group converged and went quiet)
  /// or the host was force-settled at its deadline.
  bool done() const { return forced_ || deployment_.sim().pending() == 0; }

  /// Conservative lookahead: virtual time of this group's next event
  /// (+infinity when quiet). An executor may skip any epoch that ends
  /// before this without advancing the host.
  SimTime next_event_time() const {
    return deployment_.sim().next_event_time();
  }

  /// Liveness bound: last scheduled churn op + grace.
  double deadline_ms() const { return deadline_ms_; }

  /// Marks the host settled even though events are still pending; the
  /// deadline was hit and finalize() will record a timeout violation.
  void force_settle() { forced_ = true; }

  const GroupSpec& spec() const { return spec_; }

  /// Checks invariants and builds the report, transport totals included.
  /// Call once, after done(), from the finalizing thread.
  GroupReport finalize();

  /// This group's private metrics registry (merged into the session
  /// registry by the server after the run).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  void on_key(SecureGroupMember& member, SimTime t, std::uint64_t epoch);

  GroupSpec spec_;
  // Declared before the deployment so the network's fault hook outlives it.
  fault::FaultInjector injector_;
  fault::InvariantChecker checker_;
  obs::MetricsRegistry metrics_;
  Deployment deployment_;
  std::uint64_t events_applied_ = 0;
  double last_op_ms_ = 0.0;
  double deadline_ms_ = 0.0;
  double first_key_ms_ = -1.0;
  std::vector<double> event_to_key_ms_;
  std::vector<std::uint64_t> keyed_epochs_;  // distinct epochs, ascending
  bool forced_ = false;
  bool finalized_ = false;
};

}  // namespace sgk::server
