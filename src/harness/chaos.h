// Chaos harness: one seeded fault plan against a full Secure Spread
// deployment.
//
// run_chaos builds a simulated deployment (server/deployment.h: network,
// daemons, members with the configured key agreement protocol), arms a FaultInjector with the
// plan derived from (seed, config), lets the schedule play out — cascaded
// joins/leaves/crashes/partitions landing inside in-flight agreements,
// wire-level drop/delay/duplication on every daemon copy — and then checks
// the chaos invariants (fault/invariants.h): every surviving member of the
// final healed component holds the same key at the same epoch, epochs never
// regressed, and the run settled before its deadline. The whole run is a
// pure function of the config, so a failing seed reproduces bit-for-bit
// from the verdict line alone (see docs/fault_injection.md).
#pragma once

#include <string>
#include <vector>

#include "fault/injector.h"
#include "fault/invariants.h"
#include "fault/plan.h"
#include "gcs/secure_group.h"
#include "gcs/spread.h"

namespace sgk {

struct ChaosConfig {
  Topology topology = lan_testbed();
  ProtocolKind protocol = ProtocolKind::kTgdh;
  DhBits dh_bits = DhBits::k512;
  CostModel cost = CostModel::paper2002();
  SigScheme signature = SigScheme::kRsa;
  std::uint64_t seed = 1;
  std::size_t initial_size = 8;
  /// Randomized churn ops to schedule (ignored when `script` is set).
  int events = 6;
  fault::FaultRates rates = fault::FaultRates::uniform(0.1);
  /// First churn op fires at start_ms; inter-op gaps are uniform in
  /// [min_gap_ms, max_gap_ms] — short enough that ops routinely land inside
  /// the previous op's key agreement (the cascaded regime).
  double start_ms = 50.0;
  double min_gap_ms = 5.0;
  double max_gap_ms = 40.0;
  /// Liveness bound: the run must settle within grace_ms (virtual) of the
  /// last churn op, else it records a timeout violation.
  double grace_ms = 30000.0;
  /// Scripted mode: when non-empty these ops replace the randomized
  /// schedule (regression reproductions, unit tests).
  std::vector<fault::ChurnOp> script;

  // ---- adversarial wire fuzzing (see src/fault/mutator.h) -----------------
  /// Probability that any one stamped frame / unicast is mutated. 0 keeps
  /// the wire honest (the chaos baseline regime).
  double mutation_rate = 0.0;
  /// Verify signatures at the members. When off, the mutator restricts
  /// itself to mutations that strict structural validation provably catches
  /// (detectable_only), so the run still may not diverge silently.
  bool verify_signatures = true;
  /// Per-member recovery watchdog (0 = disabled); fuzz runs arm it so frames
  /// erased outright (replay mutations) cannot wedge an agreement.
  double recovery_watchdog_ms = 0.0;
  /// Rekey batching for the deployment's network (default disabled, so the
  /// chaos baselines keep exercising the per-event rekey path).
  BatchConfig batch;
};

struct ChaosResult {
  /// Every invariant held: all survivors share one key at one epoch, no
  /// epoch regression, run settled before the deadline.
  bool converged = false;
  std::vector<std::string> violations;  // empty iff converged
  /// Last churn op (scheduled time) -> last key install, clamped to >= 0.
  double convergence_ms = 0.0;
  double end_ms = 0.0;      // virtual time when the run settled
  std::size_t final_size = 0;
  std::uint64_t final_epoch = 0;
  std::string fingerprint;  // final group key fingerprint (loggable)
  std::uint64_t restarts = 0;       // agreement restarts, summed over members
  std::uint64_t stale_dropped = 0;  // stale frames discarded, summed
  std::uint64_t churn_applied = 0;
  std::uint64_t frames_mutated = 0;   // wire frames the mutator corrupted
  std::uint64_t frames_rejected = 0;  // typed rejections, summed over members
  std::uint64_t recoveries = 0;       // quarantine rekeys, summed over members
  fault::FaultInjector::Stats wire;
};

/// Runs one chaos scenario to completion. Deterministic in `config`.
ChaosResult run_chaos(const ChaosConfig& config);

}  // namespace sgk
