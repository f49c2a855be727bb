// Fuzz harness: one seeded chaos run with adversarial wire mutation.
//
// run_fuzz drives run_chaos with a non-zero mutation rate and the recovery
// machinery armed, and converts the tentpole invariant — no single untrusted
// frame may crash a member, wedge a group, or cause silent key divergence —
// into a checkable result: any exception escaping the run is a crash
// violation (flag_crash), a member still mid-agreement at the deadline is a
// wedge (check_no_wedge, inside run_chaos), and key divergence is the
// existing convergence check. The whole run is a pure function of the
// config, so a failing (seed, rate, protocol) reproduces bit-for-bit.
#pragma once

#include <string>
#include <vector>

#include "harness/chaos.h"

namespace sgk {

/// Recovery watchdog a fuzz run arms when its config leaves it disabled:
/// long enough for honest agreements to finish, short enough to retry well
/// inside the chaos grace period.
inline constexpr double kFuzzWatchdogMs = 400.0;

struct FuzzResult {
  ChaosResult chaos;
  /// True when the run neither crashed, nor wedged, nor diverged.
  bool survived = false;
  /// Set when an exception escaped the run (the crash half of the tentpole
  /// invariant); the chaos violations then contain the what() string.
  bool crashed = false;
};

/// Runs one adversarial-wire scenario to completion. Deterministic in
/// `config`. mutation_rate must be non-zero for the run to exercise
/// anything; a recovery_watchdog_ms of 0 becomes kFuzzWatchdogMs.
FuzzResult run_fuzz(const ChaosConfig& config);

}  // namespace sgk
