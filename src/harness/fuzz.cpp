#include "harness/fuzz.h"

#include <exception>

#include "fault/invariants.h"

namespace sgk {

FuzzResult run_fuzz(const ChaosConfig& config) {
  FuzzResult r;
  ChaosConfig chaos = config;
  if (chaos.recovery_watchdog_ms <= 0.0)
    chaos.recovery_watchdog_ms = kFuzzWatchdogMs;
  try {
    r.chaos = run_chaos(chaos);
  } catch (const std::exception& e) {
    // The tentpole invariant: untrusted bytes must never throw past a
    // member's handler. Record the escape as a crash violation instead of
    // taking the harness down with it.
    r.crashed = true;
    fault::InvariantChecker crash;
    crash.flag_crash(e.what());
    r.chaos.converged = false;
    r.chaos.violations = crash.violations();
    return r;
  }
  r.survived = r.chaos.converged;
  return r;
}

}  // namespace sgk
