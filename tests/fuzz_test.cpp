// Fuzz harness tests: the adversarial-wire runs are bit-for-bit
// deterministic in their config, survive the mutation menus in both
// verification regimes, and a mutation-free run stays an honest chaos run.
#include <gtest/gtest.h>

#include "harness/fuzz.h"

namespace sgk {
namespace {

ChaosConfig small_config(ProtocolKind protocol, std::uint64_t seed,
                         double rate, bool verify_signatures,
                         std::size_t group_size = 5, std::size_t events = 3) {
  ChaosConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = seed;
  cfg.initial_size = group_size;
  cfg.events = events;
  cfg.mutation_rate = rate;
  cfg.verify_signatures = verify_signatures;
  return cfg;
}

TEST(FuzzHarness, DeterministicAcrossRuns) {
  const ChaosConfig cfg = small_config(ProtocolKind::kGdh, 7, 0.05, true);
  const FuzzResult a = run_fuzz(cfg);
  const FuzzResult b = run_fuzz(cfg);
  EXPECT_EQ(a.survived, b.survived);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.chaos.converged, b.chaos.converged);
  EXPECT_EQ(a.chaos.fingerprint, b.chaos.fingerprint);
  EXPECT_EQ(a.chaos.final_epoch, b.chaos.final_epoch);
  EXPECT_EQ(a.chaos.frames_mutated, b.chaos.frames_mutated);
  EXPECT_EQ(a.chaos.frames_rejected, b.chaos.frames_rejected);
  EXPECT_EQ(a.chaos.recoveries, b.chaos.recoveries);
  EXPECT_DOUBLE_EQ(a.chaos.convergence_ms, b.chaos.convergence_ms);
  EXPECT_EQ(a.chaos.violations, b.chaos.violations);
}

TEST(FuzzHarness, SurvivesSignedFullMenu) {
  const FuzzResult r =
      run_fuzz(small_config(ProtocolKind::kBd, 6, 0.1, true, 8, 6));
  EXPECT_FALSE(r.crashed);
  EXPECT_TRUE(r.survived) << (r.chaos.violations.empty()
                                  ? "not converged"
                                  : r.chaos.violations.front());
  EXPECT_GT(r.chaos.frames_mutated, 0u);
  EXPECT_GT(r.chaos.frames_rejected, 0u);
}

TEST(FuzzHarness, SurvivesUnsignedDetectableMenu) {
  const FuzzResult r =
      run_fuzz(small_config(ProtocolKind::kStr, 7, 0.1, false, 8, 6));
  EXPECT_FALSE(r.crashed);
  EXPECT_TRUE(r.survived) << (r.chaos.violations.empty()
                                  ? "not converged"
                                  : r.chaos.violations.front());
  EXPECT_GT(r.chaos.frames_mutated, 0u);
}

TEST(FuzzHarness, ZeroRateIsAnHonestChaosRun) {
  const FuzzResult r =
      run_fuzz(small_config(ProtocolKind::kTgdh, 11, 0.0, true));
  EXPECT_FALSE(r.crashed);
  EXPECT_TRUE(r.survived);
  EXPECT_EQ(r.chaos.frames_mutated, 0u);
}

TEST(FuzzHarness, WatchdogDefaultIsAppliedWithoutMutatingCallerConfig) {
  ChaosConfig cfg = small_config(ProtocolKind::kGdh, 2, 0.05, true);
  cfg.recovery_watchdog_ms = 0.0;
  const FuzzResult r = run_fuzz(cfg);
  EXPECT_EQ(cfg.recovery_watchdog_ms, 0.0);  // run_fuzz copies
  EXPECT_FALSE(r.crashed);
}

}  // namespace
}  // namespace sgk
