// FaultInjector: the wire half of a FaultPlan, installed on a running
// system's transport.
//
// The injector is pure policy: it decides *what* wire fault applies to each
// daemon copy, unicast and frame, and counts its verdicts. The plan's churn
// schedule is driven by server::Deployment::schedule, the one place a churn
// op meets the simulator and the membership it changes. This keeps
// src/fault below src/sim and src/gcs in the layering DAG while both of
// them consume its hook types.
#pragma once

#include <cstdint>
#include <utility>

#include "fault/hooks.h"
#include "fault/mutator.h"
#include "fault/plan.h"

namespace sgk::fault {

class FaultInjector final : public WireFaultHook {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  const FaultPlan& plan() const { return plan_; }

  /// Attaches an adversarial frame mutator; on_frame verdicts delegate to
  /// it. Without one (the default) frame content is never touched. The
  /// mutator must outlive the injector's use.
  void set_mutator(FrameMutator* mutator) { mutator_ = mutator; }

  /// Wire-fault tallies, for reports and tests.
  struct Stats {
    std::uint64_t daemon_copies = 0;    // hook consultations (transmit side)
    std::uint64_t dropped = 0;          // copies charged a retransmission
    std::uint64_t delayed = 0;          // copies jittered
    std::uint64_t duplicated = 0;       // copies delivered twice
    std::uint64_t unicasts = 0;         // unicast consultations
    std::uint64_t unicasts_delayed = 0;
    std::uint64_t frames_mutated = 0;   // content corruptions applied
  };
  const Stats& stats() const { return stats_; }

  // WireFaultHook:
  WireFault on_daemon_copy(int from_machine, int to_machine,
                           std::uint64_t seq) override;
  WireFault on_unicast(ProcessId from, ProcessId to) override;
  MutationKind on_frame(Bytes& wire, std::uint64_t unit) override;

 private:
  FaultPlan plan_;
  Stats stats_;
  std::uint64_t unicast_counter_ = 0;
  FrameMutator* mutator_ = nullptr;
};

}  // namespace sgk::fault
