// FaultInjector: executes a FaultPlan against a running system.
//
// The injector is pure policy: it decides *what* fault applies *when*, and
// leaves the mechanics to two small interfaces its consumers implement —
// Scheduler (virtual-time scheduling; src/sim provides the Simulator
// adapter in sim/fault_adapter.h) and ChurnTarget (membership operations;
// the chaos harness and each hosted server group implement it by handing
// the op to server::Deployment::apply, the one interpretation of a churn
// op). This keeps src/fault below src/sim and src/gcs in the layering DAG
// while both of them consume its hook types.
#pragma once

#include <cstdint>
#include <functional>

#include "fault/hooks.h"
#include "fault/mutator.h"
#include "fault/plan.h"

namespace sgk::fault {

/// Virtual-time scheduling, as much of it as the injector needs.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual double now() const = 0;
  virtual void after(double dt_ms, std::function<void()> fn) = 0;
};

/// Receiver of scheduled membership faults. Implementations interpret
/// `op.arg` against whatever population exists when the op fires (e.g.
/// victim = arg % alive_count) so plans stay valid under any history.
class ChurnTarget {
 public:
  virtual ~ChurnTarget() = default;
  virtual void apply(const ChurnOp& op) = 0;
};

class FaultInjector final : public WireFaultHook {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  const FaultPlan& plan() const { return plan_; }

  /// Schedules every churn op in the plan onto `sched`; each fires
  /// `target.apply(op)` at its virtual time (ops already in the past fire
  /// immediately). `target` must outlive the scheduled events. Call once.
  void arm(Scheduler& sched, ChurnTarget& target);

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
    std::uint64_t churn_applied = 0;    // ops delivered to the target
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
  bool armed_ = false;
  std::uint64_t unicast_counter_ = 0;
  FrameMutator* mutator_ = nullptr;
};

}  // namespace sgk::fault
