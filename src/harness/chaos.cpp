#include "harness/chaos.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "server/deployment.h"
#include "sim/fault_adapter.h"
#include "util/check.h"

namespace sgk {

namespace {

SpreadParams chaos_params(const ChaosConfig& config) {
  SpreadParams p;
  p.batch = config.batch;
  return p;
}

MemberConfig chaos_member(const ChaosConfig& config) {
  MemberConfig cfg;
  cfg.protocol = config.protocol;
  cfg.dh_bits = config.dh_bits;
  cfg.cost = config.cost;
  cfg.seed = config.seed;
  cfg.signature = config.signature;
  cfg.verify_signatures = config.verify_signatures;
  cfg.recovery_watchdog_ms = config.recovery_watchdog_ms;
  return cfg;
}

/// One chaos run: drives the seeded fault plan against a deployment and
/// checks the invariants at the deadline.
class ChaosRun final : public fault::ChurnTarget {
 public:
  ChaosRun(const ChaosConfig& config, fault::FaultPlan plan)
      : config_(config),
        injector_(std::move(plan)),
        deployment_(config.topology, chaos_params(config),
                    chaos_member(config)) {
    if (config_.mutation_rate > 0.0) {
      fault::FrameMutator::Options opts;
      opts.rate = config_.mutation_rate;
      // Without signatures only strict validation stands between a mutated
      // frame and the protocols, so restrict the menu to mutations it
      // provably catches — the harness must not manufacture the very silent
      // divergence it exists to rule out.
      opts.detectable_only = !config_.verify_signatures;
      opts.modulus_bytes = dh_group(config_.dh_bits).p().to_bytes().size();
      mutator_.emplace(config_.seed, opts);
      injector_.set_mutator(&*mutator_);
    }
    deployment_.net().set_fault_hook(&injector_);
    deployment_.set_key_listener(
        [this](SecureGroupMember& m, SimTime t, std::uint64_t epoch) {
          checker_.observe_epoch(m.id(), epoch);
          last_key_time_ = std::max(last_key_time_, t);
        });
  }

  ChaosResult run() {
    // Arm first: the plan's ops are absolute virtual times, and the initial
    // group's agreement may still be running when the first op fires —
    // that cascade is the point.
    Simulator& sim = deployment_.sim();
    SimFaultScheduler sched(sim);
    injector_.arm(sched, *this);
    for (std::size_t i = 0; i < config_.initial_size; ++i)
      deployment_.spawn().join();

    const auto& ops = injector_.plan().ops();
    const double last_op = ops.empty() ? 0.0 : ops.back().at_ms;
    const double deadline = last_op + config_.grace_ms;
    sim.run_until(deadline);
    if (sim.pending() > 0)
      checker_.flag_timeout("run still active at deadline (last op " +
                            std::to_string(last_op) + "ms + grace " +
                            std::to_string(config_.grace_ms) + "ms)");

    const server::Deployment::Audit audit = deployment_.audit(checker_);
    ChaosResult r;
    r.final_size = audit.final_size;
    r.final_epoch = audit.final_epoch;
    r.fingerprint = audit.fingerprint();
    r.restarts = audit.restarts;
    r.stale_dropped = audit.stale_dropped;
    r.frames_rejected = audit.frames_rejected;
    r.recoveries = audit.recoveries;
    r.converged = checker_.ok() && r.final_size >= 2;
    if (r.final_size < 2)
      checker_.flag_timeout("fewer than two members survived");
    r.violations = checker_.violations();
    r.end_ms = sim.now();
    r.convergence_ms = std::max(0.0, last_key_time_ - last_op);
    r.wire = injector_.stats();
    r.churn_applied = injector_.stats().churn_applied;
    r.frames_mutated = injector_.stats().frames_mutated;
    return r;
  }

  void apply(const fault::ChurnOp& op) override {
    deployment_.apply(op);
    if (obs::MetricsRegistry* mr = obs::metrics())
      mr->counter(std::string("chaos/op/") + fault::to_string(op.kind)).add();
  }

 private:
  ChaosConfig config_;
  // Declared before the deployment so the network's fault hook outlives it.
  fault::FaultInjector injector_;
  std::optional<fault::FrameMutator> mutator_;
  fault::InvariantChecker checker_;
  server::Deployment deployment_;
  double last_key_time_ = 0.0;
};

}  // namespace

ChaosResult run_chaos(const ChaosConfig& config) {
  SGK_CHECK(config.initial_size >= 2);
  fault::FaultPlan plan(config.seed, config.rates);
  if (!config.script.empty()) {
    for (const fault::ChurnOp& op : config.script)
      plan.script(op.at_ms, op.kind, op.arg);
  } else {
    plan.randomize(config.events, config.start_ms, config.min_gap_ms,
                   config.max_gap_ms);
  }
  ChaosRun run(config, std::move(plan));
  return run.run();
}

}  // namespace sgk
