#include "server/group_host.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/fault_adapter.h"
#include "util/check.h"

namespace sgk::server {

fault::FaultPlan build_group_plan(const GroupSpec& spec) {
  fault::FaultPlan plan(spec.seed, spec.rates);
  // Churn starts churn_start_ms after onboarding so the first op routinely
  // lands inside an in-flight agreement — the cascaded regime, per group.
  const double start = spec.onboard_at_ms + spec.churn_start_ms;
  switch (spec.storm) {
    case StormKind::kUniform:
      plan.randomize(spec.churn_events, start, spec.min_gap_ms,
                     spec.max_gap_ms);
      break;
    case StormKind::kPoisson:
      plan.poisson_storm(spec.churn_events, start, spec.mean_gap_ms);
      break;
    case StormKind::kBursty: {
      // churn_events stays the total event budget across storm shapes, so
      // the batched/unbatched comparison holds workload size constant.
      const int size = std::max(1, spec.burst_size);
      const int bursts = std::max(1, spec.churn_events / size);
      plan.bursty_storm(bursts, size, start, spec.intra_gap_ms,
                        spec.idle_gap_ms);
      break;
    }
  }
  return plan;
}

double group_deadline_ms(const GroupSpec& spec) {
  const fault::FaultPlan plan = build_group_plan(spec);
  const auto& ops = plan.ops();
  const double last_op = ops.empty() ? spec.onboard_at_ms : ops.back().at_ms;
  return std::max(last_op, spec.onboard_at_ms) + spec.grace_ms;
}

namespace {

SpreadParams group_params(const GroupSpec& spec, ProcessId first_pid) {
  SpreadParams p;
  p.first_process_id = first_pid;
  p.batch = spec.batch;
  return p;
}

MemberConfig group_member(const GroupSpec& spec) {
  MemberConfig cfg;
  cfg.group = spec.name;
  cfg.protocol = spec.protocol;
  cfg.dh_bits = spec.dh_bits;
  cfg.seed = spec.seed;
  cfg.recovery_watchdog_ms = spec.recovery_watchdog_ms;
  cfg.recovery_backoff_cap_ms = spec.recovery_backoff_cap_ms;
  return cfg;
}

}  // namespace

GroupHost::GroupHost(const GroupSpec& spec, std::shared_ptr<Pki> pki,
                     ProcessId first_pid, const Topology& topology)
    : spec_(spec),
      injector_(build_group_plan(spec)),
      deployment_(topology, group_params(spec, first_pid), group_member(spec),
                  std::move(pki)) {
  SGK_CHECK(spec_.initial_size >= 2);
  deployment_.net().set_fault_hook(&injector_);
  deployment_.set_key_listener(
      [this](SecureGroupMember& m, SimTime t, std::uint64_t epoch) {
        on_key(m, t, epoch);
      });

  const auto& ops = injector_.plan().ops();
  last_op_ms_ = ops.empty() ? spec_.onboard_at_ms : ops.back().at_ms;
  deadline_ms_ = std::max(last_op_ms_, spec_.onboard_at_ms) + spec_.grace_ms;

  // Arm everything up front on this group's private simulator: onboarding at
  // the scheduled time, then the churn plan (absolute virtual times).
  Simulator& sim = deployment_.sim();
  sim.at(spec_.onboard_at_ms, [this] {
    for (std::size_t i = 0; i < spec_.initial_size; ++i)
      deployment_.spawn().join();
  });
  // The scheduler adapter is only used during arm(); all ops land on sim.
  SimFaultScheduler sched(sim);
  injector_.arm(sched, *this);
}

GroupHost::~GroupHost() = default;

void GroupHost::advance(SimTime until) {
  if (done()) return;
  // Every metric recorded while this group's events run lands in the
  // group's own registry, so worker threads never share a sink.
  obs::ScopedMetrics scoped(&metrics_);
  deployment_.sim().run_until(until);
}

GroupStatus GroupHost::status() const {
  GroupStatus s;
  if (finalized_ || done()) {
    s.state = forced_ ? GroupState::kFailed : GroupState::kSettled;
    s.settled_ms = deployment_.sim().now();
  } else if (first_key_ms_ >= 0.0) {
    s.state = GroupState::kActive;
  } else {
    s.state = GroupState::kOnboarding;
  }
  s.epoch = keyed_epochs_.empty() ? 0 : keyed_epochs_.back();
  s.members = deployment_.alive().size();
  s.rekeys = keyed_epochs_.size() <= 1 ? 0 : keyed_epochs_.size() - 1;
  return s;
}

GroupReport GroupHost::finalize(SharedSpreadStats* shared) {
  SGK_CHECK(!finalized_);
  finalized_ = true;
  obs::ScopedMetrics scoped(&metrics_);

  if (forced_ && deployment_.sim().pending() > 0) {
    checker_.flag_timeout(spec_.name + " still active at deadline (last op " +
                          std::to_string(last_op_ms_) + "ms + grace " +
                          std::to_string(spec_.grace_ms) + "ms)");
  }

  const Deployment::Audit audit = deployment_.audit(checker_);
  GroupReport r;
  r.id = spec_.id;
  r.protocol = spec_.protocol;
  r.final_size = audit.final_size;
  r.final_epoch = audit.final_epoch;
  r.fingerprint = audit.fingerprint();
  r.restarts = audit.restarts;
  r.stale_dropped = audit.stale_dropped;
  r.frames_rejected = audit.frames_rejected;
  r.recoveries = audit.recoveries;
  if (r.final_size < 2) checker_.flag_timeout("fewer than two members survived");

  r.converged = checker_.ok() && r.final_size >= 2;
  r.violations = checker_.violations();
  r.rekeys = keyed_epochs_.size() <= 1 ? 0 : keyed_epochs_.size() - 1;
  r.onboard_ms =
      first_key_ms_ < 0.0 ? 0.0 : first_key_ms_ - spec_.onboard_at_ms;
  r.settled_ms = deployment_.sim().now();
  r.event_to_key_ms = event_to_key_ms_;
  r.events_applied = events_applied_;
  if (const RekeyBatcher* b = deployment_.net().batcher())
    r.batch = b->stats(spec_.name);

  metrics_.counter("server/groups_finalized").add();
  if (!r.converged) metrics_.counter("server/groups_failed").add();

  if (shared != nullptr) shared->absorb(deployment_.net());
  return r;
}

void GroupHost::apply(const fault::ChurnOp& op) {
  if (deployment_.apply(op)) ++events_applied_;
  if (obs::MetricsRegistry* mr = obs::metrics())
    mr->counter(std::string("server/op/") + fault::to_string(op.kind)).add();
}

void GroupHost::on_key(SecureGroupMember& member, SimTime t,
                       std::uint64_t epoch) {
  checker_.observe_epoch(member.id(), epoch);
  if (first_key_ms_ < 0.0) first_key_ms_ = t;
  // View install -> key established, the per-install agreement latency.
  const double latency = t - member.view_time();
  event_to_key_ms_.push_back(latency);
  if (obs::MetricsRegistry* mr = obs::metrics())
    mr->histogram("server/event_to_key_ms").observe(latency);
  // Track distinct keyed epochs (mostly ascending; cascades can skip).
  if (keyed_epochs_.empty() || keyed_epochs_.back() < epoch) {
    keyed_epochs_.push_back(epoch);
    // Latency feedback for the rekey pipeline, once per fresh epoch: the
    // first member to key an epoch completes the oldest outstanding flush's
    // event-arrival -> key samples.
    if (RekeyBatcher* b = deployment_.net().batcher())
      b->note_key_installed(spec_.name, t);
  } else if (!std::binary_search(keyed_epochs_.begin(), keyed_epochs_.end(),
                                 epoch)) {
    keyed_epochs_.insert(
        std::lower_bound(keyed_epochs_.begin(), keyed_epochs_.end(), epoch),
        epoch);
  }
}

}  // namespace sgk::server
