#include "server/group_host.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace sgk::server {

fault::FaultPlan build_group_plan(const GroupSpec& spec) {
  fault::FaultPlan plan(spec.seed, spec.rates);
  // Churn starts kChurnStartMs after onboarding so the first op routinely
  // lands inside an in-flight agreement — the cascaded regime, per group.
  const double start = spec.onboard_at_ms + fault::kChurnStartMs;
  switch (spec.storm) {
    case StormKind::kUniform:
      plan.randomize(spec.churn_events, start);
      break;
    case StormKind::kBursty:
      // churn_events stays the total event budget across storm shapes, so
      // the batched/unbatched comparison holds workload size constant.
      plan.bursty_storm(spec.churn_events / spec.burst_size, spec.burst_size,
                        start);
      break;
  }
  return plan;
}

double group_deadline_ms(const GroupSpec& spec) {
  const fault::FaultPlan plan = build_group_plan(spec);
  const auto& ops = plan.ops();
  const double last_op = ops.empty() ? spec.onboard_at_ms : ops.back().at_ms;
  return std::max(last_op, spec.onboard_at_ms) + fault::kChurnGraceMs;
}

namespace {

/// Per-member recovery watchdog (gcs/secure_group.h): a member whose
/// agreement outlives this window requests a quarantine rekey instead of
/// wedging forever. A long-lived server arms it — at thousands of groups,
/// rare per-group liveness corners become routine events.
constexpr double kRecoveryWatchdogMs = 5000.0;

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
  cfg.recovery_watchdog_ms = kRecoveryWatchdogMs;
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
  deadline_ms_ =
      std::max(last_op_ms_, spec_.onboard_at_ms) + fault::kChurnGraceMs;

  // Schedule everything up front on this group's private simulator:
  // onboarding at the scheduled time, then the churn plan (absolute virtual
  // times).
  deployment_.sim().at(spec_.onboard_at_ms, [this] {
    for (std::size_t i = 0; i < spec_.initial_size; ++i)
      deployment_.spawn().join();
  });
  deployment_.schedule(ops, [this](const fault::ChurnOp& op, bool applied) {
    if (applied) ++events_applied_;
    if (obs::MetricsRegistry* mr = obs::metrics())
      mr->counter(std::string("server/op/") + fault::to_string(op.kind)).add();
  });
}

void GroupHost::advance(SimTime until) {
  if (done()) return;
  // Every metric recorded while this group's events run lands in the
  // group's own registry, so worker threads never share a sink.
  obs::ScopedMetrics scoped(&metrics_);
  deployment_.sim().run_until(until);
}

GroupReport GroupHost::finalize() {
  SGK_CHECK(!finalized_);
  finalized_ = true;
  obs::ScopedMetrics scoped(&metrics_);

  if (forced_ && deployment_.sim().pending() > 0) {
    checker_.flag_timeout(spec_.name + " still active at deadline (last op " +
                          std::to_string(last_op_ms_) + "ms + grace " +
                          std::to_string(fault::kChurnGraceMs) + "ms)");
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
  r.messages_stamped = deployment_.net().messages_stamped();
  r.processes = deployment_.net().process_count();
  if (const RekeyBatcher* b = deployment_.net().batcher())
    r.batch = b->stats(spec_.name);

  metrics_.counter("server/groups_finalized").add();
  if (!r.converged) metrics_.counter("server/groups_failed").add();
  return r;
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
