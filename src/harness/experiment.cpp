#include "harness/experiment.h"

#include <algorithm>
#include <string>

#include "fault/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wallclock.h"
#include "util/check.h"

namespace sgk {

namespace {

MemberConfig experiment_member(const ExperimentConfig& config) {
  MemberConfig cfg;
  cfg.protocol = config.protocol;
  cfg.dh_bits = config.dh_bits;
  cfg.cost = config.cost;
  cfg.seed = config.seed;
  cfg.key_confirmation = config.key_confirmation;
  cfg.signature = config.signature;
  return cfg;
}

}  // namespace

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)),
      deployment_(config_.topology, SpreadParams{},
                  experiment_member(config_)),
      rng_(config_.seed, "experiment") {
  // Each Experiment has its own Simulator starting at virtual 0; re-base the
  // tracer so sequential experiments lay out sequentially on the timeline.
  SGK_TRACE(tr->use_clock());
}

Experiment::~Experiment() = default;

void Experiment::grow_to(std::size_t n) {
  while (group_size() < n) {
    deployment_.spawn().join();
    deployment_.sim().run();
  }
}

std::size_t Experiment::group_size() const {
  return deployment_.alive().size();
}

const std::vector<SecureGroupMember*> Experiment::members() const {
  return deployment_.alive();
}

OpCounters Experiment::sum_counters() const {
  OpCounters total;
  for (const SecureGroupMember* m : deployment_.alive()) total += m->counters();
  return total;
}

OpCounters Experiment::snapshot_counters() {
  // One spare slot for the member a join event spawns.
  last_counters_.assign(deployment_.spawned() + 1, OpCounters{});
  for (const SecureGroupMember* m : deployment_.alive())
    last_counters_.at(deployment_.slot(m->id())) = m->counters();
  return sum_counters();
}

void Experiment::check_agreement() const {
  fault::InvariantChecker checker;
  deployment_.audit(checker);
  if (!checker.ok())
    throw CheckFailure("key agreement check failed: " +
                       checker.violations().front());
}

void Experiment::begin_event(const char* event_name, double t0) {
  // The first phase covers the GCS membership protocol: it runs from the
  // event until a protocol handler marks its first phase.
  SGK_TRACE(tr->begin_event(event_name, t0); tr->phase("membership", t0));
  if (obs::wall_profiler() != nullptr) wall_t0_ = obs::wall_now_ns();
}

void Experiment::record_event(const char* event_name, const EventResult& r,
                              double keyed) {
  SGK_TRACE(
      tr->event_attr("protocol", obs::Json(to_string(config_.protocol)));
      tr->event_attr("n", obs::Json(static_cast<std::uint64_t>(r.group_size)));
      tr->end_event(keyed));
  if (obs::WallProfiler* wp = obs::wall_profiler()) {
    // Real host time the whole event took to simulate and key — the wall
    // counterpart of the virtual r.elapsed_ms recorded below.
    const std::string site = std::string("event/") +
                             to_string(config_.protocol) + "/" + event_name;
    wp->record(site, wall_t0_, obs::wall_now_ns());
  }
  if (obs::MetricsRegistry* mr = obs::metrics()) {
    const std::string path =
        std::string(to_string(config_.protocol)) + "/" + event_name;
    mr->counter("events/" + path).add();
    mr->histogram("event_ms/" + path).observe(r.elapsed_ms);
    mr->histogram("event_bytes/" + path)
        .observe(static_cast<double>(r.total.bytes_sent));
    mr->histogram("event_msgs/" + path)
        .observe(static_cast<double>(r.total.messages()));
    // Rounds-to-key proxy: the heaviest member's sent-message count (each
    // protocol round has a member send at most one message).
    mr->histogram("event_rounds/" + path)
        .observe(static_cast<double>(r.max_member.messages()));
  }
}

EventResult Experiment::finish_event(const char* event_name, double t0,
                                     OpCounters before_total) {
  deployment_.sim().run();
  check_agreement();
  EventResult r;
  r.group_size = group_size();
  double membership = t0;
  double keyed = t0;
  for (SecureGroupMember* m : members()) {
    SGK_CHECK(m->key_time() >= t0);
    keyed = std::max(keyed, m->key_time());
    OpCounters delta =
        m->counters() - last_counters_.at(deployment_.slot(m->id()));
    if (delta.exp_total() + delta.sign_ops + delta.verify_ops >
        r.max_member.exp_total() + r.max_member.sign_ops + r.max_member.verify_ops)
      r.max_member = delta;
    membership = std::max(membership, m->view_time());
  }
  r.elapsed_ms = keyed - t0;
  r.membership_ms = membership - t0;
  r.total = sum_counters() - before_total;
  record_event(event_name, r, keyed);
  return r;
}

EventResult Experiment::measure_join() {
  const OpCounters before = snapshot_counters();
  const double t0 = deployment_.sim().now();
  begin_event("join", t0);
  deployment_.spawn().join();
  return finish_event("join", t0, before);
}

EventResult Experiment::measure_leave(LeavePolicy policy) {
  auto live = members();
  SGK_CHECK(live.size() >= 2);
  std::size_t pick = 0;
  switch (policy) {
    case LeavePolicy::kRandom:
      pick = static_cast<std::size_t>(rng_.next_u64(live.size()));
      break;
    case LeavePolicy::kMiddle:
      pick = live.size() / 2;
      break;
    case LeavePolicy::kOldest:
      pick = 0;
      break;
    case LeavePolicy::kNewest:
      pick = live.size() - 1;
      break;
  }
  SecureGroupMember* leaver = live.at(pick);

  OpCounters before = snapshot_counters();
  before = before - leaver->counters();  // leaver's past ops drop out of the sum

  const double t0 = deployment_.sim().now();
  begin_event("leave", t0);
  deployment_.leave(*leaver);
  return finish_event("leave", t0, before);
}

EventResult Experiment::measure_multi_leave(std::size_t count) {
  auto live = members();
  SGK_CHECK(live.size() > count);
  OpCounters before = snapshot_counters();

  const double t0 = deployment_.sim().now();
  begin_event("multi_leave", t0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = static_cast<std::size_t>(rng_.next_u64(live.size()));
    SecureGroupMember* leaver = live.at(pick);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    before = before - leaver->counters();
    deployment_.leave(*leaver);
  }
  return finish_event("multi_leave", t0, before);
}

EventResult Experiment::measure_partition(
    const std::vector<std::vector<MachineId>>& parts) {
  const OpCounters before = snapshot_counters();
  const double t0 = deployment_.sim().now();
  begin_event("partition", t0);
  deployment_.net().partition(parts);
  deployment_.sim().run();
  // Component-aware: each side of the split must agree within itself.
  check_agreement();
  EventResult r;
  r.group_size = group_size();
  double keyed = t0;
  for (SecureGroupMember* m : members()) keyed = std::max(keyed, m->key_time());
  r.elapsed_ms = keyed - t0;
  r.total = sum_counters() - before;
  record_event("partition", r, keyed);
  return r;
}

EventResult Experiment::measure_merge() {
  const OpCounters before = snapshot_counters();
  const double t0 = deployment_.sim().now();
  begin_event("merge", t0);
  deployment_.net().heal();
  return finish_event("merge", t0, before);
}

}  // namespace sgk
