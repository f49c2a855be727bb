#include "server/deployment.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace sgk::server {

Deployment::Deployment(Topology topology, SpreadParams params,
                       MemberConfig member, std::shared_ptr<Pki> pki)
    : net_(sim_, std::move(topology), std::move(params)),
      pki_(pki ? std::move(pki) : std::make_shared<Pki>()),
      member_config_(std::move(member)) {}

SecureGroupMember& Deployment::spawn() {
  const auto machine = static_cast<MachineId>(
      members_.size() % net_.topology().machine_count());
  const ProcessId pid = net_.create_process(machine);
  SGK_CHECK(slot(pid) == members_.size());
  auto member =
      std::make_unique<SecureGroupMember>(net_, pid, pki_, member_config_);
  if (key_listener_) {
    SecureGroupMember* mp = member.get();
    member->set_key_listener([this, mp](SimTime t, std::uint64_t epoch) {
      key_listener_(*mp, t, epoch);
    });
  }
  members_.push_back(std::move(member));
  return *members_.back();
}

void Deployment::leave(SecureGroupMember& member) {
  member.leave();
  members_.at(slot(member.id())).reset();
}

std::vector<SecureGroupMember*> Deployment::alive() const {
  std::vector<SecureGroupMember*> out;
  for (const auto& m : members_)
    if (m) out.push_back(m.get());
  return out;
}

bool Deployment::apply(const fault::ChurnOp& op) {
  switch (op.kind) {
    case fault::ChurnKind::kJoin:
      spawn().join();
      return true;
    case fault::ChurnKind::kLeave:
    case fault::ChurnKind::kCrash: {
      const auto live = alive();
      if (live.size() <= 2) return false;  // keep a group worth agreeing over
      SecureGroupMember* victim = live[op.arg % live.size()];
      if (op.kind == fault::ChurnKind::kLeave) {
        leave(*victim);
      } else {
        // Abrupt daemon-crash model: no leave message, the membership
        // protocol discovers the absence.
        net_.disconnect(victim->id());
        members_.at(slot(victim->id())).reset();
      }
      return true;
    }
    case fault::ChurnKind::kPartition: {
      const auto mc =
          static_cast<std::uint64_t>(net_.topology().machine_count());
      if (mc < 2) return false;
      const auto split = static_cast<MachineId>(1 + op.arg % (mc - 1));
      std::vector<MachineId> a, b;
      for (MachineId m = 0; m < static_cast<MachineId>(mc); ++m)
        (m < split ? a : b).push_back(m);
      net_.partition({a, b});
      return true;
    }
    case fault::ChurnKind::kHeal:
      net_.heal();
      return true;
    case fault::ChurnKind::kRekey: {
      const auto live = alive();
      if (live.empty()) return false;
      live[op.arg % live.size()]->request_rekey();
      return true;
    }
  }
  return false;
}

void Deployment::schedule(const std::vector<fault::ChurnOp>& ops,
                          OpListener listener) {
  for (const fault::ChurnOp& op : ops)
    sim_.at(op.at_ms, [this, op, listener] { listener(op, apply(op)); });
}

Deployment::Audit Deployment::audit(fault::InvariantChecker& checker) const {
  Audit a;
  std::vector<fault::KeyProbe> probes;
  for (const SecureGroupMember* m : alive()) {
    ++a.final_size;
    fault::KeyProbe p;
    p.member = m->id();
    p.component = net_.component_of_machine(net_.machine_of(m->id()));
    p.has_key = m->has_key();
    p.epoch = m->key_epoch();
    p.key = m->has_key() ? &m->key() : nullptr;
    probes.push_back(p);
    checker.check_no_wedge(m->id(), m->agreement_in_flight());
    a.restarts += m->agreement_restarts();
    a.stale_dropped += m->stale_dropped();
    a.frames_rejected += m->frames_rejected();
    a.recoveries += m->recoveries();
    a.final_epoch = std::max(a.final_epoch, m->key_epoch());
    if (a.first_keyed == nullptr && m->has_key()) a.first_keyed = m;
  }
  checker.check_convergence(probes);
  return a;
}

}  // namespace sgk::server
