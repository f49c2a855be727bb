// Deployment: one simulated Secure Spread deployment — a Simulator, a
// SpreadNetwork of daemons over a testbed topology, a Pki, and the members
// running one key agreement protocol — together with the membership
// operations a churn plan drives against it and the end-state audit.
//
// The chaos harness, each hosted server group and the measurement harness
// build their deployment here and keep only what is their own: the chaos
// harness (harness/chaos.cpp) its fault plan, mutator and deadline; a hosted
// group (server/group_host.cpp) its lazy onboarding, keyed-epoch tracking
// and report; the measurement harness (harness/experiment.cpp) its leave
// policy, counter deltas and tracing.
// Because the population, the churn-op semantics and the convergence probe
// live in one place, the drivers cannot drift apart on them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/invariants.h"
#include "fault/plan.h"
#include "gcs/secure_group.h"
#include "gcs/spread.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/thread_annotations.h"

namespace sgk::server {

class Deployment {
  // Owned by one driver and advanced only by its run's event loop; the Pki
  // it may share with other deployments carries its own lock.
  SGK_CONFINED_TO_RUN;

 public:
  /// Called on every key install of a member: (member, time, epoch).
  using KeyListener =
      std::function<void(SecureGroupMember&, SimTime, std::uint64_t)>;

  /// End-state totals over the live members (see audit()).
  struct Audit {
    std::size_t final_size = 0;
    std::uint64_t final_epoch = 0;  // highest key epoch among the members
    std::uint64_t restarts = 0;
    std::uint64_t stale_dropped = 0;
    std::uint64_t frames_rejected = 0;
    std::uint64_t recoveries = 0;
    /// First live member (in spawn order) that holds a key, or null.
    const SecureGroupMember* first_keyed = nullptr;

    /// That member's loggable key fingerprint ("" when no member holds a
    /// key). Hashed on demand, so an audit that never logs hashes nothing.
    std::string fingerprint() const {
      return first_keyed ? first_keyed->key_fingerprint() : std::string();
    }
  };

  /// Every member is built from `member` (its per-driver protocol, crypto
  /// and recovery settings). `pki` is the directory members enroll in; a
  /// deployment without one gets a private directory.
  Deployment(Topology topology, SpreadParams params, MemberConfig member,
             std::shared_ptr<Pki> pki = nullptr);

  // Members' key listeners capture this object's address.
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  SpreadNetwork& net() { return net_; }
  const SpreadNetwork& net() const { return net_; }

  /// Installed on every member spawned after this call.
  void set_key_listener(KeyListener listener) {
    key_listener_ = std::move(listener);
  }

  /// Creates the next member; member k lands on machine k % machine_count
  /// (the paper's uniform placement over the testbed). It is not joined.
  SecureGroupMember& spawn();

  /// `member` leaves the group gracefully and is destroyed.
  void leave(SecureGroupMember& member);

  /// Live members in spawn order.
  std::vector<SecureGroupMember*> alive() const;

  /// Number of members ever spawned (live or gone): one slot per process id
  /// of this deployment's block, so `slot < spawned()` for every member.
  std::size_t spawned() const { return members_.size(); }

  /// Index of `pid` in this deployment's process-id block.
  std::size_t slot(ProcessId pid) const {
    return static_cast<std::size_t>(pid - net_.first_process_id());
  }

  /// Applies one churn op to whatever population exists now and returns
  /// whether it took effect. A leave or crash is skipped when it would
  /// leave fewer than two members, a partition on a one-machine topology,
  /// and a rekey with nobody to request it. Victims are live[arg % live];
  /// a partition splits the machines at 1 + arg % (machine_count - 1).
  bool apply(const fault::ChurnOp& op);

  /// End-state probe: flags every member still mid-agreement as wedged,
  /// then checks that the live members of each network component share one
  /// key at one epoch. Violations go to `checker`; the totals come back.
  Audit audit(fault::InvariantChecker& checker) const;

 private:
  Simulator sim_;
  SpreadNetwork net_;
  std::shared_ptr<Pki> pki_;
  MemberConfig member_config_;
  KeyListener key_listener_;
  std::vector<std::unique_ptr<SecureGroupMember>> members_;  // slot(pid)
};

}  // namespace sgk::server
