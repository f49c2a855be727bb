// TGDH: tree-based group Diffie-Hellman.
//
// Group key = the key of the root of a binary key tree (see key_tree.h).
// Membership events modify the tree structure; "sponsors" (rightmost members
// of affected subtrees) recompute what they can and broadcast the tree's
// blinded keys until every member can derive the root key:
//
//  * join/merge (2 rounds): each merging side's sponsor refreshes its leaf
//    secret and broadcasts its side's tree; everyone grafts the trees
//    together identically; the sponsor of the merge point computes up to the
//    root and broadcasts the updated blinded keys.
//  * leave/partition (up to h rounds): everyone prunes the departed leaves;
//    the shallowest-rightmost sponsor refreshes its secret; sponsors
//    iteratively compute as far up as possible and broadcast new blinded
//    keys until the root key is known everywhere.
#pragma once

#include <vector>

#include "core/key_agreement.h"
#include "core/key_tree.h"

namespace sgk {

class TgdhProtocol final : public KeyAgreement {
 public:
  explicit TgdhProtocol(ProtocolHost& host, bool eager_balance = false)
      : KeyAgreement(host), eager_balance_(eager_balance) {}

  void handle_view(const View& view, const ViewDelta& delta) override;
  void handle_message(ProcessId sender, ByteView body) override;
  ProtocolKind kind() const override {
    return eager_balance_ ? ProtocolKind::kTgdhBalanced : ProtocolKind::kTgdh;
  }

  const KeyTree& tree() const { return tree_; }

  enum MsgType : std::uint8_t { kAnnounce = 1, kUpdate = 2 };

  /// Fully decoded + validated wire message.
  struct Wire {
    std::uint8_t type = 0;
    KeyTree tree;
  };

  /// The only entrypoint that touches raw TGDH wire bytes: structural decode
  /// (strict tags, tree shape/depth/node caps, unique members) plus semantic
  /// validation (every blinded key in [2, p-2]). Never throws; a hostile
  /// body comes back as a typed rejection.
  static Decoded<Wire> validate_and_decode(ByteView body, const BigInt& p);

 private:

  void reset_to_singleton();
  void refresh_my_leaf();
  void start_merge(const ViewDelta& delta);
  void start_subtractive(const ViewDelta& delta);
  void broadcast_tree(MsgType type);
  void try_fold();
  /// Compute what I can, broadcast if I am a responsible sponsor, deliver
  /// the root key when known.
  void iterate();
  void compute_up();
  /// Invalidates the blinded keys on `sponsor`'s leaf-to-root path (the
  /// sponsor is about to refresh its secret; stale values must not be used).
  void invalidate_sponsor_path(ProcessId sponsor);

  View view_;
  KeyTree tree_;
  bool eager_balance_ = false;
  bool delivered_ = false;

  // Merge collection state.
  bool collecting_ = false;
  bool own_side_announced_ = false;
  std::vector<KeyTree> announced_;
  std::vector<ProcessId> covered_;

  // Broadcasts sent but not yet delivered back through the agreed stream.
  // All tree-state transitions (published flags, fold readiness) happen at
  // self-delivery, never at send time: a broadcast stamped after the next
  // membership view dies at every member — including the sender — so every
  // member's tree evolves through the identical message prefix. Acting at
  // send time is exactly the asymmetry that wedged cascaded merges.
  int unconfirmed_bcasts_ = 0;
};

}  // namespace sgk
