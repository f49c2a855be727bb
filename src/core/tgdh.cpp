#include "core/tgdh.h"

#include <algorithm>

#include "obs/wallclock.h"
#include "util/check.h"

namespace sgk {

namespace {
std::vector<ProcessId> sorted_copy(std::vector<ProcessId> v) {
  std::sort(v.begin(), v.end());
  return v;
}
}  // namespace

void TgdhProtocol::reset_to_singleton() {
  tree_ = KeyTree::leaf(self());
  refresh_my_leaf();
}

void TgdhProtocol::refresh_my_leaf() {
  const int leaf = tree_.find_leaf(self());
  SGK_CHECK(leaf != -1);
  TreeNode& n = tree_.node(leaf);
  n.key = crypto().random_exponent();
  n.has_key = true;
  n.bkey = crypto().exp_g(n.key);
  n.has_bkey = true;
  n.bkey_published = false;
}

void TgdhProtocol::invalidate_sponsor_path(ProcessId sponsor) {
  const int leaf = tree_.find_leaf(sponsor);
  if (leaf == -1) return;
  // The sponsor will refresh its secret: its blinded key and every key /
  // blinded key above it are stale.
  for (int cur = leaf; cur != -1; cur = tree_.node(cur).parent) {
    TreeNode& n = tree_.node(cur);
    if (cur != leaf || sponsor != self()) {
      if (cur == leaf) {
        n.has_bkey = false;
        n.bkey_published = false;
      } else {
        n.has_key = false;
        n.has_bkey = false;
        n.bkey_published = false;
      }
    } else if (cur == leaf) {
      continue;  // my own leaf: refresh_my_leaf replaces it
    }
  }
}

void TgdhProtocol::handle_view(const View& view, const ViewDelta& delta) {
  view_ = view;
  delivered_ = false;
  collecting_ = false;
  announced_.clear();
  covered_.clear();
  unconfirmed_bcasts_ = 0;  // broadcasts of the aborted instance are dead
  // Blinded keys broadcast by an instance this view just aborted were
  // discarded as stale at the receivers; be willing to re-announce them.
  if (restarting()) tree_.mark_bkeys_unpublished();

  if (view.members.size() == 1) {
    reset_to_singleton();
    const TreeNode& root = tree_.node(tree_.root());
    host_.deliver_key(root.key);
    delivered_ = true;
    return;
  }

  // Prune anything not in the new view from my tree.
  if (!tree_.empty()) {
    std::vector<ProcessId> departed;
    for (ProcessId p : tree_.members())
      if (!view.contains(p)) departed.push_back(p);
    std::sort(departed.begin(), departed.end());
    if (!departed.empty() && delta.sides.size() == 1) {
      // Pure subtractive event: remember sponsor candidates.
      start_subtractive(delta);
      return;
    }
    tree_.remove_members(departed);
  }

  start_merge(delta);
}

void TgdhProtocol::start_subtractive(const ViewDelta& delta) {
  mark_phase("tree_update");
  std::vector<ProcessId> departed = delta.left;
  std::sort(departed.begin(), departed.end());
  const std::vector<int> candidates = tree_.remove_members(departed);

  // Consistency check: the pruned tree must hold exactly the view members.
  if (tree_.empty() || sorted_copy(tree_.members()) != view_.members) {
    reset_to_singleton();
    start_merge(ViewDelta{});  // everyone re-announces from singletons
    return;
  }

  // Eager balancing variant: if the pruned tree is taller than necessary,
  // rebuild it height-minimal. Every internal node becomes invalid, so the
  // re-key takes more rounds of blinded-key broadcasts — the higher leave
  // communication cost the paper's footnote 7 attributes to AVL-style
  // management — in exchange for minimal path lengths afterwards.
  if (eager_balance_) {
    int minimal = 0;
    while ((std::size_t{1} << minimal) < view_.members.size()) ++minimal;
    if (tree_.height(tree_.root()) > minimal) {
      tree_.rebuild_balanced();
      const ProcessId sponsor = tree_.rightmost_member(tree_.root());
      invalidate_sponsor_path(sponsor);
      if (sponsor == self()) refresh_my_leaf();
      iterate();
      return;
    }
  }

  // Sponsor selection (paper 4.3): the rightmost member of the sibling
  // subtree of the shallowest, rightmost departed leaf refreshes its share.
  int best = -1;
  int best_depth = 0;
  std::size_t best_pos = 0;
  const std::vector<ProcessId> order = tree_.members();
  for (int cand : candidates) {
    const ProcessId m = tree_.rightmost_member(cand);
    const int leaf = tree_.find_leaf(m);
    const int d = tree_.depth(leaf);
    const std::size_t pos = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), m) - order.begin());
    if (best == -1 || d < best_depth || (d == best_depth && pos > best_pos)) {
      best = cand;
      best_depth = d;
      best_pos = pos;
    }
  }
  SGK_CHECK(best != -1);
  const ProcessId sponsor = tree_.rightmost_member(best);
  invalidate_sponsor_path(sponsor);
  if (sponsor == self()) refresh_my_leaf();
  iterate();
}

void TgdhProtocol::start_merge(const ViewDelta& delta) {
  mark_phase("tree_update");
  // Determine my side; if my tree does not match it (cascade or fresh join),
  // fall back to a singleton announcement, which is always safe.
  const std::vector<ProcessId>* my_side = delta.side_of(self());
  if (tree_.empty() || my_side == nullptr ||
      sorted_copy(tree_.members()) != *my_side) {
    reset_to_singleton();
  }

  collecting_ = true;
  covered_ = tree_.members();
  std::sort(covered_.begin(), covered_.end());

  const ProcessId sponsor1 = tree_.rightmost_member(tree_.root());
  // Even the sponsor waits for its own announcement to come back through
  // the agreed stream before treating its side as announced: if the send is
  // stamped after the next membership change it is discarded everywhere,
  // and a sponsor that folded on a send nobody received would diverge.
  own_side_announced_ = false;
  invalidate_sponsor_path(sponsor1);
  if (sponsor1 == self()) {
    refresh_my_leaf();
    compute_up();
    // The announced tree's root becomes an interior node after grafting, so
    // (unlike the root of the final merged tree) its blinded key is needed.
    TreeNode& root = tree_.node(tree_.root());
    if (root.has_key && !root.has_bkey) {
      root.bkey = crypto().exp_g(crypto().to_exponent(root.key));
      root.has_bkey = true;
      root.bkey_published = false;
    }
    broadcast_tree(kAnnounce);
  }
}

void TgdhProtocol::broadcast_tree(MsgType type) {
  Writer w;
  w.u8(type);
  tree_.serialize(w);
  host_.send_multicast(w.take());
  // Published flags are set when the broadcast is delivered back (self
  // messages loop through the agreed stream), not here; the counter keeps
  // iterate() from re-sending while a broadcast is in flight.
  ++unconfirmed_bcasts_;
}

void TgdhProtocol::try_fold() {
  if (!collecting_ || !own_side_announced_) return;
  if (covered_ != view_.members) return;

  // All sides announced: graft the trees together. Fold order is
  // deterministic: host = taller tree, then more leaves, then smaller
  // minimum member id.
  std::vector<KeyTree*> trees;
  trees.push_back(&tree_);
  for (KeyTree& t : announced_) trees.push_back(&t);
  auto rank = [](const KeyTree& t) {
    const std::vector<ProcessId> m = t.members();
    const ProcessId min_id = *std::min_element(m.begin(), m.end());
    return std::tuple<int, std::size_t, ProcessId>(
        -t.height(t.root()), m.size() ? m.size() : 0, min_id);
  };
  std::sort(trees.begin(), trees.end(), [&](KeyTree* a, KeyTree* b) {
    auto [ha, sa, ia] = rank(*a);
    auto [hb, sb, ib] = rank(*b);
    if (ha != hb) return ha < hb;           // taller first
    if (sa != sb) return sa > sb;           // more leaves first
    return ia < ib;                          // smaller min id first
  });

  KeyTree merged = *trees.front();
  int merge_point = merged.root();
  for (std::size_t i = 1; i < trees.size(); ++i)
    merge_point = merged.merge(*trees[i]);
  tree_ = std::move(merged);
  collecting_ = false;
  announced_.clear();

  // Round 2 (Figure 4): the sponsor of the (last) merge point computes the
  // keys and blinded keys up to the root and broadcasts the updated tree —
  // even when the graft landed at the root and members could technically
  // proceed from the announcements alone; the broadcast is the protocol's
  // key-confirmation step.
  if (trees.size() > 1 && tree_.rightmost_member(merge_point) == self()) {
    compute_up();
    broadcast_tree(kUpdate);
  }
  iterate();
}

void TgdhProtocol::compute_up() {
  const int leaf = tree_.find_leaf(self());
  SGK_CHECK(leaf != -1);
  int child = leaf;
  for (int cur = tree_.node(leaf).parent; cur != -1;
       cur = tree_.node(cur).parent) {
    TreeNode& node = tree_.node(cur);
    if (!node.has_key) {
      const TreeNode& child_node = tree_.node(child);
      const int sib = tree_.sibling(child);
      const TreeNode& sib_node = tree_.node(sib);
      if (!child_node.has_key || !sib_node.has_bkey) break;  // blocked
      node.key = crypto().exp(sib_node.bkey, crypto().to_exponent(child_node.key));
      node.has_key = true;
      if (!node.has_bkey && cur != tree_.root()) {
        node.bkey = crypto().exp_g(crypto().to_exponent(node.key));
        node.has_bkey = true;
        node.bkey_published = false;
      } else if (node.has_bkey && host_.key_confirmation()) {
        // Key confirmation (paper section 5): re-derive the published
        // blinded key and check it against the broadcast value. Compared in
        // constant time — the check value is derived from the node secret.
        BigInt check = crypto().exp_g(crypto().to_exponent(node.key));
        SGK_CHECK(ct_equal(check.to_bytes(), node.bkey.to_bytes()));
        mark_point("key_confirmation");
      }
    }
    child = cur;
  }
}

void TgdhProtocol::iterate() {
  compute_up();

  // Broadcast if I am the rightmost member of some subtree whose freshly
  // computed blinded key is not yet published.
  const int leaf = tree_.find_leaf(self());
  bool should_broadcast = false;
  for (int cur = leaf; cur != -1; cur = tree_.node(cur).parent) {
    const TreeNode& n = tree_.node(cur);
    if (n.has_bkey && !n.bkey_published && tree_.rightmost_member(cur) == self()) {
      should_broadcast = true;
      break;
    }
  }
  // At most one broadcast in flight: the pending one returns through the
  // stream and re-runs iterate(), which then covers anything still unsent.
  if (should_broadcast && unconfirmed_bcasts_ == 0) broadcast_tree(kUpdate);

  const TreeNode& root = tree_.node(tree_.root());
  if (root.has_key && !delivered_) {
    host_.deliver_key(root.key);
    delivered_ = true;
  }
}

Decoded<TgdhProtocol::Wire> TgdhProtocol::validate_and_decode(
    ByteView body, const BigInt& p) {
  using D = Decoded<Wire>;
  Wire m;
  try {
    Reader r(body);
    m.type = r.u8();
    if (m.type != kAnnounce && m.type != kUpdate)
      return D::rejected(RejectReason::kBadTag);
    m.tree = KeyTree::deserialize(r);
    if (!r.done()) return D::rejected(RejectReason::kTrailingBytes);
  } catch (const TreeShapeError&) {
    return D::rejected(RejectReason::kBadShape);
  } catch (const LengthError&) {
    return D::rejected(RejectReason::kBadLength);
  } catch (const DecodeError&) {
    return D::rejected(RejectReason::kTruncated);
  }
  if (!m.tree.bkeys_in_range(p)) return D::rejected(RejectReason::kBignumRange);
  return D::accepted(std::move(m));
}

void TgdhProtocol::handle_message(ProcessId sender, ByteView body) {
  std::shared_ptr<const Decoded<Wire>> d;
  {
    obs::WallScope wall("decode/TGDH");
    d = decode(body, &validate_and_decode);
  }
  if (!d->ok()) {
    reject(d->reason);
    return;
  }
  // Shared with the frame's other receivers: read it, copy what is kept.
  const Wire& m = d->value;
  // My own broadcasts loop back through the agreed stream and are processed
  // like anyone else's: that self-delivery — not the send — is what marks
  // blinded keys published and the side announced, so a broadcast stamped
  // after the next view change has no effect anywhere, sender included.
  if (sender == self() && unconfirmed_bcasts_ > 0) --unconfirmed_bcasts_;
  if (m.type == kAnnounce) {
    mark_phase("tree_update");
    const KeyTree& announced = m.tree;
    if (!collecting_) {
      // Post-fold (or refresh) announcement: absorb if it matches my tree.
      if (announced.same_structure(tree_)) {
        tree_.absorb_bkeys(announced);
        iterate();
      }
      return;
    }
    // During collection: absorb my own side's announcement, stash others.
    if (announced.same_structure(tree_)) {
      tree_.absorb_bkeys(announced);
      own_side_announced_ = true;
    } else if (sender != self()) {
      for (ProcessId p : announced.members()) {
        auto it = std::lower_bound(covered_.begin(), covered_.end(), p);
        if (it == covered_.end() || *it != p) covered_.insert(it, p);
      }
      announced_.push_back(announced);
    }
    try_fold();
    return;
  }
  if (m.type == kUpdate) {
    mark_phase("tree_update");
    const KeyTree& update = m.tree;
    if (!update.same_structure(tree_)) return;  // stale or foreign
    tree_.absorb_bkeys(update);
    iterate();
    return;
  }
}

}  // namespace sgk
