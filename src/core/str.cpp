#include "core/str.h"

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

void StrProtocol::reset_to_singleton() {
  members_ = {self()};
  br_.clear();
  bk_.clear();
  keys_.clear();
  refresh_random();
}

std::size_t StrProtocol::index_of(ProcessId p) const {
  auto it = std::find(members_.begin(), members_.end(), p);
  SGK_CHECK(it != members_.end());
  return static_cast<std::size_t>(it - members_.begin());
}

void StrProtocol::refresh_random() {
  r_ = crypto().random_exponent();
  br_[self()] = crypto().exp_g(r_);
  keys_.erase(self());
  if (!members_.empty() && members_.front() == self()) {
    bk_[self()] = br_[self()];
    keys_[self()] = r_;
  } else {
    bk_.erase(self());
  }
}

void StrProtocol::compute_chain(bool as_sponsor) {
  if (members_.empty()) return;
  const std::size_t idx = index_of(self());
  for (std::size_t j = idx; j < members_.size(); ++j) {
    const ProcessId m = members_[j];
    bool computed_here = false;
    if (keys_.count(m) == 0) {
      computed_here = true;
      if (j == 0) {
        keys_[m] = r_;  // bottom node: k_1 = r_1
      } else if (j == idx) {
        // My own node: k_j = bk_{j-1} ^ r_j.
        auto below = bk_.find(members_[j - 1]);
        if (below == bk_.end()) return;  // blocked
        keys_[m] = crypto().exp(below->second, r_);
      } else {
        // Chain node above me: k_j = br_j ^ k_{j-1}.
        auto prev = keys_.find(members_[j - 1]);
        auto brj = br_.find(m);
        if (prev == keys_.end() || brj == br_.end()) return;  // blocked
        keys_[m] = crypto().exp(brj->second, crypto().to_exponent(prev->second));
      }
    }
    if (as_sponsor && j + 1 < members_.size() && bk_.count(m) == 0) {
      if (j == 0) {
        auto brm = br_.find(m);
        if (brm == br_.end()) return;  // blocked: bottom blinded random lost
        bk_[m] = brm->second;
      } else {
        bk_[m] = crypto().exp_g(crypto().to_exponent(keys_.at(m)));
      }
    } else if (!as_sponsor && j > 0 && j + 1 < members_.size() &&
               bk_.count(m) != 0 && computed_here && host_.key_confirmation()) {
      // Key confirmation: re-derive the sponsor's blinded key. Compared in
      // constant time — the check value is derived from secret chain keys.
      BigInt check = crypto().exp_g(crypto().to_exponent(keys_.at(m)));
      SGK_CHECK(ct_equal(check.to_bytes(), bk_.at(m).to_bytes()));
      mark_point("key_confirmation");
    }
  }
}

void StrProtocol::deliver_if_complete() {
  if (delivered_ || members_.empty()) return;
  auto it = keys_.find(members_.back());
  if (it == keys_.end()) return;
  host_.deliver_key(it->second);
  delivered_ = true;
}

void StrProtocol::broadcast(MsgType type) {
  Writer w;
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(members_.size()));
  for (ProcessId m : members_) {
    w.u32(m);
    // Both maps may have holes after a cascade (a value erased while the
    // broadcast that would have replaced it died with a view change), so
    // every entry is optional; holes are filled by repair re-broadcasts.
    auto br = br_.find(m);
    if (br != br_.end()) {
      w.u8(1);
      put_bigint(w, br->second);
    } else {
      w.u8(0);
    }
    auto bk = bk_.find(m);
    if (bk != bk_.end()) {
      w.u8(1);
      put_bigint(w, bk->second);
    } else {
      w.u8(0);
    }
  }
  host_.send_multicast(w.take());
  ++unconfirmed_bcasts_;
}

void StrProtocol::handle_view(const View& view, const ViewDelta& delta) {
  view_ = view;
  delivered_ = false;
  collecting_ = false;
  announced_.clear();
  covered_.clear();
  chain_sponsor_ = kNoProcess;
  rebroadcast_pending_ = false;
  // A non-zero counter means my last broadcast was stamped after this view
  // and stale-dropped at every member: values only I hold (my own blinded
  // session random) never reached the group and must be re-sent.
  const bool lost_broadcast = unconfirmed_bcasts_ > 0;
  unconfirmed_bcasts_ = 0;

  if (view.members.size() == 1) {
    reset_to_singleton();
    deliver_if_complete();
    return;
  }

  const bool subtractive =
      delta.sides.size() == 1 && !delta.left.empty() && !delta.first_view;
  if (subtractive) {
    start_subtractive(delta);
  } else {
    start_merge(delta);
  }

  // Repair: unless this view's dispatch already put a fresh broadcast of
  // mine in flight, re-send my current state so the holes only I can fill
  // are closed. Post-erase state is uniform across members, so receivers
  // adopting it cannot be poisoned by stale values.
  if (lost_broadcast && unconfirmed_bcasts_ == 0)
    broadcast(collecting_ ? kAnnounce : kUpdate);
}

void StrProtocol::start_subtractive(const ViewDelta& delta) {
  mark_phase("tree_update");
  std::vector<ProcessId> departed = delta.left;
  std::sort(departed.begin(), departed.end());

  // Position (in the old chain) of the lowest departed member.
  bool found_departed = false;
  std::size_t lowest = 0;
  for (std::size_t j = 0; j < members_.size(); ++j)
    if (std::binary_search(departed.begin(), departed.end(), members_[j])) {
      lowest = j;
      found_departed = true;
      break;
    }

  // Prune.
  std::erase_if(members_, [&](ProcessId p) {
    return std::binary_search(departed.begin(), departed.end(), p);
  });
  for (ProcessId p : departed) {
    br_.erase(p);
    bk_.erase(p);
    keys_.erase(p);
  }

  if (sorted_copy(members_) != view_.members || !found_departed) {
    // Cascade fallback: no consistent chain state; rebuild from singletons.
    reset_to_singleton();
    start_merge(ViewDelta{});
    return;
  }

  // Sponsor: the member immediately below the lowest departed position, or
  // the new bottom member when the bottom itself departed.
  const std::size_t sponsor_pos = lowest == 0 ? 0 : lowest - 1;
  const ProcessId sponsor = members_.at(sponsor_pos);
  chain_sponsor_ = sponsor;

  // Everything from the sponsor's node upward will be refreshed; stale
  // values must not be used by anyone.
  for (std::size_t j = sponsor_pos; j < members_.size(); ++j) {
    keys_.erase(members_[j]);
    bk_.erase(members_[j]);
  }
  br_.erase(sponsor);

  if (sponsor == self()) {
    refresh_random();
    compute_chain(/*as_sponsor=*/true);
    broadcast(kUpdate);
  } else {
    compute_chain(false);
  }
  deliver_if_complete();
}

void StrProtocol::start_merge(const ViewDelta& delta) {
  mark_phase("tree_update");
  // Prune members that disappeared (mixed events).
  if (!members_.empty()) {
    std::vector<ProcessId> departed;
    for (ProcessId p : members_)
      if (!view_.contains(p)) departed.push_back(p);
    std::erase_if(members_, [&](ProcessId p) {
      return std::find(departed.begin(), departed.end(), p) != departed.end();
    });
    for (ProcessId p : departed) {
      br_.erase(p);
      bk_.erase(p);
      keys_.erase(p);
    }
  }

  const std::vector<ProcessId>* my_side = delta.side_of(self());
  if (members_.empty() || my_side == nullptr ||
      sorted_copy(members_) != *my_side) {
    reset_to_singleton();
  }

  collecting_ = true;
  // covered_ stays empty until sponsor announcements are DELIVERED — my own
  // side's included (it self-delivers). Counting my own side as covered at
  // send time would let different sides fold at different points in the
  // agreed stream, and their merged chains would disagree.

  const ProcessId sponsor1 = members_.back();
  if (sponsor1 == self()) {
    refresh_random();
    compute_chain(/*as_sponsor=*/true);
    broadcast(kAnnounce);
  } else {
    // The side sponsor is about to refresh: its values are stale until its
    // announcement arrives.
    br_.erase(sponsor1);
    bk_.erase(sponsor1);
    keys_.erase(sponsor1);
  }
  try_fold();
}

void StrProtocol::try_fold() {
  if (!collecting_ || covered_ != view_.members) return;

  // Deterministic stacking: the largest side (ties: smallest min id) stays
  // at the bottom; the rest stack on top in the same order.
  std::vector<SideInfo> sides;
  // Only entries for my own side's members: the full maps can hold stale
  // values for other sides' members, which would shadow the fresh ones from
  // their announcements differently at different members.
  SideInfo local;
  local.members = members_;
  for (ProcessId m : members_) {
    if (auto it = br_.find(m); it != br_.end()) local.br.emplace(m, it->second);
    if (auto it = bk_.find(m); it != bk_.end()) local.bk.emplace(m, it->second);
  }
  sides.push_back(std::move(local));
  for (SideInfo& s : announced_) sides.push_back(std::move(s));
  std::sort(sides.begin(), sides.end(), [](const SideInfo& a, const SideInfo& b) {
    if (a.members.size() != b.members.size())
      return a.members.size() > b.members.size();
    return *std::min_element(a.members.begin(), a.members.end()) <
           *std::min_element(b.members.begin(), b.members.end());
  });

  const bool in_bottom =
      std::find(sides[0].members.begin(), sides[0].members.end(), self()) !=
      sides[0].members.end();

  std::vector<ProcessId> merged;
  std::map<ProcessId, BigInt> br;
  for (const SideInfo& s : sides) {
    merged.insert(merged.end(), s.members.begin(), s.members.end());
    for (const auto& [m, v] : s.br) br.emplace(m, v);
  }
  // Only the bottom side's internal node keys survive the restack.
  std::map<ProcessId, BigInt> bk = sides[0].bk;

  const ProcessId sponsor2 = sides[0].members.back();
  std::map<ProcessId, SecureBigInt> keys;
  if (in_bottom) {
    // My chain keys below the bottom side's top remain valid.
    for (const auto& [m, v] : keys_)
      if (m != sponsor2 &&
          std::find(sides[0].members.begin(), sides[0].members.end(), m) !=
              sides[0].members.end())
        keys.emplace(m, v);
    if (self() == sponsor2) {
      auto it = keys_.find(self());
      if (it != keys_.end()) keys.emplace(self(), it->second);
    }
  }

  members_ = std::move(merged);
  br_ = std::move(br);
  bk_ = std::move(bk);
  keys_ = std::move(keys);
  if (!members_.empty() && br_.count(members_.front()))
    bk_[members_.front()] = br_.at(members_.front());
  collecting_ = false;
  announced_.clear();

  chain_sponsor_ = sponsor2;
  const bool sponsor = self() == sponsor2;
  compute_chain(sponsor);
  if (sponsor) broadcast(kUpdate);
  deliver_if_complete();
}

Decoded<StrProtocol::Wire> StrProtocol::validate_and_decode(ByteView body,
                                                            const BigInt& p) {
  using D = Decoded<Wire>;
  Wire m;
  try {
    Reader r(body);
    m.type = r.u8();
    if (m.type != kAnnounce && m.type != kUpdate)
      return D::rejected(RejectReason::kBadTag);
    const std::uint32_t count = r.count(kMaxWireMembers);
    for (std::uint32_t i = 0; i < count; ++i) {
      const ProcessId id = r.u32();
      if (std::find(m.info.members.begin(), m.info.members.end(), id) !=
          m.info.members.end())
        return D::rejected(RejectReason::kBadShape);
      m.info.members.push_back(id);
      const std::uint8_t has_br = r.u8();
      if (has_br > 1) return D::rejected(RejectReason::kBadTag);
      if (has_br == 1) {
        BigInt br = get_bigint(r);
        if (!in_group_range(br, p)) return D::rejected(RejectReason::kBignumRange);
        m.info.br[id] = std::move(br);
      }
      const std::uint8_t has_bk = r.u8();
      if (has_bk > 1) return D::rejected(RejectReason::kBadTag);
      if (has_bk == 1) {
        BigInt bk = get_bigint(r);
        if (!in_group_range(bk, p)) return D::rejected(RejectReason::kBignumRange);
        m.info.bk[id] = std::move(bk);
      }
    }
    if (!r.done()) return D::rejected(RejectReason::kTrailingBytes);
  } catch (const LengthError&) {
    return D::rejected(RejectReason::kBadLength);
  } catch (const DecodeError&) {
    return D::rejected(RejectReason::kTruncated);
  }
  return D::accepted(std::move(m));
}

void StrProtocol::handle_message(ProcessId sender, ByteView body) {
  std::shared_ptr<const Decoded<Wire>> d;
  {
    obs::WallScope wall("decode/STR");
    d = decode(body, &validate_and_decode);
  }
  if (!d->ok()) {
    reject(d->reason);
    return;
  }
  // Shared with the frame's other receivers: read it, copy what is kept.
  const std::uint8_t type = d->value.type;
  const SideInfo& info = d->value.info;

  // Coverage counts only sponsor announcements — the sender must be the
  // announced chain's own top member. Every member applies this test to the
  // same delivered stream (self-deliveries included), so all sides reach
  // the fold threshold at the same message and fold identical chains.
  const bool sponsor_announce = type == kAnnounce && !info.members.empty() &&
                                info.members.back() == sender;

  if (sender == self()) {
    // My own broadcast looped back through the agreed stream: the group has
    // it, so it no longer needs repairing. If a hole-filling rebroadcast was
    // deferred while this one was in flight, send it now.
    if (unconfirmed_bcasts_ > 0) --unconfirmed_bcasts_;
    if (unconfirmed_bcasts_ == 0 && rebroadcast_pending_) {
      rebroadcast_pending_ = false;
      broadcast(kUpdate);
    }
    if (collecting_ && sponsor_announce && info.members == members_) {
      cover(info.members);
      try_fold();
    }
    return;
  }

  if (type == kAnnounce) {
    mark_phase("tree_update");
    if (collecting_ && info.members == members_) {
      // An announcement for my own side: adopt its fresh values.
      for (const auto& [m, v] : info.br) br_[m] = v;
      for (const auto& [m, v] : info.bk) bk_[m] = v;
      if (sponsor_announce) cover(info.members);
      try_fold();
      return;
    }
    if (collecting_) {
      if (sponsor_announce) cover(info.members);
      // A repair announcement and the side sponsor's announcement can both
      // arrive for the same side; merge them into one entry — stashing a
      // duplicate would fold that side's members into the chain twice.
      auto same = std::find_if(
          announced_.begin(), announced_.end(),
          [&](const SideInfo& s) { return s.members == info.members; });
      if (same != announced_.end()) {
        for (const auto& [m, v] : info.br) same->br[m] = v;
        for (const auto& [m, v] : info.bk) same->bk[m] = v;
      } else {
        announced_.push_back(info);
      }
      try_fold();
      return;
    }
    // Post-fold stragglers: a side announcement that is a prefix of the
    // merged chain still carries authoritative blinded values.
    bool is_prefix = info.members.size() <= members_.size() &&
                     std::equal(info.members.begin(), info.members.end(),
                                members_.begin());
    for (const auto& [m, v] : info.br) br_.emplace(m, v);
    if (is_prefix)
      for (const auto& [m, v] : info.bk) bk_.emplace(m, v);
    recompute_and_publish();
    return;
  }

  if (type == kUpdate) {
    mark_phase("tree_update");
    if (sorted_copy(info.members) != view_.members) return;  // stale epoch
    members_ = info.members;
    for (const auto& [m, v] : info.br) br_[m] = v;
    for (const auto& [m, v] : info.bk) bk_[m] = v;
    recompute_and_publish();
    return;
  }
}

void StrProtocol::cover(const std::vector<ProcessId>& members) {
  for (ProcessId p : members) {
    auto it = std::lower_bound(covered_.begin(), covered_.end(), p);
    if (it == covered_.end() || *it != p) covered_.insert(it, p);
  }
}

void StrProtocol::recompute_and_publish() {
  // A repair message may have just filled a blinded-random hole that was
  // blocking the chain. Blinded node keys are deterministic functions of
  // the blinded randoms, so anyone able to mint a missing one mints the
  // same value; the sponsor can only mint from its own position upward,
  // which is not enough when the hole sits below it. The member AT the
  // lowest hole can always mint it (it needs only the bk below and its own
  // random), so it acts as the designated repairer for that stretch. When
  // minting produced values the group has not seen, broadcast them
  // (deferred if a broadcast of mine is still in flight — its
  // self-delivery sends it).
  bool sponsor = self() == chain_sponsor_;
  for (std::size_t j = 0; j + 1 < members_.size(); ++j)
    if (bk_.count(members_[j]) == 0) {
      if (members_[j] == self()) sponsor = true;
      break;
    }
  const std::size_t bk_before = bk_.size();
  compute_chain(sponsor);
  if (sponsor && bk_.size() > bk_before) {
    if (unconfirmed_bcasts_ == 0) {
      broadcast(kUpdate);
    } else {
      rebroadcast_pending_ = true;
    }
  }
  deliver_if_complete();
}

}  // namespace sgk
