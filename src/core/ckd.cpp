#include "core/ckd.h"

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

void CkdProtocol::handle_view(const View& view, const ViewDelta& delta) {
  view_ = view;
  awaiting_.clear();
  has_pending_key_ = false;  // a broadcast the view change killed

  if (view.members.size() == 1) {
    order_ = {self()};
    pairwise_.clear();
    controller_seen_ = self();
    host_.deliver_key(crypto().random_exponent());
    return;
  }

  const std::vector<ProcessId>* core = core_side(delta);
  SGK_CHECK(core != nullptr && !core->empty());
  bool i_am_new = std::find(core->begin(), core->end(), self()) == core->end();

  std::vector<ProcessId> pruned;
  for (ProcessId p : order_)
    if (view.contains(p)) pruned.push_back(p);

  if (!i_am_new && sorted_copy(pruned) != *core) {
    // Cascade fallback: no established state on this side; the lowest id
    // OF THE CORE SIDE deterministically becomes the controller of a fresh
    // session. Only core members execute this branch, so a seed drawn from
    // the whole view could be a member that never learns it should act.
    const ProcessId seed = core->front();
    if (self() == seed) {
      order_ = {self()};
      pairwise_.clear();
      std::vector<ProcessId> need;
      for (ProcessId p : view.members)
        if (p != seed) need.push_back(p);
      for (ProcessId p : need) order_.push_back(p);
      begin_controller_round(need);
    } else {
      order_.clear();
    }
    return;
  }

  if (i_am_new) {
    order_.clear();
    return;  // wait for the controller's challenge
  }

  // Established member: update order (new members join at the end, sorted)
  // and drop state for departed members.
  order_ = std::move(pruned);
  std::vector<ProcessId> new_members;
  for (ProcessId p : view.members)
    if (std::find(core->begin(), core->end(), p) == core->end())
      new_members.push_back(p);
  for (ProcessId p : new_members) order_.push_back(p);
  for (auto it = pairwise_.begin(); it != pairwise_.end();)
    it = view.contains(it->first) ? std::next(it) : pairwise_.erase(it);

  if (self() != order_.front()) return;  // wait for the controller

  // I am the controller (possibly freshly promoted after the previous
  // controller departed). Channels may be missing for new members and, in
  // the promotion case, for everyone.
  std::vector<ProcessId> need;
  for (ProcessId p : view.members)
    if (p != self() && pairwise_.count(p) == 0) need.push_back(p);
  if (need.empty()) {
    rekey();
  } else {
    begin_controller_round(need);
  }
}

void CkdProtocol::begin_controller_round(const std::vector<ProcessId>& need_channel) {
  mark_phase("pairwise_channels");
  if (!have_pub_) {
    x_ = crypto().random_exponent();
    my_pub_ = crypto().exp_g(x_);
    have_pub_ = true;
  }
  awaiting_ = need_channel;
  Writer w;
  w.u8(kChallenge);
  put_bigint(w, my_pub_);
  w.u32(static_cast<std::uint32_t>(need_channel.size()));
  for (ProcessId p : need_channel) w.u32(p);
  host_.send_multicast(w.take());
}

void CkdProtocol::rekey() {
  mark_phase("key_distribution");
  SGK_CHECK(have_pub_);
  const SecureBigInt s = crypto().random_exponent();
  Writer w;
  w.u8(kKeyBcast);
  w.u32(static_cast<std::uint32_t>(order_.size()));
  for (ProcessId p : order_) w.u32(p);
  w.u32(static_cast<std::uint32_t>(view_.members.size() - 1));
  for (ProcessId p : view_.members) {
    if (p == self()) continue;
    auto it = pairwise_.find(p);
    SGK_CHECK(it != pairwise_.end());
    w.u32(p);
    put_bigint(w, crypto().exp(it->second, s));
  }
  host_.send_multicast(w.take());
  // Group secret: g^(x_c * s), which every member recovers from its wrap.
  // Installed when the broadcast self-delivers, not now (see pending_key_).
  pending_key_ = SecureBigInt(crypto().exp(my_pub_, s));
  has_pending_key_ = true;
}

Decoded<CkdProtocol::Wire> CkdProtocol::validate_and_decode(ByteView body,
                                                            const BigInt& p) {
  using D = Decoded<Wire>;
  Wire m;
  try {
    Reader r(body);
    m.type = r.u8();
    switch (m.type) {
      case kChallenge: {
        m.value = get_bigint(r);
        if (!in_group_range(m.value, p)) return D::rejected(RejectReason::kBignumRange);
        const std::uint32_t count = r.count(kMaxWireMembers);
        for (std::uint32_t i = 0; i < count; ++i) m.targets.push_back(r.u32());
        break;
      }
      case kResponse: {
        m.value = get_bigint(r);
        if (!in_group_range(m.value, p)) return D::rejected(RejectReason::kBignumRange);
        break;
      }
      case kKeyBcast: {
        const std::uint32_t order_len = r.count(kMaxWireMembers);
        for (std::uint32_t i = 0; i < order_len; ++i) m.order.push_back(r.u32());
        const std::uint32_t count = r.count(kMaxWireMembers);
        for (std::uint32_t i = 0; i < count; ++i) {
          const ProcessId member = r.u32();
          BigInt wrap = get_bigint(r);
          if (!in_group_range(wrap, p))
            return D::rejected(RejectReason::kBignumRange);
          m.wraps.emplace_back(member, std::move(wrap));
        }
        break;
      }
      default:
        return D::rejected(RejectReason::kBadTag);
    }
    if (!r.done()) return D::rejected(RejectReason::kTrailingBytes);
  } catch (const LengthError&) {
    return D::rejected(RejectReason::kBadLength);
  } catch (const DecodeError&) {
    return D::rejected(RejectReason::kTruncated);
  }
  return D::accepted(std::move(m));
}

void CkdProtocol::handle_message(ProcessId sender, ByteView body) {
  std::shared_ptr<const Decoded<Wire>> d;
  {
    obs::WallScope wall("decode/CKD");
    d = decode(body, &validate_and_decode);
  }
  if (!d->ok()) {
    reject(d->reason);
    return;
  }
  // Shared with the frame's other receivers: read it, copy what is kept.
  const Wire& m = d->value;
  switch (m.type) {
    case kChallenge: {
      if (sender == self()) return;
      mark_phase("pairwise_channels");
      const BigInt& controller_pub = m.value;
      bool addressed = false;
      for (ProcessId t : m.targets)
        if (t == self()) addressed = true;
      controller_seen_ = sender;
      if (!addressed) return;
      if (!have_pub_) {
        x_ = crypto().random_exponent();
        my_pub_ = crypto().exp_g(x_);
        have_pub_ = true;
      }
      // Establish the pairwise channel (the member's half of the two-party
      // DH). The value itself is not needed by the unwrap path — the member
      // recovers the group secret with x^{-1} — but the exponentiation is
      // the real cost the paper attributes to channel setup, so we perform
      // and charge it.
      (void)crypto().exp(controller_pub, x_);
      Writer w;
      w.u8(kResponse);
      put_bigint(w, my_pub_);
      host_.send_unicast(sender, w.take());
      return;
    }
    case kResponse: {
      auto it = std::find(awaiting_.begin(), awaiting_.end(), sender);
      if (it == awaiting_.end()) return;
      awaiting_.erase(it);
      pairwise_[sender] = crypto().exp(m.value, x_);
      if (awaiting_.empty()) rekey();
      return;
    }
    case kKeyBcast: {
      mark_phase("key_distribution");
      if (sender == self()) {
        // My own broadcast came back through the agreed stream: it is now
        // part of the group's total order, so the key is safe to install.
        order_ = m.order;
        if (has_pending_key_) {
          has_pending_key_ = false;
          host_.deliver_key(pending_key_);
        }
        return;
      }
      BigInt my_wrap;
      bool found = false;
      for (const auto& [member, wrap] : m.wraps) {
        if (member == self()) {
          my_wrap = wrap;
          found = true;
        }
      }
      // A broadcast that does not wrap the group secret for me cannot be
      // the one my instance is waiting for — a forgery, or a stale
      // controller's list. Reject it without adopting its order; the
      // quarantine policy re-keys if the agreement is left hanging.
      if (!found) {
        reject(RejectReason::kStateMismatch);
        return;
      }
      // Everyone — the broadcasting controller included — adopts the order
      // carried by the broadcast as it is delivered, so concurrent
      // controllers (possible transiently under cascades) converge on the
      // last stamped one.
      order_ = m.order;
      controller_seen_ = sender;
      host_.deliver_key(crypto().exp(my_wrap, crypto().inverse_q(x_)));
      return;
    }
    default:
      return;  // unreachable: validate_and_decode rejected unknown tags
  }
}

}  // namespace sgk
