#include "core/gdh.h"

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

void GdhProtocol::handle_view(const View& view, const ViewDelta& delta) {
  view_ = view;
  // Discard transient state from any interrupted instance.
  factors_.clear();
  accum_ = BigInt();
  new_members_.clear();
  new_controller_ = kNoProcess;
  i_am_new_ = false;
  pending_gen_ = -1;  // a list the view change killed is dead at everyone

  // Singleton group: re-key locally (fresh contribution, K = g^r).
  if (view.members.size() == 1) {
    r_ = crypto().random_exponent();
    ++my_gen_;
    order_ = {self()};
    partials_.clear();
    partials_[self()] = crypto().group().g();
    host_.deliver_key(crypto().exp(partials_[self()], r_));
    return;
  }

  const std::vector<ProcessId>* core = core_side(delta);
  SGK_CHECK(core != nullptr && !core->empty());
  i_am_new_ = std::find(core->begin(), core->end(), self()) == core->end();

  if (!i_am_new_) {
    // Validate that my stored state matches the core side; a cascaded event
    // can leave the side without an established key, in which case every
    // member deterministically falls back to a full initial key agreement
    // rooted at the lowest id.
    std::vector<ProcessId> pruned;
    for (ProcessId p : order_)
      if (view.contains(p)) pruned.push_back(p);
    // An interrupted factor-out round can leave a member (the would-be new
    // controller) with a current-looking order but no partial keys; it has
    // no established state to act from and must fall back too.
    //
    // restarting() covers the remaining hole: a cached (order_, partials_)
    // pair is only coherent with the peers' current exponents if the
    // instance that built it completed. A view change that aborts an
    // in-flight agreement can strand one member with a current-looking
    // cache (e.g. a controller whose partial-key broadcast the other
    // members stale-dropped) while the fallback chain refreshes everyone
    // else's r_; acting on that cache forks the group onto two instances
    // whose keys silently diverge. Key delivery flips in_flight at agreed-
    // stream handler time, so "the previous instance completed" is decided
    // at the same total-order position at every member and the fallback
    // below stays unanimous.
    if (restarting() || sorted_copy(pruned) != *core ||
        partials_.count(self()) == 0) {
      // The seed must come from the core side: only core members execute
      // this branch, and a seed that does not know a fallback is happening
      // would leave the whole view waiting for a token nobody sends.
      const ProcessId seed = core->front();
      std::vector<ProcessId> chain;
      for (ProcessId p : view.members)
        if (p != seed) chain.push_back(p);
      new_members_ = std::move(chain);
      new_controller_ = new_members_.back();
      if (self() == seed) {
        r_ = crypto().random_exponent();
        ++my_gen_;
        order_ = {self()};
        partials_.clear();
        partials_[self()] = crypto().group().g();
        start_merge();
      } else {
        i_am_new_ = true;
        order_.clear();
        partials_.clear();
      }
      return;
    }
    order_ = std::move(pruned);
    for (auto it = partials_.begin(); it != partials_.end();)
      it = view.contains(it->first) ? std::next(it) : partials_.erase(it);
  }

  // New members, in token-chain order.
  for (ProcessId p : view.members)
    if (std::find(core->begin(), core->end(), p) == core->end())
      new_members_.push_back(p);

  if (i_am_new_) {
    order_.clear();
    partials_.clear();
    SGK_CHECK(!new_members_.empty());
    new_controller_ = new_members_.back();
    return;  // wait for the token / accumulated broadcast
  }

  if (new_members_.empty()) {
    handle_leave(delta);
  } else {
    new_controller_ = new_members_.back();
    start_merge();
  }
}

void GdhProtocol::start_merge() {
  mark_phase("token_accumulation");
  if (self() != order_.back()) return;  // only the current controller acts
  // Step 1: refresh my contribution and pass the accumulated token to the
  // first new member. The token carries the join order so the eventual
  // partial-key broadcast can reinstall it at everyone.
  r_ = crypto().random_exponent();
  SGK_CHECK(partials_.count(self()) == 1);
  BigInt token = crypto().exp(partials_[self()], r_);
  // The robust GDH implementation sends the token in agreed order with
  // respect to group messages (section 6.2.2), like the factor-out round.
  host_.send_ordered(new_members_.front(),
                     encode_token(token, order_, new_members_));
}

Bytes GdhProtocol::encode_token(const BigInt& token,
                                const std::vector<ProcessId>& done,
                                const std::vector<ProcessId>& chain) const {
  Writer w;
  w.u8(kToken);
  put_bigint(w, token);
  w.u32(static_cast<std::uint32_t>(done.size()));
  for (ProcessId p : done) w.u32(p);
  w.u32(static_cast<std::uint32_t>(chain.size()));
  for (ProcessId p : chain) w.u32(p);
  return w.take();
}

void GdhProtocol::handle_leave(const ViewDelta& delta) {
  (void)delta;
  mark_phase("key_distribution");
  if (self() != order_.back()) return;  // wait for the controller broadcast
  // Refresh my exponent by a factor f; every other partial key gains f, my
  // own stays (it excludes my contribution by construction).
  const SecureBigInt f = crypto().random_exponent();
  r_ = r_.get() * f % crypto().group().q();
  ++my_gen_;
  for (auto& [member, partial] : partials_) {
    if (member == self()) continue;
    partial = crypto().exp(partial, f);
  }
  broadcast_partials();
  // Installed when the list self-delivers, not now (see pending_gen_).
  pending_gen_ = my_gen_;
}

Bytes GdhProtocol::encode_partials() const {
  Writer w;
  w.u8(kPartials);
  w.u32(static_cast<std::uint32_t>(order_.size()));
  for (ProcessId p : order_) w.u32(p);
  w.u32(static_cast<std::uint32_t>(partials_.size()));
  for (const auto& [member, partial] : partials_) {
    w.u32(member);
    put_bigint(w, partial);
  }
  return w.take();
}

void GdhProtocol::broadcast_partials() { host_.send_multicast(encode_partials()); }

Decoded<GdhProtocol::Wire> GdhProtocol::validate_and_decode(ByteView body,
                                                            const BigInt& p) {
  using D = Decoded<Wire>;
  Wire m;
  try {
    Reader r(body);
    m.type = r.u8();
    switch (m.type) {
      case kToken: {
        m.value = get_bigint(r);
        if (!in_group_range(m.value, p)) return D::rejected(RejectReason::kBignumRange);
        const std::uint32_t done_len = r.count(kMaxWireMembers);
        for (std::uint32_t i = 0; i < done_len; ++i) m.done.push_back(r.u32());
        const std::uint32_t chain_len = r.count(kMaxWireMembers);
        if (chain_len == 0) return D::rejected(RejectReason::kBadLength);
        for (std::uint32_t i = 0; i < chain_len; ++i) m.chain.push_back(r.u32());
        break;
      }
      case kAccum:
      case kFactorOut: {
        m.value = get_bigint(r);
        if (!in_group_range(m.value, p)) return D::rejected(RejectReason::kBignumRange);
        break;
      }
      case kPartials: {
        const std::uint32_t order_len = r.count(kMaxWireMembers);
        for (std::uint32_t i = 0; i < order_len; ++i) m.order.push_back(r.u32());
        const std::uint32_t count = r.count(kMaxWireMembers);
        for (std::uint32_t i = 0; i < count; ++i) {
          const ProcessId member = r.u32();
          BigInt partial = get_bigint(r);
          if (!in_group_range(partial, p))
            return D::rejected(RejectReason::kBignumRange);
          m.partials.emplace_back(member, std::move(partial));
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

void GdhProtocol::adopt_partials(const Wire& msg) {
  std::map<ProcessId, BigInt> partials;
  for (const auto& [member, partial] : msg.partials) partials[member] = partial;
  // A stale controller (possible transiently under cascades) can broadcast
  // a list that omits me; that list is not mine to adopt — keep waiting for
  // the one produced by the instance I contributed to.
  auto it = partials.find(self());
  if (it == partials.end()) return;
  const BigInt mine = it->second;
  order_ = msg.order;
  partials_ = std::move(partials);
  host_.deliver_key(crypto().exp(mine, r_));
}

void GdhProtocol::handle_message(ProcessId sender, ByteView body) {
  std::shared_ptr<const Decoded<Wire>> d;
  {
    obs::WallScope wall("decode/GDH");
    d = decode(body, &validate_and_decode);
  }
  if (!d->ok()) {
    reject(d->reason);
    return;
  }
  // Shared with the frame's other receivers: read it, copy what is kept.
  const Wire& m = d->value;
  switch (m.type) {
    case kToken: {
      const BigInt& token = m.value;
      std::vector<ProcessId> done = m.done;
      const std::vector<ProcessId>& chain = m.chain;
      // The chain carried by the token is authoritative: after a fallback
      // restart only core-side members know the real chain, so a locally
      // computed new_members_ (or even i_am_new_ itself — a member whose
      // completed state survived a cascade may be drafted into a fallback
      // chain started by members whose state did not) may disagree with the
      // sender's. Membership in the chain is the only test.
      auto pos = std::find(chain.begin(), chain.end(), self());
      if (pos == chain.end()) return;  // stale token, not addressed to me
      if (pos + 1 == chain.end()) {
        // Last chain member: the new controller; broadcast the accumulated
        // value unchanged.
        mark_phase("broadcast");
        new_controller_ = self();
        accum_ = token;
        order_ = std::move(done);
        order_.push_back(self());
        Writer w;
        w.u8(kAccum);
        put_bigint(w, accum_);
        host_.send_multicast(w.take());
      } else {
        // Add my contribution and forward along the chain.
        mark_phase("token_accumulation");
        r_ = crypto().random_exponent();
        ++my_gen_;
        BigInt next_token = crypto().exp(token, r_);
        done.push_back(self());
        host_.send_ordered(*(pos + 1), encode_token(next_token, done, chain));
      }
      return;
    }
    case kAccum: {
      if (sender == self()) return;  // own broadcast
      mark_phase("factor_out");
      // The broadcaster is the actual controller — trust the message, not
      // the locally computed new_controller_ (see the kToken chain note).
      new_controller_ = sender;
      accum_ = m.value;
      // Factor out my contribution and return it to the new controller.
      BigInt factored = crypto().exp(accum_, crypto().inverse_q(r_));
      Writer w;
      w.u8(kFactorOut);
      put_bigint(w, factored);
      host_.send_ordered(new_controller_, w.take());
      return;
    }
    case kFactorOut: {
      if (self() != new_controller_) return;
      factors_[sender] = m.value;
      if (factors_.size() + 1 < view_.members.size()) return;
      // All factor-out tokens collected: become the controller.
      mark_phase("key_distribution");
      r_ = crypto().random_exponent();
      ++my_gen_;
      partials_.clear();
      for (const auto& [member, factored] : factors_) {
        partials_[member] = crypto().exp(factored, r_);
      }
      partials_[self()] = accum_;
      broadcast_partials();
      // Installed when the list self-delivers, not now (see pending_gen_).
      pending_gen_ = my_gen_;
      // From now on I am an established member.
      i_am_new_ = false;
      return;
    }
    case kPartials: {
      mark_phase("key_distribution");
      if (sender == self()) {
        // My own list came back through the agreed stream: it is part of
        // the group's total order, so the key is safe to install — unless
        // r_ was refreshed since (the instance the list belonged to died).
        if (pending_gen_ == my_gen_) {
          auto it = partials_.find(self());
          if (it != partials_.end())
            host_.deliver_key(crypto().exp(it->second, r_));
        }
        pending_gen_ = -1;
        return;
      }
      adopt_partials(m);
      i_am_new_ = false;
      return;
    }
    default:
      return;  // unreachable: validate_and_decode rejected unknown tags
  }
}

}  // namespace sgk
