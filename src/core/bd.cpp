#include "core/bd.h"

#include <algorithm>
#include <utility>

#include "obs/wallclock.h"
#include "util/check.h"

namespace sgk {

std::size_t BdProtocol::index_of(ProcessId p) const {
  auto it = std::lower_bound(view_.members.begin(), view_.members.end(), p);
  SGK_CHECK(it != view_.members.end() && *it == p);
  return static_cast<std::size_t>(it - view_.members.begin());
}

ProcessId BdProtocol::at_offset(std::size_t i, std::ptrdiff_t delta) const {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(view_.members.size());
  std::ptrdiff_t j = (static_cast<std::ptrdiff_t>(i) + delta) % n;
  if (j < 0) j += n;
  return view_.members[static_cast<std::size_t>(j)];
}

void BdProtocol::handle_view(const View& view, const ViewDelta& /*delta*/) {
  // BD restarts from scratch on any membership change.
  view_ = view;
  z_.clear();
  x_values_.clear();
  sent_x_ = false;

  r_ = crypto().random_exponent();
  const BigInt z = crypto().exp_g(r_);
  z_[self()] = z;

  if (view.members.size() == 1) {
    // Degenerate group: K = z^r = g^(r^2).
    host_.deliver_key(crypto().exp(z, r_));
    return;
  }
  mark_phase("round1_broadcast");
  Writer w;
  w.u8(kZ);
  put_bigint(w, z);
  host_.send_multicast(w.take());
}

void BdProtocol::maybe_round2() {
  if (sent_x_ || z_.size() < view_.members.size()) return;
  sent_x_ = true;
  mark_phase("round2_broadcast");
  const std::size_t i = index_of(self());
  const BigInt& z_next = z_.at(at_offset(i, +1));
  const BigInt& z_prev = z_.at(at_offset(i, -1));
  const BigInt ratio = crypto().mul_p(z_next, crypto().inverse_p(z_prev));
  const BigInt x = crypto().exp(ratio, r_);
  x_values_[self()] = x;
  Writer w;
  w.u8(kX);
  put_bigint(w, x);
  host_.send_multicast(w.take());
  maybe_finish();
}

void BdProtocol::maybe_finish() {
  if (!sent_x_ || x_values_.size() < view_.members.size()) return;
  mark_phase("key_derivation");
  const std::size_t n = view_.members.size();
  const std::size_t i = index_of(self());
  // K = z_{i-1}^(n r_i) * prod_{j=0}^{n-2} X_{i+j}^(n-1-j)
  SecureBigInt key =
      crypto().exp(z_.at(at_offset(i, -1)), BigInt(n) * r_ % crypto().group().q());
  for (std::size_t j = 0; j + 1 < n; ++j) {
    const std::uint64_t e = static_cast<std::uint64_t>(n - 1 - j);
    const BigInt& xj = x_values_.at(at_offset(i, static_cast<std::ptrdiff_t>(j)));
    BigInt term = e == 1 ? xj : crypto().exp(xj, BigInt(e));
    key = crypto().mul_p(key, term);
  }
  host_.deliver_key(key);
}

Decoded<BdProtocol::Wire> BdProtocol::validate_and_decode(ByteView body,
                                                          const BigInt& p) {
  using D = Decoded<Wire>;
  Wire m;
  try {
    Reader r(body);
    m.type = r.u8();
    if (m.type != kZ && m.type != kX) return D::rejected(RejectReason::kBadTag);
    m.value = get_bigint(r);
    // z_i = g^(r_i) is a non-identity subgroup element, so the usual
    // [2, p-2] band applies. X_i = (z_{i+1}/z_{i-1})^(r_i) is legitimately 1
    // whenever the two neighbours coincide (any 2-member group), so only the
    // degenerate 0 and >= p-1 values are hostile there.
    const bool ok_range = m.type == kZ
                              ? in_group_range(m.value, p)
                              : m.value >= BigInt(1) && m.value <= p - BigInt(2);
    if (!ok_range) return D::rejected(RejectReason::kBignumRange);
    if (!r.done()) return D::rejected(RejectReason::kTrailingBytes);
  } catch (const LengthError&) {
    return D::rejected(RejectReason::kBadLength);
  } catch (const DecodeError&) {
    return D::rejected(RejectReason::kTruncated);
  }
  return D::accepted(std::move(m));
}

void BdProtocol::handle_message(ProcessId sender, ByteView body) {
  std::shared_ptr<const Decoded<Wire>> d;
  {
    obs::WallScope wall("decode/BD");
    d = decode(body, &validate_and_decode);
  }
  if (!d->ok()) {
    reject(d->reason);
    return;
  }
  // Shared with the frame's other receivers: read it, copy what is kept.
  const Wire& m = d->value;
  switch (m.type) {
    case kZ:
      if (sender != self()) z_[sender] = m.value;
      maybe_round2();
      return;
    case kX:
      if (sender != self()) x_values_[sender] = m.value;
      maybe_finish();
      return;
    default:
      return;  // unreachable: validate_and_decode rejected unknown tags
  }
}

}  // namespace sgk
