#include "core/key_agreement.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bd.h"
#include "core/ckd.h"
#include "core/gdh.h"
#include "core/str.h"
#include "core/tgdh.h"
#include "util/check.h"

namespace sgk {

const char* to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kGdh: return "GDH";
    case ProtocolKind::kCkd: return "CKD";
    case ProtocolKind::kTgdh: return "TGDH";
    case ProtocolKind::kTgdhBalanced: return "TGDH-bal";
    case ProtocolKind::kStr: return "STR";
    case ProtocolKind::kBd: return "BD";
    case ProtocolKind::kNone: return "none";
  }
  return "?";
}

void KeyAgreement::on_view(const View& view, const ViewDelta& delta) {
  restarting_ = in_flight_;
  if (in_flight_) {
    // Secure Spread rule: the membership changed under a running agreement.
    // Abort it (handle_view discards transient state) and restart on the
    // newest view.
    ++restarts_;
    host_.mark_point("agreement_restart");
  }
  in_flight_ = true;
  ++started_;
  handle_view(view, delta);
}

void KeyAgreement::on_message(ProcessId sender, ByteView body,
                              const SharedBytes& frame) {
  // Cleared on every way out, a throw included: no later call sees it.
  struct Clear {
    SharedBytes& frame;
    ~Clear() { frame.reset(); }
  } clear{frame_};
  frame_ = frame;
  handle_message(sender, body);
}

void KeyAgreement::note_key_delivered() {
  if (in_flight_) {
    in_flight_ = false;
    ++completed_;
  }
}

namespace {
/// The null protocol: completes instantly with a fixed key. Measures the
/// bare membership service (the baseline series in the paper's figures).
class NullProtocol final : public KeyAgreement {
 public:
  explicit NullProtocol(ProtocolHost& host) : KeyAgreement(host) {}
  ProtocolKind kind() const override { return ProtocolKind::kNone; }

 protected:
  void handle_view(const View& view, const ViewDelta&) override {
    host_.deliver_key(BigInt(view.view_id + 1));
  }
  void handle_message(ProcessId, ByteView) override {}
};
}  // namespace

std::unique_ptr<KeyAgreement> make_protocol(ProtocolKind kind, ProtocolHost& host) {
  switch (kind) {
    case ProtocolKind::kGdh: return std::make_unique<GdhProtocol>(host);
    case ProtocolKind::kCkd: return std::make_unique<CkdProtocol>(host);
    case ProtocolKind::kTgdh: return std::make_unique<TgdhProtocol>(host);
    case ProtocolKind::kTgdhBalanced:
      return std::make_unique<TgdhProtocol>(host, /*eager_balance=*/true);
    case ProtocolKind::kStr: return std::make_unique<StrProtocol>(host);
    case ProtocolKind::kBd: return std::make_unique<BdProtocol>(host);
    case ProtocolKind::kNone: return std::make_unique<NullProtocol>(host);
  }
  SGK_CHECK(false);
  return nullptr;
}

const std::vector<ProcessId>* core_side(const ViewDelta& delta) {
  const std::vector<ProcessId>* best = nullptr;
  for (const auto& side : delta.sides) {
    if (side.empty()) continue;
    if (best == nullptr || side.size() > best->size() ||
        (side.size() == best->size() && side.front() < best->front())) {
      best = &side;
    }
  }
  return best;
}

void put_bigint(Writer& w, const BigInt& v) { w.bytes(v.to_bytes()); }

BigInt get_bigint(Reader& r) { return BigInt::from_bytes(r.view()); }

bool in_group_range(const BigInt& v, const BigInt& p) {
  // v >= 2 and p - v >= 2, compared limb by limb: every wire bignum passes
  // here, so build no temporaries.
  if (v.bit_length() < 2 || v >= p) return false;
  // 0 < p - v; it is below 2 only when its limbs read 1, 0, 0, ...
  const std::vector<std::uint64_t>& pl = p.limbs();
  const std::vector<std::uint64_t>& vl = v.limbs();
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < pl.size(); ++i) {
    const std::uint64_t vi = i < vl.size() ? vl[i] : 0;
    const std::uint64_t diff = pl[i] - vi - borrow;
    borrow = pl[i] < vi || (pl[i] == vi && borrow != 0) ? 1 : 0;
    if (diff != (i == 0 ? 1 : 0)) return true;
  }
  return false;
}

}  // namespace sgk
