// CKD: centralized key distribution with a dynamically chosen key server.
//
// The controller (the oldest group member) maintains a long-term pairwise
// Diffie-Hellman key K_ci = g^(x_c x_i) with every member. On every
// membership change it picks a fresh group secret exponent s and broadcasts
// E_i = K_ci ^ s for every member; member i unwraps the group secret
// g^(x_c s) = E_i ^ (x_i^{-1} mod q). This costs the controller one
// exponentiation per member per re-key (matching Table 1's linear cost) and
// provides key independence because s is fresh each time.
//
// Join/merge additionally establishes the new pairwise channels (the
// controller broadcasts g^(x_c), each new member responds with g^(x_i)),
// which is why CKD needs three rounds where the contributory protocols need
// two. When the controller itself leaves, the new controller (next oldest)
// must first establish channels with everyone — the expensive case the
// paper calls out.
#pragma once

#include <map>
#include <vector>

#include "bignum/secure_bigint.h"
#include "core/key_agreement.h"

namespace sgk {

class CkdProtocol final : public KeyAgreement {
 public:
  explicit CkdProtocol(ProtocolHost& host) : KeyAgreement(host) {}

  void handle_view(const View& view, const ViewDelta& delta) override;
  void handle_message(ProcessId sender, ByteView body) override;
  ProtocolKind kind() const override { return ProtocolKind::kCkd; }

  ProcessId controller() const { return order_.empty() ? kNoProcess : order_.front(); }
  const std::vector<ProcessId>& join_order() const { return order_; }

  enum MsgType : std::uint8_t { kChallenge = 1, kResponse = 2, kKeyBcast = 3 };

  /// Fully decoded + validated wire message (union across the three types).
  struct Wire {
    std::uint8_t type = 0;
    BigInt value;                      // kChallenge / kResponse public value
    std::vector<ProcessId> targets;    // kChallenge: members owing a response
    std::vector<ProcessId> order;      // kKeyBcast
    std::vector<std::pair<ProcessId, BigInt>> wraps;  // kKeyBcast
  };

  /// The only entrypoint that touches raw CKD wire bytes: structural decode
  /// plus semantic validation (tags, list caps, every bignum in [2, p-2]).
  /// Never throws; a hostile body comes back as a typed rejection.
  static Decoded<Wire> validate_and_decode(ByteView body, const BigInt& p);

 private:

  void begin_controller_round(const std::vector<ProcessId>& need_channel);
  void rekey();

  View view_;
  std::vector<ProcessId> order_;  // oldest first; controller == order_.front()
  SecureBigInt x_;                // my long-term DH exponent (per session)
  BigInt my_pub_;                 // g^x, computed lazily
  bool have_pub_ = false;

  // Controller state. Pairwise channel keys K_ci are long-lived secrets.
  std::map<ProcessId, SecureBigInt> pairwise_;  // member -> K_ci
  std::vector<ProcessId> awaiting_;             // responses still missing

  // Member state.
  ProcessId controller_seen_ = kNoProcess;  // sender of the last challenge

  // Group secret the controller broadcast but has not yet seen come back
  // through the agreed stream. The controller installs it only at that
  // self-delivery: under a cascade two members can transiently both act as
  // controller, and taking the key at send time would leave each of them on
  // its own key while the totally-ordered stream hands every other member
  // whichever broadcast was stamped last.
  SecureBigInt pending_key_;
  bool has_pending_key_ = false;
};

}  // namespace sgk
