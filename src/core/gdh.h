// GDH (Cliques IKA.3) contributory group key agreement.
//
// The shared key is K = g^(r_1 r_2 ... r_n). The group controller (the most
// recently added remaining member) maintains the list of partial keys
// P_i = g^(R / r_i); each member derives K = P_i ^ r_i.
//
// Merge (Figure 1 of the paper): the current controller refreshes its
// exponent and unicasts the accumulated token through the chain of new
// members; the last new member broadcasts the accumulated value; everyone
// factors out its contribution and sends it back (in agreed order) to the
// last new member, who becomes the new controller, exponentiates each
// factor-out token with a fresh exponent and broadcasts the partial key
// list.
//
// Leave/partition (Figure 2): the controller refreshes its own exponent by a
// factor f, drops the departed members' partial keys, raises every remaining
// partial key to f, and broadcasts the new list.
#pragma once

#include <map>
#include <vector>

#include "bignum/secure_bigint.h"
#include "core/key_agreement.h"

namespace sgk {

class GdhProtocol final : public KeyAgreement {
 public:
  explicit GdhProtocol(ProtocolHost& host) : KeyAgreement(host) {}

  void handle_view(const View& view, const ViewDelta& delta) override;
  void handle_message(ProcessId sender, ByteView body) override;
  ProtocolKind kind() const override { return ProtocolKind::kGdh; }

  /// Exposed for white-box tests: the current controller and join order.
  ProcessId controller() const { return order_.empty() ? kNoProcess : order_.back(); }
  const std::vector<ProcessId>& join_order() const { return order_; }

  enum MsgType : std::uint8_t { kToken = 1, kAccum = 2, kFactorOut = 3, kPartials = 4 };

  /// Fully decoded + validated wire message (union across the four types).
  struct Wire {
    std::uint8_t type = 0;
    BigInt value;                    // token / accumulated / factored-out
    std::vector<ProcessId> done;     // kToken
    std::vector<ProcessId> chain;    // kToken
    std::vector<ProcessId> order;    // kPartials
    std::vector<std::pair<ProcessId, BigInt>> partials;  // kPartials
  };

  /// The only entrypoint that touches raw GDH wire bytes: structural decode
  /// plus semantic validation (tags, list caps, every bignum in [2, p-2]).
  /// Never throws; a hostile body comes back as a typed rejection.
  static Decoded<Wire> validate_and_decode(ByteView body, const BigInt& p);

 private:

  void start_merge();
  void handle_leave(const ViewDelta& delta);
  void broadcast_partials();
  Bytes encode_token(const BigInt& token, const std::vector<ProcessId>& done,
                     const std::vector<ProcessId>& chain) const;
  Bytes encode_partials() const;
  void adopt_partials(const Wire& msg);

  View view_;
  // Join order, oldest first; controller == order_.back().
  std::vector<ProcessId> order_;
  // Partial keys P_i = g^(R / r_i) are broadcast values, not secrets.
  std::map<ProcessId, BigInt> partials_;
  SecureBigInt r_;  // my current secret contribution (zeroized on replace)

  // Transient merge state.
  std::vector<ProcessId> new_members_;  // token chain order
  ProcessId new_controller_ = kNoProcess;
  bool i_am_new_ = false;
  BigInt accum_;
  std::map<ProcessId, BigInt> factors_;  // at the new controller

  // Generation counter for r_: bumped on every refresh. A controller that
  // broadcast a partial-key list installs its own key only when the list
  // self-delivers through the agreed stream, and only if r_ has not been
  // refreshed since (a token from a concurrent fallback chain supersedes
  // the instance the list belonged to).
  int my_gen_ = 0;
  int pending_gen_ = -1;  // generation of the in-flight list, -1 = none
};

}  // namespace sgk
