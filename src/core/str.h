// STR: "skinny tree" group key agreement (Steer et al. / Kim-Perrig-Tsudik).
//
// The key tree is a maximally imbalanced chain. With members M_1..M_n
// (bottom to top), node keys are k_1 = r_1 and k_j = g^(r_j * k_{j-1}),
// computed either as br_j ^ k_{j-1} (knowing the chain key below) or as
// bk_{j-1} ^ r_j (knowing one's own session random). The group key is k_n.
//
// Merge (2 rounds for any number of merging sides): each side's sponsor
// (topmost member) refreshes its session random and broadcasts its side's
// blinded values; the merged chain keeps the largest side at the bottom and
// stacks the others on top; the bottom side's topmost member computes the
// new chain up to the root and broadcasts the blinded values.
//
// Leave/partition (1 round): the member immediately below the lowest
// departed position (or the new bottom member) becomes the sponsor,
// refreshes its random, recomputes the chain up to the root and broadcasts.
// Costs are linear in n with the constant depending on the leaver's
// position — which is why the paper evaluates the average (middle) case.
#pragma once

#include <map>
#include <vector>

#include "bignum/secure_bigint.h"
#include "core/key_agreement.h"

namespace sgk {

class StrProtocol final : public KeyAgreement {
 public:
  explicit StrProtocol(ProtocolHost& host) : KeyAgreement(host) {}

  void handle_view(const View& view, const ViewDelta& delta) override;
  void handle_message(ProcessId sender, ByteView body) override;
  ProtocolKind kind() const override { return ProtocolKind::kStr; }

  /// Chain order, bottom first (tests).
  const std::vector<ProcessId>& chain() const { return members_; }

  enum MsgType : std::uint8_t { kAnnounce = 1, kUpdate = 2 };

  struct SideInfo {
    std::vector<ProcessId> members;  // bottom first
    std::map<ProcessId, BigInt> br;
    std::map<ProcessId, BigInt> bk;
  };

  /// Fully decoded + validated wire message.
  struct Wire {
    std::uint8_t type = 0;
    SideInfo info;
  };

  /// The only entrypoint that touches raw STR wire bytes: structural decode
  /// (strict tags and presence flags, list cap, unique member ids) plus
  /// semantic validation (every blinded value in [2, p-2]). Never throws; a
  /// hostile body comes back as a typed rejection.
  static Decoded<Wire> validate_and_decode(ByteView body, const BigInt& p);

 private:

  void reset_to_singleton();
  std::size_t index_of(ProcessId p) const;
  void refresh_random();
  /// Computes every chain key from my position to the top that is missing,
  /// plus unpublished blinded keys if `as_sponsor`.
  void compute_chain(bool as_sponsor);
  void broadcast(MsgType type);
  void start_merge(const ViewDelta& delta);
  void start_subtractive(const ViewDelta& delta);
  void try_fold();
  void deliver_if_complete();
  /// Recomputes the chain after new blinded values arrived; the chain
  /// sponsor additionally publishes any blinded node keys it minted.
  void recompute_and_publish();
  /// Marks members as covered by a delivered sponsor announcement.
  void cover(const std::vector<ProcessId>& members);

  View view_;
  std::vector<ProcessId> members_;       // chain order, bottom first
  SecureBigInt r_;                       // my secret session random
  std::map<ProcessId, BigInt> br_;       // blinded session randoms (public)
  std::map<ProcessId, BigInt> bk_;       // blinded node keys (public)
  // Chain node keys I know (my path upward): secrets, zeroized on erase.
  std::map<ProcessId, SecureBigInt> keys_;
  bool delivered_ = false;

  // Merge collection state.
  bool collecting_ = false;
  std::vector<SideInfo> announced_;
  std::vector<ProcessId> covered_;

  // The member responsible for (re)computing and broadcasting blinded node
  // keys in the current epoch: the restack sponsor after a fold, the refresh
  // sponsor after a subtractive event. Chosen deterministically from the
  // delivered stream, so every member agrees on it.
  ProcessId chain_sponsor_ = kNoProcess;

  // Broadcasts sent but not yet delivered back through the agreed stream.
  // A broadcast stamped after the next membership view is discarded at every
  // receiver while the sender has already applied its refresh locally; if
  // the counter is still non-zero when a view installs, the sender knows the
  // group never saw its values and re-broadcasts its (post-erase) state.
  int unconfirmed_bcasts_ = 0;

  // A sponsor rebroadcast became necessary while another broadcast of mine
  // was still in flight; sent when that broadcast self-delivers.
  bool rebroadcast_pending_ = false;
};

}  // namespace sgk
