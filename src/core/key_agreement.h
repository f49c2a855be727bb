// Key agreement protocol framework.
//
// A KeyAgreement instance lives inside one SecureGroupMember and reacts to
// two stimuli: view installs (membership changes) and protocol messages.
// All cryptography goes through the host's CryptoContext; all communication
// goes through the host, which signs, frames and (virtually) prices it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bignum/bigint.h"
#include "core/crypto_context.h"
#include "core/decode_memo.h"
#include "core/reject.h"
#include "core/view.h"
#include "util/bytes.h"
#include "util/serde.h"

namespace sgk {

/// The five protocols the paper evaluates, plus a null protocol used to
/// measure the bare membership service (the "Membership service" series in
/// Figures 11, 12 and 14).
enum class ProtocolKind {
  kGdh,
  kCkd,
  kTgdh,
  kStr,
  kBd,
  /// TGDH variant that eagerly rebuilds a height-minimal tree when a
  /// subtractive event unbalances it — the trade-off the paper's footnote 7
  /// attributes to AVL-style tree management: cheaper future operations,
  /// higher leave communication.
  kTgdhBalanced,
  kNone
};

const char* to_string(ProtocolKind kind);

/// Services a protocol uses, implemented by SecureGroupMember.
class ProtocolHost {
 public:
  virtual ~ProtocolHost() = default;

  virtual ProcessId self() const = 0;
  virtual CryptoContext& crypto() = 0;

  /// Agreed multicast of a protocol message to the whole group.
  virtual void send_multicast(Bytes body) = 0;
  /// Agreed-ordered message to one member (GDH factor-out; the paper
  /// explains these must be ordered with respect to group messages).
  virtual void send_ordered(ProcessId dest, Bytes body) = 0;
  /// Direct FIFO unicast (GDH token forwarding, CKD responses).
  virtual void send_unicast(ProcessId dest, Bytes body) = 0;

  /// The protocol completed: every call installs `group_secret` as the new
  /// group key for the current epoch.
  virtual void deliver_key(const BigInt& group_secret) = 0;

  /// When true (the default, matching the implementation the paper
  /// measured), the tree protocols re-compute received blinded keys as a
  /// key-confirmation check, paying the extra exponentiations the paper
  /// describes in section 5. Table 1's counts assume this is off.
  virtual bool key_confirmation() const = 0;

  /// Marks a protocol-phase transition on the observability timeline (see
  /// docs/observability.md for the per-protocol taxonomy). Static phase
  /// names only — never values derived from key material (gka_lint GKA006).
  virtual void mark_phase(const char* phase_name) { (void)phase_name; }
  /// Marks a zero-width point of interest (e.g. a key-confirmation check)
  /// on the observability timeline. Same GKA006 rules as mark_phase.
  virtual void mark_point(const char* point_name) { (void)point_name; }

  /// The protocol refused to act on a frame (validate_and_decode failure or
  /// a semantic check against protocol state). Hosts count the rejection
  /// and, when corruption of the agreed stream is indicated, run their
  /// quarantine/recovery policy. Default no-op keeps bare test hosts small.
  virtual void note_frame_rejected(RejectReason reason) { (void)reason; }

  /// The deployment's decode memo, shared by every receiver of a frame.
  virtual DecodeMemo& decode_memo() = 0;
};

class KeyAgreement {
 public:
  explicit KeyAgreement(ProtocolHost& host) : host_(host) {}
  virtual ~KeyAgreement() = default;

  /// A new view was installed; begin re-keying for it. Non-virtual on
  /// purpose: if the previous instance is still in flight this is the
  /// Secure Spread abort-and-restart rule in action (the new membership
  /// supersedes the interrupted agreement), and the wrapper keeps the
  /// restart bookkeeping that robustness tests and chaos reports read.
  /// Implementations override handle_view and must discard all transient
  /// state from the interrupted instance there.
  void on_view(const View& view, const ViewDelta& delta);

  /// A protocol message (already verified, current epoch) arrived. `frame`
  /// is the wire frame `body` views into; it lets every receiver of the
  /// frame share one decode.
  void on_message(ProcessId sender, ByteView body, const SharedBytes& frame);

  virtual ProtocolKind kind() const = 0;

  /// Host callback: deliver_key for this instance landed, the agreement is
  /// complete. SecureGroupMember calls this; protocols never do.
  void note_key_delivered();

  /// True between a view install and the matching key delivery.
  bool in_flight() const { return in_flight_; }
  std::uint64_t started() const { return started_; }
  std::uint64_t completed() const { return completed_; }
  /// Agreements aborted by a newer view before completing.
  std::uint64_t restarts() const { return restarts_; }

 protected:
  virtual void handle_view(const View& view, const ViewDelta& delta) = 0;
  virtual void handle_message(ProcessId sender, ByteView body) = 0;

  /// True while handling a view that aborted an in-flight agreement.
  /// Protocols use this to re-publish state whose broadcasts died with the
  /// interrupted instance (receivers discarded them as stale-epoch frames).
  bool restarting() const { return restarting_; }

  ProtocolHost& host_;
  CryptoContext& crypto() { return host_.crypto(); }
  ProcessId self() const { return host_.self(); }
  void mark_phase(const char* phase_name) { host_.mark_phase(phase_name); }
  void mark_point(const char* point_name) { host_.mark_point(point_name); }
  /// Routes a refusal through the host's typed-reject path.
  void reject(RejectReason reason) { host_.note_frame_rejected(reason); }

  /// `validate(body, p)` for the message in hand, shared through the host's
  /// decode memo with every other receiver of the same frame. The result is
  /// read-only: copy what the protocol keeps.
  template <typename Wire>
  std::shared_ptr<const Decoded<Wire>> decode(
      ByteView body, Decoded<Wire> (*validate)(ByteView, const BigInt&)) {
    const BigInt& p = crypto().group().p();
    return host_.decode_memo().get<Wire>(frame_, body, p,
                                         [&] { return validate(body, p); });
  }

 private:
  SharedBytes frame_;  // the frame of the message in hand, else null
  bool in_flight_ = false;
  bool restarting_ = false;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t restarts_ = 0;
};

/// Factory for the protocol implementations.
std::unique_ptr<KeyAgreement> make_protocol(ProtocolKind kind, ProtocolHost& host);

/// Helpers shared by the protocol implementations -------------------------

/// Picks the "core" (existing-group) side out of a view change's sides:
/// the largest side, ties broken by smallest member id. Deterministic and
/// identical at every member.
const std::vector<ProcessId>* core_side(const ViewDelta& delta);

/// Serialization of big integers inside protocol messages.
void put_bigint(Writer& w, const BigInt& v);
BigInt get_bigint(Reader& r);

/// True iff `v` is a plausible group element: v in [2, p-2]. Excludes the
/// degenerate values (0, 1, p-1, anything >= p) an attacker substitutes to
/// collapse or bias a DH exchange; every validated decoder applies this to
/// every wire bignum.
bool in_group_range(const BigInt& v, const BigInt& p);

/// Upper bound on member-list lengths in protocol messages. Far above any
/// realistic group (the paper evaluates up to ~100) yet small enough that a
/// hostile length prefix cannot drive memory or CPU blow-ups.
inline constexpr std::uint32_t kMaxWireMembers = 4096;

}  // namespace sgk
