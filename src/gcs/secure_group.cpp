#include "gcs/secure_group.h"

#include <algorithm>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "fault/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wallclock.h"
#include "util/check.h"

namespace sgk {

namespace {
const RsaPrivateKey& default_rsa(ProcessId self) {
  return RsaPrivateKey::test_key(static_cast<int>(self % 4));
}

/// Plain sub-key copy whose storage is wiped when the enclosing scope ends
/// (the cipher/MAC primitives take `Bytes`).
struct ScopedSubkey {
  // Stack-scoped wipe guard; never outlives the calling frame.
  SGK_CONFINED_TO_RUN;
  Bytes b;
  explicit ScopedSubkey(Bytes bytes) : b(std::move(bytes)) {}
  ~ScopedSubkey() { secure_zero(b.data(), b.size()); }
};
}  // namespace

double recovery_backoff_ms(double base_ms, double cap_ms, int attempt,
                           std::uint64_t seed, ProcessId self,
                           std::uint64_t epoch) {
  // A cap below the base would SHORTEN the first delay; the legacy contract
  // is that attempt 0 waits exactly base_ms, so the effective ceiling is
  // never less than the base.
  const double cap = cap_ms > 0 ? std::max(cap_ms, base_ms) : 0.0;
  const int shift = std::min(std::max(attempt, 0), 30);
  double d = base_ms * static_cast<double>(1u << shift);
  if (cap > 0) d = std::min(d, cap);
  if (attempt > 0) {
    d += d * 0.25 *
         fault::fault_unit(seed, static_cast<std::uint64_t>(self), epoch,
                           static_cast<std::uint64_t>(attempt));
  }
  return d;
}

SecureGroupMember::SecureGroupMember(SpreadNetwork& net, ProcessId self,
                                     std::shared_ptr<Pki> pki, MemberConfig config)
    : net_(net),
      self_(self),
      pki_(std::move(pki)),
      config_(std::move(config)),
      crypto_(dh_group(config_.dh_bits),
              config_.rsa ? *config_.rsa : default_rsa(self),
              config_.cost,
              Drbg(config_.seed * 0x9e3779b97f4a7c15ULL + self, "member"),
              net_.verify_memo(), config_.signature) {
  pki_->enroll(self_, crypto_.verify_key());
  net_.attach(self_, this);
  protocol_ = make_protocol(config_.protocol, *this);
}

SecureGroupMember::~SecureGroupMember() {
  *alive_ = false;
  net_.attach(self_, nullptr);
}

std::string SecureGroupMember::key_fingerprint() const {
  if (!has_key()) return {};
  Sha256 h;
  h.update(str_bytes("sgk-key-fingerprint"));
  const ScopedSubkey block(key_.reveal());
  h.update(block.b);
  Bytes digest = h.finish();
  digest.resize(8);
  return to_hex(digest);
}

void SecureGroupMember::join() { net_.join_group(config_.group, self_); }

void SecureGroupMember::leave() { net_.leave_group(config_.group, self_); }

void SecureGroupMember::request_rekey() {
  net_.refresh_group(config_.group, self_);
}

// ---------------------------------------------------------------------------
// framing

Bytes SecureGroupMember::frame_and_sign(WireKind kind, const Bytes& body) {
  obs::WallScope wall("serde/frame_encode");
  // The signature covers everything before it and follows it in the same
  // buffer.
  Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(epoch_);
  w.u32(self_);
  w.bytes(body);
  const Bytes sig = crypto_.sign(w.data());
  w.bytes(sig);
  Bytes wire = w.take();
  // Record the pristine wire for the loopback-integrity check (see
  // sent_wires_). Every protocol frame passes through here.
  sent_wires_.emplace_back(epoch_, wire);
  while (sent_wires_.size() > kMaxSentRecorded) sent_wires_.pop_front();
  return wire;
}

void SecureGroupMember::queue(SendKind kind, ProcessId dest, Bytes wire) {
  outbound_.push_back(Outbound{kind, dest, std::move(wire)});
}

void SecureGroupMember::send_multicast(Bytes body) {
  queue(SendKind::kMulticast, kNoProcess, frame_and_sign(WireKind::kProtocol, body));
}

void SecureGroupMember::send_ordered(ProcessId dest, Bytes body) {
  queue(SendKind::kOrdered, dest, frame_and_sign(WireKind::kProtocol, body));
}

void SecureGroupMember::send_unicast(ProcessId dest, Bytes body) {
  queue(SendKind::kUnicast, dest, frame_and_sign(WireKind::kProtocol, body));
}

void SecureGroupMember::mark_phase(const char* phase_name) {
  SGK_TRACE(tr->phase(phase_name, net_.simulator().now()));
}

void SecureGroupMember::mark_point(const char* point_name) {
  SGK_TRACE(if (tr->event_active()) {
    obs::SpanId mark = tr->instant(point_name, net_.simulator().now(),
                                   static_cast<std::uint32_t>(
                                       net_.machine_of(self_) + 1));
    tr->attr(mark, "member", obs::Json(static_cast<std::uint64_t>(self_)));
  });
}

void SecureGroupMember::deliver_key(const BigInt& group_secret) {
  // Derive a 64-byte key block (16B AES key, 16B IV seed, 32B HMAC key).
  Bytes material = group_secret.to_bytes();
  Writer info;
  info.str(config_.group);
  info.u64(epoch_);
  const std::size_t material_size = material.size();
  pending_key_ = SecureBytes(
      hkdf_sha256(material, str_bytes("sgk-group-key"), info.take(), 64));
  secure_zero(material.data(), material.size());
  crypto_.charge_symmetric(material_size + 64);
  protocol_->note_key_delivered();
}

void SecureGroupMember::end_handler() {
  const double cost = crypto_.take_charge();
  std::vector<Outbound> out = std::move(outbound_);
  outbound_.clear();
  std::optional<SecureBytes> key = std::move(pending_key_);
  pending_key_.reset();
  const std::uint64_t epoch = epoch_;

  // gka-lint: allow(GKA602) -- `!key` tests std::optional presence (key delivered this turn?), a public protocol event, not key bytes
  if (cost == 0 && out.empty() && !key) return;

  net_.cpu_of(self_).submit(
      self_, cost,
      [this, alive = alive_, out = std::move(out), key = std::move(key),
       epoch]() mutable {
        if (!*alive) return;
        for (Outbound& o : out) {
          // Account for traffic at release time.
          crypto_.counters().bytes_sent += o.wire.size();
          switch (o.kind) {
            case SendKind::kMulticast:
              ++crypto_.counters().multicasts;
              net_.multicast(config_.group, self_, std::move(o.wire));
              break;
            case SendKind::kOrdered:
              ++crypto_.counters().ordered_sends;
              net_.ordered_send(config_.group, self_, o.dest, std::move(o.wire));
              break;
            case SendKind::kUnicast:
              ++crypto_.counters().unicasts;
              net_.unicast(config_.group, self_, o.dest, std::move(o.wire));
              break;
          }
        }
        // gka-lint: allow(GKA601) -- optional-presence gate for the install path (did this epoch deliver a key), independent of the key value
        if (key) {
          key_ = std::move(*key);
          key_epoch_ = epoch;
          key_time_ = net_.simulator().now();
          recovery_attempts_ = 0;  // converged: refill the recovery budget
          watchdog_streak_ = 0;    // and restart the watchdog chain's backoff
          SGK_TRACE(if (tr->event_active()) {
            obs::SpanId mark = tr->instant(
                "key_install", key_time_,
                static_cast<std::uint32_t>(net_.machine_of(self_) + 1));
            tr->attr(mark, "member",
                     obs::Json(static_cast<std::uint64_t>(self_)));
            tr->attr(mark, "epoch", obs::Json(epoch));
          });
          if (key_listener_) key_listener_(key_time_, key_epoch_);
        }
      });
}

// ---------------------------------------------------------------------------
// GCS callbacks

void SecureGroupMember::on_view(const std::string& group, const View& view,
                                const ViewDelta& delta) {
  if (group != config_.group) return;
  // The agreed stream delivers views in increasing id order; anything else
  // is a stale straggler and must not roll the epoch back.
  if (view_ && view.view_id <= epoch_) {
    ++stale_dropped_;
    return;
  }
  if (protocol_->in_flight()) {
    // Cascaded membership event: this view interrupts a running agreement.
    // The protocol wrapper aborts and restarts it on the new membership.
    if (obs::MetricsRegistry* mr = obs::metrics())
      mr->counter("member/agreement_restarts").add();
  }
  view_ = view;
  view_time_ = net_.simulator().now();
  epoch_ = view.view_id;
  // Loopback records from dead epochs can no longer loop back.
  while (!sent_wires_.empty() && sent_wires_.front().first < epoch_)
    sent_wires_.pop_front();
  protocol_->on_view(view, delta);
  end_handler();

  // Watchdog arm: an adversary that erases a frame outright (e.g. replaces
  // it with a replay) leaves the members that needed it with nothing to
  // reject. If the agreement for this view is still in flight after the
  // deadline, request a rekey. The watchdog deliberately bypasses the
  // reject-path recovery budget: each view install arms exactly one shot,
  // and a fired shot produces a fresh view that arms the next, so the retry
  // chain is self-limiting and ends the moment an agreement completes. A
  // finite budget here would be exhausted by a long enough corruption storm
  // and leave the group wedged mid-agreement once the storm passed. The
  // trade-off is that the chain retries as long as agreements keep failing —
  // which is why the watchdog is opt-in (default off) and armed only by
  // bounded-horizon harnesses like run_fuzz.
  if (config_.recovery_watchdog_ms > 0) {
    const std::uint64_t epoch = epoch_;
    // Consecutive unkeyed fires stretch the chain's period exponentially
    // (streak resets on key install), so a long corruption storm costs
    // O(log) rekeys instead of one per fixed deadline while the chain stays
    // budget-exempt and therefore can never wedge.
    const double deadline = recovery_backoff_ms(
        config_.recovery_watchdog_ms, kRecoveryBackoffCapMs,
        watchdog_streak_, config_.seed, self_, epoch);
    net_.simulator().after(deadline, [this, alive = alive_, epoch] {
      if (!*alive || epoch_ != epoch) return;
      if (!protocol_->in_flight()) return;
      ++watchdog_streak_;
      ++recoveries_;
      if (obs::MetricsRegistry* mr = obs::metrics())
        mr->counter("member/recoveries").add();
      request_rekey();
    });
  }

  // Replay protocol frames that raced ahead of this view install, then drop
  // anything at or below the now-current epoch.
  std::vector<std::pair<ProcessId, SharedBytes>> replay;
  auto it = future_.find(epoch_);
  if (it != future_.end()) replay = std::move(it->second);
  future_.erase(future_.begin(), future_.upper_bound(epoch_));
  for (auto& [sender, payload] : replay) on_message(group, sender, payload);
}

Decoded<SecureGroupMember::OuterFrame> SecureGroupMember::validate_and_decode_frame(
    ByteView payload) {
  using D = Decoded<OuterFrame>;
  OuterFrame f;
  try {
    Reader r(payload);
    f.kind = r.u8();
    if (f.kind != static_cast<std::uint8_t>(WireKind::kProtocol) &&
        f.kind != static_cast<std::uint8_t>(WireKind::kData))
      return D::rejected(RejectReason::kBadTag);
    f.epoch = r.u64();
    f.claimed_sender = r.u32();
    f.body = r.view();
    f.signed_part = payload.first(r.position());
    if (f.kind == static_cast<std::uint8_t>(WireKind::kProtocol)) f.sig = r.view();
    if (!r.done()) return D::rejected(RejectReason::kTrailingBytes);
  } catch (const LengthError&) {
    return D::rejected(RejectReason::kBadLength);
  } catch (const DecodeError&) {
    return D::rejected(RejectReason::kTruncated);
  }
  return D::accepted(std::move(f));
}

Decoded<SecureGroupMember::DataBody> SecureGroupMember::validate_and_decode_data(
    ByteView body) {
  using D = Decoded<DataBody>;
  DataBody b;
  try {
    Reader r(body);
    b.seq = r.u64();
    b.sealed = r.bytes();
    if (!r.done()) return D::rejected(RejectReason::kTrailingBytes);
  } catch (const LengthError&) {
    return D::rejected(RejectReason::kBadLength);
  } catch (const DecodeError&) {
    return D::rejected(RejectReason::kTruncated);
  }
  return D::accepted(std::move(b));
}

Decoded<SecureGroupMember::SealedParts> SecureGroupMember::validate_and_decode_sealed(
    const Bytes& sealed) {
  using D = Decoded<SealedParts>;
  SealedParts s;
  try {
    Reader r(sealed);
    s.iv = r.bytes();
    s.ct = r.bytes();
    s.mac = r.bytes();
    if (!r.done()) return D::rejected(RejectReason::kTrailingBytes);
  } catch (const LengthError&) {
    return D::rejected(RejectReason::kBadLength);
  } catch (const DecodeError&) {
    return D::rejected(RejectReason::kTruncated);
  }
  return D::accepted(std::move(s));
}

void SecureGroupMember::reject_frame(RejectReason reason, std::size_t wire_size,
                                     bool recoverable) {
  ++frames_rejected_;
  if (obs::MetricsRegistry* mr = obs::metrics()) {
    const std::string proto = to_string(config_.protocol);
    mr->counter("frames_rejected/" + proto + "/" + to_string(reason)).add();
    mr->histogram("frames_rejected_bytes/" + proto)
        .observe(static_cast<double>(wire_size));
  }
  if (recoverable) schedule_recovery();
}

void SecureGroupMember::schedule_recovery() {
  // A rejected frame on the protocol path may have replaced an honest frame
  // the agreement needed. Give the protocol a grace delay to converge on its
  // own; if it is still in flight at this epoch, request a rekey. One
  // recovery per epoch: the rekey changes the epoch, so a repeat at the same
  // epoch means this recovery is already pending. The delay starts at
  // kRecoveryDelayMs and backs off exponentially (with seeded jitter)
  // across the consecutive failed recoveries of one convergence episode, so
  // a group fighting a persistent corruptor spaces its rekey storm out
  // instead of burning the whole 8-attempt budget at a fixed cadence.
  if (!view_ || last_recovery_epoch_ == epoch_) return;
  last_recovery_epoch_ = epoch_;
  const std::uint64_t epoch = epoch_;
  const double delay =
      recovery_backoff_ms(kRecoveryDelayMs, kRecoveryBackoffCapMs,
                          recovery_attempts_, config_.seed, self_, epoch);
  net_.simulator().after(delay, [this, alive = alive_, epoch] {
    if (!*alive || epoch_ != epoch) return;
    if (!protocol_->in_flight()) return;
    if (recovery_attempts_ >= kMaxRecoveryAttempts) return;
    ++recovery_attempts_;
    ++recoveries_;
    if (obs::MetricsRegistry* mr = obs::metrics())
      mr->counter("member/recoveries").add();
    request_rekey();
  });
}

void SecureGroupMember::note_frame_rejected(RejectReason reason) {
  // Protocol-level rejection (validate_and_decode or a semantic check inside
  // the handler) for the frame currently in hand.
  reject_frame(reason, current_frame_size_, /*recoverable=*/true);
}

void SecureGroupMember::on_message(const std::string& group, ProcessId sender,
                                   const SharedBytes& frame) {
  if (group != config_.group) return;
  const Bytes& payload = *frame;
  Decoded<OuterFrame> decoded;
  {
    obs::WallScope wall("serde/frame_decode");
    decoded = validate_and_decode_frame(payload);
  }
  if (!decoded.ok()) {
    reject_frame(decoded.reason, payload.size(), /*recoverable=*/true);
    end_handler();
    return;
  }
  OuterFrame& f = decoded.value;
  const std::uint64_t msg_epoch = f.epoch;

  if (f.kind == static_cast<std::uint8_t>(WireKind::kProtocol)) {
    if (msg_epoch > epoch_ + kMaxEpochWindow) {
      // No honest sender runs this far ahead; do not let hostile epochs
      // park frames in the future buffer.
      reject_frame(RejectReason::kEpochFarFuture, payload.size(), true);
      end_handler();
      return;
    }
    if (msg_epoch > epoch_) {
      // The sender already installed a newer view. Buffer the frame until
      // our own install lands (signature is verified at replay).
      std::size_t buffered = 0;
      for (const auto& [e, v] : future_) buffered += v.size();
      if (buffered < kMaxFutureBuffered)
        future_[msg_epoch].emplace_back(sender, frame);
      end_handler();
      return;
    }
    if (msg_epoch < epoch_) {
      // Stale instance: a view change aborted the agreement this frame
      // belongs to. Discarding it is the other half of the restart rule.
      ++stale_dropped_;
      if (obs::MetricsRegistry* mr = obs::metrics())
        mr->counter("member/stale_dropped").add();
      reject_frame(RejectReason::kEpochStale, payload.size(), false);
      end_handler();
      return;
    }
    if (f.claimed_sender != sender) {
      reject_frame(RejectReason::kSenderMismatch, payload.size(), true);
      end_handler();
      return;
    }
    if (view_ && !view_->contains(sender)) {
      reject_frame(RejectReason::kUnknownSender, payload.size(), true);
      end_handler();
      return;
    }
    if (sender == self_) {
      // Loopback integrity: my own frame cannot be verified against the PKI
      // more cheaply than against my own record of what I sent. A mismatch
      // means the wire was tampered in transit.
      auto it = sent_wires_.begin();
      for (; it != sent_wires_.end(); ++it)
        if (it->second == payload) break;
      if (it == sent_wires_.end()) {
        reject_frame(RejectReason::kLoopbackMismatch, payload.size(), true);
        end_handler();
        return;
      }
      sent_wires_.erase(it);
    } else if (config_.verify_signatures) {
      // The signed bytes are the frame's prefix up to the signature: verify
      // them in place, and let the memo hold the frame, not a copy.
      const VerifyKey* pub = pki_->find(sender);
      if (pub == nullptr) {
        reject_frame(RejectReason::kUnknownSender, payload.size(), true);
        end_handler();
        return;
      }
      if (!crypto_.verify(*pub, f.signed_part, f.sig, frame)) {
        reject_frame(RejectReason::kBadSignature, payload.size(), true);
        end_handler();
        return;
      }
    }
    current_frame_size_ = payload.size();
    try {
      protocol_->on_message(sender, f.body, frame);
    } catch (const CheckFailure&) {
      // An internal invariant tripped while handling an untrusted frame.
      // The member must survive it: count, recover, move on.
      reject_frame(RejectReason::kInternalCheck, payload.size(), true);
    } catch (const DecodeError&) {
      // Unreachable once every protocol decodes via validate_and_decode;
      // kept as a belt-and-braces guarantee that no frame throws past here.
      reject_frame(RejectReason::kTruncated, payload.size(), true);
    }
    end_handler();
    return;
  }

  // WireKind::kData
  if (sender == self_) return;
  if (f.claimed_sender != sender) {
    reject_frame(RejectReason::kSenderMismatch, payload.size(), false);
    end_handler();
    return;
  }
  if (msg_epoch != epoch_ || msg_epoch != key_epoch_ || !has_key()) {
    reject_frame(msg_epoch > epoch_ ? RejectReason::kEpochFarFuture
                                    : RejectReason::kEpochStale,
                 payload.size(), false);
    end_handler();
    return;
  }
  Decoded<DataBody> data = validate_and_decode_data(f.body);
  if (!data.ok()) {
    reject_frame(data.reason, payload.size(), false);
    end_handler();
    return;
  }
  // Replay protection: data frames carry a strictly increasing per-sender
  // sequence number (the "sequence numbers which identify the particular
  // protocol run" of section 3.2, applied to the data plane). The agreed
  // stream already delivers in order, so any non-increasing number is a
  // replay or an injection.
  // Senders number frames from 1, so a fresh filter entry (0) admits
  // the first frame and rejects a forged sequence number of 0.
  std::uint64_t& last = data_seq_seen_[sender];
  if (data.value.seq <= last) {
    reject_frame(RejectReason::kReplay, payload.size(), false);
    end_handler();
    return;
  }
  // The MAC binds epoch and sequence number (as associated data), so a
  // tampered sequence number cannot poison the replay filter.
  Writer aad;
  aad.u64(msg_epoch);
  aad.u64(data.value.seq);
  std::optional<Bytes> plain = open(data.value.sealed, aad.take());
  end_handler();
  if (plain) {
    last = data.value.seq;
    if (data_listener_) data_listener_(sender, *plain);
  } else {
    reject_frame(RejectReason::kBadMac, payload.size(), false);
  }
}

// ---------------------------------------------------------------------------
// data plane

Bytes SecureGroupMember::seal(const Bytes& plaintext, const Bytes& aad) {
  SGK_CHECK(has_key());
  const ScopedSubkey enc_key(key_.reveal(0, 16));
  const ScopedSubkey mac_key(key_.reveal(32, 32));
  Bytes iv = crypto_.random_bytes(16);
  Bytes ct = aes128_cbc_encrypt(enc_key.b, iv, plaintext);
  Writer mac_input;
  mac_input.bytes(iv);
  mac_input.bytes(ct);
  mac_input.bytes(aad);
  Bytes mac;
  {
    obs::WallScope wall("crypto/hash");
    mac = hmac_sha256(mac_key.b, mac_input.data());
  }
  crypto_.charge_symmetric(plaintext.size() + 48);
  Writer w;
  w.bytes(iv);
  w.bytes(ct);
  w.bytes(mac);
  return w.take();
}

std::optional<Bytes> SecureGroupMember::open(const Bytes& sealed, const Bytes& aad) {
  if (!has_key()) return std::nullopt;
  Decoded<SealedParts> parts = validate_and_decode_sealed(sealed);
  if (!parts.ok()) return std::nullopt;
  const SealedParts& s = parts.value;
  try {
    const ScopedSubkey enc_key(key_.reveal(0, 16));
    const ScopedSubkey mac_key(key_.reveal(32, 32));
    Writer mac_input;
    mac_input.bytes(s.iv);
    mac_input.bytes(s.ct);
    mac_input.bytes(aad);
    crypto_.charge_symmetric(s.ct.size() + 48);
    Bytes expect_mac;
    {
      obs::WallScope wall("crypto/hash");
      expect_mac = hmac_sha256(mac_key.b, mac_input.data());
    }
    if (!ct_equal(expect_mac, s.mac)) return std::nullopt;
    return aes128_cbc_decrypt(enc_key.b, s.iv, s.ct);
  } catch (const std::exception&) {
    // The cipher layer can still object (e.g. a ciphertext that is not a
    // whole number of blocks slipped past the MAC in a chosen-key setting).
    return std::nullopt;
  }
}

void SecureGroupMember::send_data(const Bytes& plaintext) {
  SGK_CHECK(has_key());
  const std::uint64_t seq = ++data_seq_sent_;
  Writer aad;
  aad.u64(key_epoch_);
  aad.u64(seq);
  Writer body;
  body.u64(seq);
  body.bytes(seal(plaintext, aad.take()));
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kData));
  w.u64(key_epoch_);
  w.u32(self_);
  w.bytes(body.take());
  queue(SendKind::kMulticast, kNoProcess, w.take());
  end_handler();
}

}  // namespace sgk
