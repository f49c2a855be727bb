// Burmester-Desmedt group key agreement.
//
// Fully symmetric, no controllers or sponsors, identical for every kind of
// membership change (the paper stresses this simplicity). Two rounds of n
// broadcasts each:
//   round 1: every member i broadcasts z_i = g^(r_i)
//   round 2: every member i broadcasts X_i = (z_{i+1} / z_{i-1})^(r_i)
// and then computes
//   K = z_{i-1}^(n r_i) * X_i^(n-1) * X_{i+1}^(n-2) * ... * X_{i+n-2}
//     = g^(r_1 r_2 + r_2 r_3 + ... + r_n r_1).
// The step-3 product is the paper's "hidden cost": n-2 small-exponent
// exponentiations plus n-2 modular multiplications.
#pragma once

#include <map>
#include <vector>

#include "bignum/secure_bigint.h"
#include "core/key_agreement.h"

namespace sgk {

class BdProtocol final : public KeyAgreement {
 public:
  explicit BdProtocol(ProtocolHost& host) : KeyAgreement(host) {}

  void handle_view(const View& view, const ViewDelta& delta) override;
  void handle_message(ProcessId sender, ByteView body) override;
  ProtocolKind kind() const override { return ProtocolKind::kBd; }

  enum MsgType : std::uint8_t { kZ = 1, kX = 2 };

  /// Fully decoded + validated wire message.
  struct Wire {
    std::uint8_t type = 0;
    BigInt value;  // z_i (kZ) or X_i (kX)
  };

  /// The only entrypoint that touches raw BD wire bytes: structural decode
  /// plus semantic validation (tag in {kZ, kX}, value in [2, p-2]). Never
  /// throws; a hostile body comes back as a typed rejection.
  static Decoded<Wire> validate_and_decode(ByteView body, const BigInt& p);

 private:

  std::size_t index_of(ProcessId p) const;
  ProcessId at_offset(std::size_t i, std::ptrdiff_t delta) const;
  void maybe_round2();
  void maybe_finish();

  View view_;
  SecureBigInt r_;  // my secret session random (zeroized on replace)
  // z_i and X_i are broadcast round values, not secrets.
  std::map<ProcessId, BigInt> z_;
  std::map<ProcessId, BigInt> x_values_;
  bool sent_x_ = false;
};

}  // namespace sgk
