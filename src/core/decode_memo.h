// Decode memo: one validated decode per protocol frame per deployment.
//
// Every receiver of a multicast decodes the same body with the same group
// prime, and a protocol's validate_and_decode(body, p) is a pure function of
// those two inputs. The memo lets the first receiver run it and hands every
// later receiver the same result, read-only: a protocol copies what it keeps
// into its own state and never writes through the shared value.
//
// Exactness: a hit needs the same decoder (the Wire type), byte-equal body
// bytes and an equal p, so it returns exactly what the decoder would return.
// Rejections are pure results too and are shared the same way. An entry
// holds by handle the frame its body view points into, not a copy; the frame
// must own the view (core/frame_memo.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <typeinfo>

#include "bignum/bigint.h"
#include "core/frame_memo.h"
#include "core/reject.h"
#include "util/bytes.h"
#include "util/thread_annotations.h"

namespace sgk {

class DecodeMemo {
  // Owned by one SpreadNetwork and used only from its run's event loop.
  SGK_CONFINED_TO_RUN;

 public:
  /// Entries held; the oldest is replaced first. One on purpose: an entry
  /// keeps a decoded value alive (a whole key tree for TGDH and STR), and
  /// the agreed order hands every local receiver a frame back to back, so on
  /// a LAN one entry already shares every decode that sixteen would.
  static constexpr std::size_t kCapacity = 1;

  /// `decode()`'s result for (`Wire`, body, p), shared. `frame` owns the
  /// bytes `body` views and is held with a stored result.
  template <typename Wire, typename Decode>
  std::shared_ptr<const Decoded<Wire>> get(const SharedBytes& frame,
                                           ByteView body, const BigInt& p,
                                           Decode&& decode) {
    const std::type_info* type = &typeid(Wire);
    const auto same = [&](const Entry& e) {
      return e.type == type && equal_bytes(e.body, body) && e.p == p;
    };
    if (const Entry* e = table_.find(same))
      return std::static_pointer_cast<const Decoded<Wire>>(e->value);
    auto value = std::make_shared<const Decoded<Wire>>(decode());
    table_.store(frame, {body}, Entry{type, body, p, value});
    return value;
  }

  std::uint64_t hits() const { return table_.hits(); }
  std::uint64_t misses() const { return table_.misses(); }

 private:
  struct Entry {
    const std::type_info* type = nullptr;
    ByteView body;
    BigInt p;
    std::shared_ptr<const void> value;  // a Decoded<Wire> of `type`
  };

  FrameMemo<Entry, kCapacity> table_;
};

}  // namespace sgk
