// Verify memo: a small, exact table of signature checks that passed.
//
// Every receiver of a signed protocol frame checks the same public triple
// (sender key, signed bytes, signature), so a deployment of n members repeats
// each check about n times. The memo lets the first receiver pay for the
// hash and the modexp and hands every later receiver the same verdict for a
// scan of kCapacity entries: no SHA-256 on a hit.
//
// Exactness: a hit needs the same key entry, byte-equal signed bytes and
// byte-equal signature bytes, so it returns exactly what a full check of the
// same inputs returned, whatever the scheme does with the message. Only
// `true` verdicts are stored; a rejected triple is re-checked every time it
// arrives, and a mutated copy (different bytes) always misses.
//
// Memory: an entry holds by handle the frame its views point into (the
// network's one immutable SharedBytes per multicast), not a copy; the frame
// must own both views (core/frame_memo.h).
//
// Keys are identified by address: callers pass the entries of a Pki, which
// enrolls a process once and never frees or moves an entry while the
// deployment runs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/crypto_context.h"
#include "core/frame_memo.h"
#include "util/bytes.h"
#include "util/thread_annotations.h"

namespace sgk {

class VerifyMemo {
  // Owned by one SpreadNetwork and used only from its run's event loop.
  SGK_CONFINED_TO_RUN;

 public:
  /// Entries held; the oldest is replaced first.
  static constexpr std::size_t kCapacity = 16;

  /// The verdict for (pub, message, signature): `true` when this exact
  /// triple is held, otherwise `verify()`'s result, which is held for later
  /// calls only when it is `true`. `frame` owns the bytes both views point
  /// into and is held with a stored verdict.
  template <typename Verify>
  bool check(const VerifyKey& pub, const SharedBytes& frame, ByteView message,
             ByteView signature, Verify&& verify) {
    const auto same = [&](const Key& k) {
      return k.pub == &pub && equal_bytes(k.message, message) &&
             equal_bytes(k.signature, signature);
    };
    if (table_.find(same) != nullptr) return true;
    if (!verify()) return false;
    table_.store(frame, {message, signature}, Key{&pub, message, signature});
    return true;
  }

  std::uint64_t hits() const { return table_.hits(); }
  std::uint64_t misses() const { return table_.misses(); }

 private:
  struct Key {
    const VerifyKey* pub = nullptr;
    ByteView message;
    ByteView signature;
  };

  FrameMemo<Key, kCapacity> table_;
};

}  // namespace sgk
