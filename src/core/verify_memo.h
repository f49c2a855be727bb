// Verify memo: a small, exact table of signature checks that passed.
//
// Every receiver of a signed protocol frame checks the same public triple
// (sender key, signed bytes, signature), so a deployment of n members repeats
// each check about n times. The memo lets the first receiver pay for the
// modexp and hands every later receiver the same verdict for one SHA-256 and
// a scan of kCapacity entries.
//
// Exactness: a hit needs the same key entry, an equal SHA-256 of the signed
// bytes and byte-equal signature bytes. PKCS#1 v1.5 and DSA verification read
// the message only through SHA-256(message), so a hit returns exactly what a
// full check would. Only `true` verdicts are stored; a rejected triple is
// re-checked every time it arrives, and a mutated copy (different bytes)
// always misses.
//
// Keys are identified by address: callers pass the entries of a Pki, which
// enrolls a process once and never frees or moves an entry while the
// deployment runs.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "core/crypto_context.h"
#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/thread_annotations.h"

namespace sgk {

class VerifyMemo {
  // Owned by one SpreadNetwork and used only from its run's event loop.
  SGK_CONFINED_TO_RUN;

 public:
  /// Entries held; the oldest is replaced first.
  static constexpr std::size_t kCapacity = 16;

  /// The verdict for (pub, SHA-256 digest, signature): `true` when this
  /// exact triple is held, otherwise `verify()`'s result, which is held for
  /// later calls only when it is `true`.
  template <typename Verify>
  bool check(const VerifyKey& pub, const Bytes& digest, const Bytes& signature,
             Verify&& verify) {
    SGK_CHECK(digest.size() == Sha256::kDigestSize);
    for (const Entry& e : entries_) {
      if (e.pub == &pub &&
          std::equal(digest.begin(), digest.end(), e.digest.begin()) &&
          e.signature == signature) {
        ++hits_;
        return true;
      }
    }
    ++misses_;
    if (!verify()) return false;
    Entry& slot = entries_[next_];
    next_ = (next_ + 1) % kCapacity;
    slot.pub = &pub;
    std::copy(digest.begin(), digest.end(), slot.digest.begin());
    slot.signature.assign(signature.begin(), signature.end());
    return true;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    const VerifyKey* pub = nullptr;  // null: never filled
    std::array<std::uint8_t, Sha256::kDigestSize> digest{};
    Bytes signature;  // reuses its capacity once filled
  };

  std::array<Entry, kCapacity> entries_;
  std::size_t next_ = 0;  // slot the next stored verdict overwrites
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sgk
