// SHA-256 (FIPS 180-4).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace sgk {

/// Incremental SHA-256. Also provides the one-shot convenience function.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  void update(const std::uint8_t* data, std::size_t len);
  void update(ByteView data) { update(data.data(), data.size()); }

  /// Finalizes and returns the 32-byte digest. The object must not be used
  /// afterwards (reconstruct for a new hash).
  Bytes finish();

  /// One-shot digest.
  static Bytes digest(ByteView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace sgk
