// Byte-buffer helpers shared across the library.
//
// `Bytes` is the canonical octet-string type for keys, hashes, wire messages
// and ciphertexts. Helpers here keep hex conversion and constant-time
// comparison in one place.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sgk {

using Bytes = std::vector<std::uint8_t>;

/// Read-only view of bytes owned elsewhere, e.g. one field of a wire frame.
using ByteView = std::span<const std::uint8_t>;

/// An immutable byte string held by handle. The network stamps each data
/// frame once as a SharedBytes; its log, every receiver and the verify memo
/// share that one object instead of copying it, and nothing writes through
/// it. Changed bytes are a new object.
using SharedBytes = std::shared_ptr<const Bytes>;

/// Encodes `data` as lowercase hex.
std::string to_hex(const Bytes& data);

/// Decodes a hex string (upper or lower case, no separators).
/// Throws std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Equality of public bytes. Two views of the same memory are equal without
/// a compare, so a frame held by handle matches itself for free.
inline bool equal_bytes(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  if (a.data() == b.data() || a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// True when `part` lies within `whole`'s memory: a view read from it.
inline bool views_into(ByteView whole, ByteView part) {
  const std::less_equal<const std::uint8_t*> le;
  return le(whole.data(), part.data()) &&
         le(part.data() + part.size(), whole.data() + whole.size());
}

/// Constant-time equality for secret material. Returns false on length
/// mismatch without inspecting contents.
bool ct_equal(const Bytes& a, const Bytes& b);

/// Converts an ASCII string to bytes (no terminator).
Bytes str_bytes(std::string_view s);

/// XOR of two equal-length buffers. Throws std::invalid_argument otherwise.
Bytes xor_bytes(const Bytes& a, const Bytes& b);

}  // namespace sgk
