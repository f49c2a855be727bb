// Frame memo: the small table behind the verify and decode memos.
//
// Every local receiver of a multicast asks the same public question of the
// same frame (is this signature valid? what does this body decode to?). A
// FrameMemo holds the last kCapacity answers, the oldest replaced first.
// Each entry is keyed on views into a wire frame and holds that frame by
// handle, so the memo adds no copy of the bytes and its views stay valid
// for as long as the entry does. A view into the held frame object matches
// itself by identity (equal_bytes); an equal copy elsewhere matches by bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "util/bytes.h"
#include "util/check.h"

namespace sgk {

template <typename Entry, std::size_t kCapacity>
class FrameMemo {
 public:
  /// The first held entry `match` accepts (counted as a hit), or nullptr
  /// (counted as a miss).
  template <typename Match>
  const Entry* find(Match&& match) {
    for (const Held& h : held_) {
      if (h.frame != nullptr && match(h.entry)) {
        ++hits_;
        return &h.entry;
      }
    }
    ++misses_;
    return nullptr;
  }

  /// Holds `entry` in place of the oldest one. `views` are the views the
  /// entry keeps; each must point into `frame`, which is held with it.
  void store(const SharedBytes& frame, std::initializer_list<ByteView> views,
             Entry entry) {
    SGK_CHECK(frame != nullptr);
    for (const ByteView v : views) SGK_CHECK(views_into(*frame, v));
    Held& slot = held_[next_];
    next_ = (next_ + 1) % kCapacity;
    slot.frame = frame;
    slot.entry = std::move(entry);
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Held {
    SharedBytes frame;  // null: never filled
    Entry entry;
  };

  std::array<Held, kCapacity> held_;
  std::size_t next_ = 0;  // slot the next stored entry overwrites
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sgk
