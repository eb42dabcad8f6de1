#include "net/udp/packet_arena.hpp"

#include <cstring>
#include <stdexcept>

// Manual ASan poisoning: released frames become red zones inside our own
// slab, so a stale pointer dereference aborts with a use-after-free report
// instead of silently corrupting the next packet.
#if defined(__SANITIZE_ADDRESS__)
#define PBL_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PBL_ARENA_ASAN 1
#endif
#endif

#ifdef PBL_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define PBL_ARENA_POISON(p, n) __asan_poison_memory_region((p), (n))
#define PBL_ARENA_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define PBL_ARENA_POISON(p, n) ((void)0)
#define PBL_ARENA_UNPOISON(p, n) ((void)0)
#endif

namespace pbl::net {

namespace {

// Whether all n bytes at p still hold the release stamp.  Compared a
// word at a time (OR-folded, so the loop vectorises) with a byte loop
// for the tail; any scribbled byte leaves a non-zero fold.
bool canary_intact(const std::uint8_t* p, std::size_t n) noexcept {
  constexpr std::uint64_t kWord = 0x0101010101010101ull * PacketArena::kCanary;
  std::uint64_t diff = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    diff |= w ^ kWord;
  }
  for (; i < n; ++i) diff |= p[i] ^ PacketArena::kCanary;
  return diff == 0;
}

}  // namespace

PacketArena::PacketArena(std::size_t frame_size, std::size_t frames)
    : frame_size_(frame_size), frames_(frames),
      slab_(frame_size * frames, kCanary), is_free_(frames, true) {
  if (frame_size == 0 || frames == 0)
    throw std::invalid_argument("PacketArena: zero-sized arena");
  free_.reserve(frames);
  // Push in reverse so the first acquire() hands out frame 0 — makes test
  // expectations and debug dumps read naturally.
  for (std::size_t i = frames; i-- > 0;) free_.push_back(i);
  PBL_ARENA_POISON(slab_.data(), slab_.size());
}

PacketArena::~PacketArena() {
  // The vector's own destructor (and ASan's delete hooks) must see the
  // slab addressable again.
  PBL_ARENA_UNPOISON(slab_.data(), slab_.size());
}

std::optional<PacketArena::Frame> PacketArena::acquire() {
  if (free_.empty()) return std::nullopt;
  const std::size_t index = free_.back();
  free_.pop_back();
  is_free_[index] = false;
  std::uint8_t* p = frame_ptr(index);
  PBL_ARENA_UNPOISON(p, frame_size_);
  if (!canary_intact(p, frame_size_)) ++canary_violations_;
  std::memset(p, 0, frame_size_);
  return Frame{index, std::span<std::uint8_t>(p, frame_size_)};
}

void PacketArena::release(const Frame& frame) {
  if (frame.index >= frames_)
    throw std::invalid_argument("PacketArena: foreign frame");
  if (is_free_[frame.index])
    throw std::logic_error("PacketArena: double free");
  is_free_[frame.index] = true;
  std::uint8_t* p = frame_ptr(frame.index);
  std::memset(p, kCanary, frame_size_);
  PBL_ARENA_POISON(p, frame_size_);
  free_.push_back(frame.index);
}

void PacketArena::release_all() {
  for (std::size_t i = 0; i < frames_; ++i) {
    if (is_free_[i]) continue;
    is_free_[i] = true;
    std::uint8_t* p = frame_ptr(i);
    std::memset(p, kCanary, frame_size_);
    PBL_ARENA_POISON(p, frame_size_);
    free_.push_back(i);
  }
}

}  // namespace pbl::net
