// Allocation budget of the session drivers' receive path.  This binary
// replaces the global operator new with a counting one, so it runs apart
// from the other suites: a clean NP session must cost the receivers a
// bounded number of heap allocations per TG, however many datagrams
// carry it.
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "fec/fec_block.hpp"
#include "np_session.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pbl {
namespace {

/// Counts the allocations made while the reactor dispatches.
class CountedPump {
 public:
  explicit CountedPump(server::Reactor& reactor) : reactor_(reactor) {}

  /// Runs reactor rounds until `done` holds (or a bounded number of idle
  /// rounds passed); returns whether `done` held.
  template <class Done>
  bool until(Done done) {
    for (int idle = 0; !done(); ) {
      g_counting.store(true, std::memory_order_relaxed);
      const bool ran = reactor_.poll_once(0.05);
      g_counting.store(false, std::memory_order_relaxed);
      if (!ran && ++idle > 100) return false;
    }
    return true;
  }

 private:
  server::Reactor& reactor_;
};

TEST(ReceiveAllocations, CleanSessionAllocatesPerTgNotPerDatagram) {
  constexpr std::size_t kTgs = 32;
  constexpr std::size_t kMembers = 4;
  constexpr std::size_t kK = 16;
  constexpr std::size_t kLen = 1024;
  net::UdpNpConfig cfg;
  cfg.k = kK;
  cfg.h = 16;
  cfg.packet_len = kLen;
  const auto groups = np_session::random_groups(kTgs, kK, kLen, 7);

  np_session::Session session(kMembers);
  std::vector<server::ReceiverSessionDriver*> rx;
  for (std::size_t r = 0; r < kMembers; ++r)
    rx.push_back(&session.add_receiver(
        r, kTgs, cfg, np_session::member_options(r, &groups)));
  net::UdpSocket tx = session.take_sender_socket();
  for (auto* r : rx) r->start();

  // Every DATA frame is framed before counting starts: the sender's
  // costs are not the subject here.
  const fec::RseCode& code = fec::RseCode::shared(kK, kK + cfg.h);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint32_t tg = 0; tg < kTgs; ++tg) {
    fec::TgEncoder enc(tg, code, groups[tg]);
    for (std::size_t i = 0; i < kK; ++i) {
      frames.emplace_back(enc.frame_wire_size());
      enc.write_data_frame(i, 0, frames.back());
    }
  }
  fec::Packet end;
  end.header.type = fec::PacketType::kPoll;
  end.header.tg = net::kUdpEndOfSession;
  const auto end_frame = fec::serialize(end);

  CountedPump pump(session.reactor);
  std::vector<net::FrameRef> refs;
  for (std::size_t tg = 0; tg < kTgs; ++tg) {
    refs.clear();
    for (const auto* r : rx)
      for (std::size_t i = 0; i < kK; ++i)
        refs.push_back({r->port(), frames[tg * kK + i]});
    tx.send_batch_blocking(refs);
    ASSERT_TRUE(pump.until([&] {
      for (const auto* r : rx)
        if (r->tgs_done() < tg + 1) return false;
      return true;
    })) << "TG " << tg << " never decoded";
  }
  refs.clear();
  for (const auto* r : rx) refs.push_back({r->port(), end_frame});
  tx.send_batch_blocking(refs);
  ASSERT_TRUE(pump.until([&] {
    for (const auto* r : rx)
      if (!r->finished()) return false;
    return true;
  }));

  for (const auto* r : rx) {
    EXPECT_TRUE(r->result().complete);
    EXPECT_EQ(r->result().received, kTgs * kK);
    EXPECT_EQ(r->payload_mismatches(), 0u);
  }
  const std::size_t datagrams = kTgs * kMembers * kK + kMembers;
  const std::size_t allocs = g_allocs.load();
  RecordProperty("receive_allocations", static_cast<int>(allocs));
  RecordProperty("datagrams", static_cast<int>(datagrams));
  // O(TGs): a few per TG and member (the TG's slab) plus one-off costs,
  // where a per-datagram copy would cost 16 or more per TG and member.
  EXPECT_LE(allocs, 4 * kTgs * kMembers)
      << allocs << " allocations for " << datagrams << " datagrams";
}

}  // namespace
}  // namespace pbl
