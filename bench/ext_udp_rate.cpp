// Extension: what the batched UDP data plane buys — loopback packet rate
// (pps) and wire throughput (Gbps) of send_batch_blocking under the
// sendmmsg backend (with and without UDP segmentation offload) vs the
// portable per-sendto fallback, across payload sizes, plus the cost of
// one frame DELIVERY (send and receive) of a member-major burst with
// and without GSO/GRO (docs/DATAPLANE.md).
//
// The frames are built once per point through the zero-copy tx path the
// protocol senders use: a net::PacketArena slab, sealed in place with
// fec::serialize_into — so the measured loop is exactly the production
// data plane minus the protocol logic.  The receiver socket is never
// drained; once its buffer fills the kernel drops on delivery, which is
// the standard way to measure raw tx syscall rate without a consumer
// thread.  Differences between the rows are therefore pure syscall
// amortisation: one sendto per frame, one sendmmsg per 128 frames
// ("batched"), or one sendmmsg entry per 64 same-size frames that the
// kernel segments itself ("gso").
//
// The delivery table sends a 4-member x 16-frame burst of 1 KiB-payload
// frames member-major, as the server stages a data burst, and drains it
// at every member; it reports wall ns per delivered frame for plain
// sendmmsg/recvmmsg, GSO send only, and GSO send with GRO receive.
//
// Each point reports the best of --reps passes (minimum wall time — the
// run least disturbed by scheduler noise).  --json=out.json emits
// pbl-bench-v1; perf.reps_per_sec is total frames over total send time
// of the fallback and batched rows, the figure the perf-smoke CI leg
// gates on.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fec/packet.hpp"
#include "net/udp/packet_arena.hpp"
#include "net/udp/udp_transport.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pbl;

namespace {

struct Rate {
  double pps = 0.0;
  double gbps = 0.0;
  double wall = 0.0;  ///< best-pass seconds, summed into perf totals
};

Rate measure(net::UdpSocket& tx, std::span<const net::FrameRef> refs,
             std::size_t reps) {
  const double bytes_per_frame =
      static_cast<double>(refs.empty() ? 0 : refs.front().bytes.size());
  tx.send_batch_blocking(refs);  // warm-up pass (page-in, route cache)
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const double s =
        bench::time_seconds([&] { tx.send_batch_blocking(refs); });
    if (best == 0.0 || s < best) best = s;
  }
  Rate rate;
  rate.wall = best;
  if (best > 0.0) {
    rate.pps = static_cast<double>(refs.size()) / best;
    rate.gbps = static_cast<double>(refs.size()) * bytes_per_frame * 8.0 /
                best / 1e9;
  }
  return rate;
}

/// One delivery mode: which side may use segmentation offload (the
/// probe is failed for the other).
struct Plane {
  const char* name;
  bool gso;
  bool gro;
};

net::UdpSocket make_socket(bool offload) {
  std::optional<net::ScopedUdpOffloadProbeFailure> off;
  if (!offload) off.emplace();
  return net::UdpSocket();
}

/// Median wall ns per delivered frame over `bursts` member-major bursts.
double delivery_ns(const Plane& plane, std::size_t members,
                   std::size_t frames_per_member, std::size_t payload,
                   std::size_t bursts) {
  net::UdpSocket tx = make_socket(plane.gso);
  std::vector<net::UdpSocket> rx;
  for (std::size_t m = 0; m < members; ++m)
    rx.push_back(make_socket(plane.gro));
  std::vector<std::vector<std::uint8_t>> frames(frames_per_member);
  fec::Packet p;
  p.header.type = fec::PacketType::kData;
  p.header.k = 1;
  p.header.n = 1;
  p.payload.assign(payload, 0x5A);
  for (std::size_t i = 0; i < frames_per_member; ++i) {
    p.header.seq = static_cast<std::uint32_t>(i);
    frames[i] = fec::serialize(p);
  }
  std::vector<net::FrameRef> refs;
  for (const auto& s : rx)
    for (const auto& f : frames) refs.push_back({s.port(), f});

  std::vector<fec::Packet> got;
  std::vector<double> per_frame;
  for (std::size_t b = 0; b < bursts; ++b) {
    std::size_t delivered = 0;
    const double s = bench::time_seconds([&] {
      tx.send_batch_blocking(refs);
      for (auto& sock : rx) {
        std::size_t want = frames_per_member;
        while (want > 0) {
          got.clear();
          const std::size_t n = sock.receive_batch(got, want, 0.05);
          if (n == 0) break;  // lost on loopback: count what arrived
          want -= n;
          delivered += n;
        }
      }
    });
    if (delivered > 0)
      per_frame.push_back(s * 1e9 / static_cast<double>(delivered));
  }
  if (per_frame.empty()) return 0.0;
  std::nth_element(per_frame.begin(), per_frame.begin() + per_frame.size() / 2,
                   per_frame.end());
  return per_frame[per_frame.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto frames = static_cast<std::size_t>(cli.get_int64("frames", 40000));
  const auto reps = static_cast<std::size_t>(cli.get_int64("reps", 3));
  const std::string json_path = cli.get_string("json", "");
  if (cli.has("help")) {
    std::puts(cli.usage().c_str());
    return 0;
  }

  bench::banner(
      "Extension: batched UDP data-plane rate (sendmmsg, GSO, per-sendto)",
      std::to_string(frames) + " arena-built frames per pass, best of " +
          std::to_string(reps) + " passes, payloads {64, 512, 1400} B, "
          "loopback, undrained receiver",
      "batching amortises one syscall over 128 frames, so small payloads "
      "(syscall-bound) gain the most; large payloads converge toward the "
      "kernel's per-byte copy cost");

  bench::BenchJson json("ext_udp_rate");
  json.setup("frames", static_cast<std::int64_t>(frames));
  json.setup("reps", static_cast<std::int64_t>(reps));
  json.setup("batched_available", net::udp_batched_available());

  double total_wall = 0.0;
  std::uint64_t total_frames = 0;

  Table t({"payload_B", "backend", "pps", "gbps", "speedup_vs_sendto"});
  for (const std::size_t payload :
       {std::size_t{64}, std::size_t{512}, std::size_t{1400}}) {
    net::UdpSocket rx;  // never drained: the kernel drops once rcvbuf fills
    net::UdpSocket tx = make_socket(/*offload=*/false);
    net::UdpSocket gso_tx = make_socket(/*offload=*/true);

    // Build every frame through the production zero-copy path: arena
    // slab, header + payload + CRC sealed in place.
    const std::size_t wire = fec::wire_size(payload);
    net::PacketArena arena(wire, frames);
    std::vector<net::FrameRef> refs;
    refs.reserve(frames);
    fec::Packet p;
    p.header.type = fec::PacketType::kData;
    p.header.k = 1;
    p.header.n = 1;
    p.header.index = 0;
    p.payload.assign(payload, 0x5A);
    for (std::size_t i = 0; i < frames; ++i) {
      const auto frame = arena.acquire();
      if (!frame) return 1;  // capacity == frames: cannot happen
      p.header.seq = static_cast<std::uint32_t>(i);
      fec::serialize_into(p, frame->bytes);
      refs.push_back({rx.port(), frame->bytes});
    }

    Rate fallback, batched, gso;
    {
      net::ScopedUdpBackendOverride o(net::UdpBackend::kFallback);
      fallback = measure(tx, refs, reps);
    }
    {
      net::ScopedUdpBackendOverride o(net::UdpBackend::kBatched);
      batched = measure(tx, refs, reps);
      gso = measure(gso_tx, refs, reps);
    }
    total_wall += fallback.wall + batched.wall;
    total_frames += 2 * frames;

    const double speedup =
        fallback.pps > 0.0 ? batched.pps / fallback.pps : 0.0;
    t.add_row({static_cast<long long>(payload), std::string("fallback"),
               fallback.pps, fallback.gbps, 1.0});
    t.add_row({static_cast<long long>(payload), std::string("batched"),
               batched.pps, batched.gbps, speedup});
    json.point({{"payload", static_cast<std::int64_t>(payload)},
                {"backend", "fallback"},
                {"pps", fallback.pps},
                {"gbps", fallback.gbps}});
    json.point({{"payload", static_cast<std::int64_t>(payload)},
                {"backend", "batched"},
                {"pps", batched.pps},
                {"gbps", batched.gbps},
                {"speedup_vs_sendto", speedup}});
    if (gso_tx.gso_enabled()) {
      const double gso_speedup =
          fallback.pps > 0.0 ? gso.pps / fallback.pps : 0.0;
      t.add_row({static_cast<long long>(payload), std::string("gso"), gso.pps,
                 gso.gbps, gso_speedup});
      json.point({{"payload", static_cast<std::int64_t>(payload)},
                  {"backend", "gso"},
                  {"pps", gso.pps},
                  {"gbps", gso.gbps},
                  {"speedup_vs_sendto", gso_speedup}});
    }
  }

  t.set_precision(4);
  std::printf("%s", t.to_string().c_str());
  std::printf("\n%llu frames, %.3f s send time, %.3g frames/s\n",
              static_cast<unsigned long long>(total_frames), total_wall,
              total_wall > 0.0 ? static_cast<double>(total_frames) / total_wall
                               : 0.0);

  // Delivery cost of a member-major burst, send plus receive.
  if (net::udp_batched_available()) {
    const net::ScopedUdpBackendOverride o(net::UdpBackend::kBatched);
    constexpr std::size_t kMembers = 4, kFrames = 16, kPayload = 1024;
    const std::size_t bursts = std::max<std::size_t>(200, frames / 40);
    Table d({"mode", "ns_per_frame_delivery", "speedup_vs_sendmmsg"});
    double base = 0.0;
    for (const Plane plane : {Plane{"sendmmsg", false, false},
                              Plane{"gso", true, false},
                              Plane{"gso+gro", true, true}}) {
      if ((plane.gso || plane.gro) && !make_socket(true).gso_enabled()) break;
      const double ns = delivery_ns(plane, kMembers, kFrames, kPayload, bursts);
      if (base == 0.0) base = ns;
      const double speedup = ns > 0.0 ? base / ns : 0.0;
      d.add_row({std::string(plane.name), ns, speedup});
      json.point({{"delivery", plane.name},
                  {"members", static_cast<std::int64_t>(kMembers)},
                  {"frames_per_member", static_cast<std::int64_t>(kFrames)},
                  {"payload", static_cast<std::int64_t>(kPayload)},
                  {"ns_per_frame", ns},
                  {"speedup_vs_sendmmsg", speedup}});
    }
    d.set_precision(4);
    std::printf("\nmember-major burst delivery (%zu members x %zu frames x "
                "%zu B payload, median of %zu bursts)\n%s",
                kMembers, kFrames, kPayload, bursts, d.to_string().c_str());
  }

  json.perf(1, total_wall, total_frames);
  return json.write_file(json_path) ? 0 : 1;
}
