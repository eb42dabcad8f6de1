// Loopback NP session harness shared by the UDP session suites
// (test_udp_np, test_udp_differential, test_server_differential): one
// server::Reactor carrying a SenderSessionDriver and N
// ReceiverSessionDriver members over real loopback sockets, a tx tap
// that splits the sender's output into per-member wire streams, and a
// watchdog that ends a wedged run instead of hanging the suite.
//
// Sockets are bound when the Session is built, so a UDP backend
// override (net::ScopedUdpBackendOverride) must be in scope by then.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "server/session_driver.hpp"
#include "util/rng.hpp"

namespace pbl::np_session {

/// `tgs` transmission groups of `k` random `len`-byte packets.
inline std::vector<net::TgBytes> random_groups(std::size_t tgs, std::size_t k,
                                               std::size_t len,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<net::TgBytes> groups(tgs);
  for (auto& tg : groups) {
    tg.resize(k);
    for (auto& pkt : tg) {
      pkt.resize(len);
      for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
    }
  }
  return groups;
}

/// FNV-1a 64 of a wire stream: pins a member's bytes in one constant.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Member r's default receiver options: its own seeded loss stream and
/// eager verification of every decoded TG against `expected`.
inline server::ReceiverSessionDriver::Options member_options(
    std::size_t r, const std::vector<net::TgBytes>* expected,
    double data_loss = 0.0, double idle_timeout = 5.0) {
  server::ReceiverSessionDriver::Options opt;
  opt.idle_timeout = idle_timeout;
  opt.data_loss = data_loss;
  opt.rng = Rng(99).split(r);
  opt.expected = expected;
  return opt;
}

class Session {
 public:
  /// Binds the sender port and `members` member sockets; the members'
  /// ports, in order, form the group.
  explicit Session(std::size_t members)
      : tx(members), sender_socket_(std::in_place), receivers_(members) {
    for (std::size_t r = 0; r < members; ++r) {
      member_sockets_.emplace_back();
      group_.add_member(member_sockets_.back().port());
    }
    sender_port_ = sender_socket_->port();
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  server::Reactor reactor;
  /// Per-member wire stream, across every sender life.  Sender frames
  /// carry no ports, so streams compare across runs whose ephemeral
  /// ports differ.
  std::vector<std::vector<std::uint8_t>> tx;

  /// Builds member r's receiver driver on the reactor's clock.
  server::ReceiverSessionDriver& add_receiver(
      std::size_t r, std::size_t num_tgs, net::UdpNpConfig cfg,
      server::ReceiverSessionDriver::Options opt) {
    cfg.clock = &reactor.clock();
    receivers_.at(r) = std::make_unique<server::ReceiverSessionDriver>(
        reactor, std::move(member_sockets_.at(r)), sender_port_, num_tgs, cfg,
        std::move(opt), [this] { on_finished(); });
    return *receivers_[r];
  }

  /// Builds every member's receiver with member_options(r, &groups, ...).
  void add_receivers(const net::UdpNpConfig& cfg,
                     const std::vector<net::TgBytes>& groups,
                     double data_loss = 0.0, double idle_timeout = 5.0) {
    for (std::size_t r = 0; r < receivers_.size(); ++r)
      add_receiver(r, groups.size(), cfg,
                   member_options(r, &groups, data_loss, idle_timeout));
  }

  /// Builds a sender life on the session's port, tapped into `tx`.  The
  /// first life takes the socket bound at construction; a later one
  /// rebinds the port after end_sender_life().
  server::SenderSessionDriver& add_sender(
      net::UdpNpConfig cfg, const std::vector<net::TgBytes>& groups) {
    cfg.clock = &reactor.clock();
    net::UdpSocket socket = sender_socket_ ? std::move(*sender_socket_)
                                           : net::UdpSocket(sender_port_);
    sender_socket_.reset();
    socket.set_tx_tap(
        [this](std::uint16_t dest, std::span<const std::uint8_t> bytes) {
          const auto& ports = group_.members();
          for (std::size_t m = 0; m < ports.size(); ++m)
            if (ports[m] == dest)
              tx[m].insert(tx[m].end(), bytes.begin(), bytes.end());
        });
    sender_ = std::make_unique<server::SenderSessionDriver>(
        reactor, std::move(socket), group_, cfg, groups,
        [this] { on_finished(); });
    return *sender_;
  }

  /// Destroys the current sender life; its socket closes, freeing the
  /// port for the next life.  Receivers stay alive.
  void end_sender_life() { sender_.reset(); }

  server::SenderSessionDriver& sender() { return *sender_; }

  /// Starts every driver not yet started (receivers first) and runs the
  /// reactor until `done` holds.  Returns false when the watchdog fired
  /// first.  `done` is checked whenever a driver finishes.
  bool run_until(std::function<bool()> done, double watchdog = 60.0) {
    for (auto& r : receivers_)
      if (r) r->start();
    if (sender_) sender_->start();
    if (done()) return true;
    done_ = std::move(done);
    bool wedged = false;
    const auto timer = reactor.add_timer(reactor.now() + watchdog, [&] {
      wedged = true;
      reactor.stop();
    });
    reactor.run();
    if (!wedged) reactor.cancel_timer(timer);
    done_ = nullptr;
    return !wedged;
  }

  /// Runs until the sender (if any) and every built receiver finished.
  bool run(double watchdog = 60.0) {
    return run_until(
        [this] {
          if (sender_ && !sender_->finished()) return false;
          for (const auto& r : receivers_)
            if (r && !r->finished()) return false;
          return true;
        },
        watchdog);
  }

  std::vector<net::UdpNpReceiverResult> results() const {
    std::vector<net::UdpNpReceiverResult> out;
    for (const auto& r : receivers_)
      if (r) out.push_back(r->result());
    return out;
  }

  std::uint64_t payload_mismatches() const {
    std::uint64_t total = 0;
    for (const auto& r : receivers_)
      if (r) total += r->payload_mismatches();
    return total;
  }

 private:
  void on_finished() {
    if (done_ && done_()) reactor.stop();
  }

  std::vector<net::UdpSocket> member_sockets_;
  net::UdpGroup group_;
  std::optional<net::UdpSocket> sender_socket_;
  std::uint16_t sender_port_ = 0;
  std::unique_ptr<server::SenderSessionDriver> sender_;
  std::vector<std::unique_ptr<server::ReceiverSessionDriver>> receivers_;
  std::function<bool()> done_;
};

}  // namespace pbl::np_session
