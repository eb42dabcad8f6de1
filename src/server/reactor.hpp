// Single-threaded reactor event loop for the multicast server: readable
// file descriptors plus a monotone timer heap, multiplexed through epoll
// (Linux) with a portable poll(2) fallback.
//
// One thread owns one Reactor.  Handlers run inline on that thread, so
// driver state machines need no locks; a handler may freely add or
// remove fds and timers — including its own — during dispatch.  Time
// comes from an injected protocol::Clock, the same clock every session
// deadline reads (udp_np's unified-clock contract), so a test can pump
// the loop with a ManualClock and poll_once(0) instead of sleeping.
//
// The backend is chosen at construction: Backend::kAuto resolves to
// epoll when compiled on Linux, unless PBL_SERVER_BACKEND=poll in the
// environment forces the fallback — which is exactly how CI runs the
// server suites under both multiplexers on one machine.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "protocol/retry.hpp"

#ifdef __linux__
struct epoll_event;
#endif

namespace pbl::server {

class Reactor {
 public:
  enum class Backend { kAuto, kEpoll, kPoll };
  using TimerId = std::uint64_t;

  explicit Reactor(Backend backend = Backend::kAuto,
                   const protocol::Clock* clock = nullptr);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// The backend actually in use (never kAuto).
  Backend backend() const noexcept { return backend_; }
  double now() const { return clock_->now(); }
  const protocol::Clock& clock() const noexcept { return *clock_; }

  /// Registers `fd` for readability; `on_readable` runs on the loop
  /// thread each time it becomes ready.  One handler per fd.
  void add_fd(int fd, std::function<void()> on_readable);
  void remove_fd(int fd);

  /// One-shot timer at absolute clock time `when` (clock().now() units).
  TimerId add_timer(double when, std::function<void()> fn);
  void cancel_timer(TimerId id);

  /// Runs until stop().  With no fds and no timers the loop blocks in
  /// short waits, so an embedded caller should stop() from a handler.
  void run();
  /// One wait-dispatch round, blocking at most `max_wait_s` (0 = only
  /// what is ready now): every ready fd's handler runs once, then every
  /// due timer.  Returns true if any handler or timer ran.
  bool poll_once(double max_wait_s);
  void stop() noexcept { stopped_ = true; }
  bool stopped() const noexcept { return stopped_; }

  std::size_t fd_count() const noexcept { return handlers_.size(); }
  std::size_t timer_count() const noexcept { return timer_fns_.size(); }

 private:
  struct TimerEntry {
    double when;
    TimerId id;
    bool operator>(const TimerEntry& o) const {
      return when > o.when || (when == o.when && id > o.id);
    }
  };

  bool wait_ready(double wait_s, std::vector<int>& ready);
  /// Earliest live timer deadline, or +inf.
  double next_timer_deadline();

  Backend backend_ = Backend::kPoll;
  const protocol::Clock* clock_;
  int epoll_fd_ = -1;
#ifdef __linux__
  std::vector<epoll_event> events_;  ///< epoll_wait output, one per fd
#endif
  std::vector<int> ready_;  ///< poll_once's ready list, kept for reuse
  bool stopped_ = false;
  std::unordered_map<int, std::function<void()>> handlers_;
  std::unordered_map<TimerId, std::function<void()>> timer_fns_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timer_heap_;
  TimerId next_timer_id_ = 1;
};

}  // namespace pbl::server
