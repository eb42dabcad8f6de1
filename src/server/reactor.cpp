#include "server/reactor.hpp"

#include <poll.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace pbl::server {

namespace {

Reactor::Backend resolve_backend(Reactor::Backend requested) {
  if (requested != Reactor::Backend::kAuto) return requested;
  if (const char* env = std::getenv("PBL_SERVER_BACKEND")) {
    if (std::strcmp(env, "poll") == 0) return Reactor::Backend::kPoll;
    if (std::strcmp(env, "epoll") == 0) return Reactor::Backend::kEpoll;
  }
#ifdef __linux__
  return Reactor::Backend::kEpoll;
#else
  return Reactor::Backend::kPoll;
#endif
}

}  // namespace

Reactor::Reactor(Backend backend, const protocol::Clock* clock)
    : backend_(resolve_backend(backend)),
      clock_(clock ? clock : &protocol::steady_clock()) {
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0)
      throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
#else
  if (backend_ == Backend::kEpoll)
    throw std::invalid_argument("Reactor: epoll backend requires Linux");
#endif
}

Reactor::~Reactor() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::add_fd(int fd, std::function<void()> on_readable) {
  if (fd < 0) throw std::invalid_argument("Reactor::add_fd: bad fd");
  if (handlers_.count(fd))
    throw std::invalid_argument("Reactor::add_fd: fd already registered");
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0)
      throw std::system_error(errno, std::generic_category(), "epoll_ctl add");
  }
#endif
  handlers_.emplace(fd, std::move(on_readable));
}

void Reactor::remove_fd(int fd) {
  const auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
#ifdef __linux__
  if (backend_ == Backend::kEpoll)
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
  handlers_.erase(it);
}

Reactor::TimerId Reactor::add_timer(double when, std::function<void()> fn) {
  const TimerId id = next_timer_id_++;
  timer_fns_.emplace(id, std::move(fn));
  timer_heap_.push(TimerEntry{when, id});
  return id;
}

void Reactor::cancel_timer(TimerId id) {
  // Lazy cancellation: the heap entry stays and is skipped when popped.
  timer_fns_.erase(id);
}

double Reactor::next_timer_deadline() {
  while (!timer_heap_.empty() && !timer_fns_.count(timer_heap_.top().id))
    timer_heap_.pop();  // drop cancelled entries
  return timer_heap_.empty() ? std::numeric_limits<double>::infinity()
                             : timer_heap_.top().when;
}

bool Reactor::wait_ready(double wait_s, std::vector<int>& ready) {
  int timeout_ms;
  if (wait_s <= 0.0) {
    timeout_ms = 0;
  } else {
    // Ceil so a 0.4 ms deadline does not busy-spin as timeout 0.
    const double ms = std::ceil(wait_s * 1000.0);
    timeout_ms = ms > 86400000.0 ? 86400000 : static_cast<int>(ms);
  }

#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    // Room for every registered fd: one wait reports all that are ready,
    // as poll(2) does, so due timers never run ahead of I/O that was
    // already waiting (see poll_once).
    events_.resize(std::max<std::size_t>(handlers_.size(), 1));
    const int n = ::epoll_wait(epoll_fd_, events_.data(),
                               static_cast<int>(events_.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return false;
      throw std::system_error(errno, std::generic_category(), "epoll_wait");
    }
    for (int i = 0; i < n; ++i) ready.push_back(events_[i].data.fd);
    return n > 0;
  }
#endif

  std::vector<pollfd> pfds;
  pfds.reserve(handlers_.size());
  for (const auto& [fd, fn] : handlers_)
    pfds.push_back(pollfd{fd, POLLIN, 0});
  const int n =
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return false;
    throw std::system_error(errno, std::generic_category(), "poll");
  }
  for (const auto& pfd : pfds)
    if (pfd.revents & (POLLIN | POLLERR | POLLHUP)) ready.push_back(pfd.fd);
  return n > 0;
}

bool Reactor::poll_once(double max_wait_s) {
  // Bound the wait by the nearest live timer.
  double wait = max_wait_s;
  const double next = next_timer_deadline();
  if (std::isfinite(next)) {
    const double until = next - now();
    if (until < wait) wait = until;
  }
  if (wait < 0.0) wait = 0.0;

  // The ready list's storage is reused across waits; a poll_once nested
  // in a handler starts from an empty list of its own.
  std::vector<int> ready = std::move(ready_);
  ready.clear();
  wait_ready(wait, ready);

  bool ran = false;
  for (const int fd : ready) {
    // A previous handler in this batch may have removed this fd.
    const auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;
    it->second();  // may mutate handlers_/timers freely
    ran = true;
  }
  ready_ = std::move(ready);

  // Fire due timers (cancellation-aware).  A timer fn may arm new ones;
  // any armed with when <= t fires later in this same loop, but only
  // after the arming fn has returned — so a zero-delay timer is a safe
  // way to defer work off the current stack frame.
  const double t = now();
  while (!timer_heap_.empty() && timer_heap_.top().when <= t) {
    const TimerEntry e = timer_heap_.top();
    timer_heap_.pop();
    const auto it = timer_fns_.find(e.id);
    if (it == timer_fns_.end()) continue;  // cancelled
    auto fn = std::move(it->second);
    timer_fns_.erase(it);
    fn();
    ran = true;
  }
  return ran;
}

void Reactor::run() {
  stopped_ = false;
  while (!stopped_) poll_once(60.0);
}

}  // namespace pbl::server
