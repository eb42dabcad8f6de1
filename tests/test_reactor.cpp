// The reactor event loop on a ManualClock: timer ordering and lazy
// cancellation, fd dispatch under both backends, and the mid-dispatch
// mutation rules (handlers may add/remove fds and timers, including
// their own).  No sleeps anywhere — time only moves when the test says
// so, which is the whole point of the injected-clock contract.

#include "server/reactor.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace pbl::server {
namespace {

class Pipe {
 public:
  Pipe() {
    if (::pipe(fds_) != 0) throw std::runtime_error("pipe");
  }
  ~Pipe() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  int read_fd() const { return fds_[0]; }
  void poke() const {
    const char b = 1;
    ASSERT_EQ(::write(fds_[1], &b, 1), 1);
  }
  void drain() const {
    char buf[16];
    while (::read(fds_[0], buf, sizeof(buf)) == sizeof(buf)) {
    }
  }

 private:
  int fds_[2];
};

class ReactorBackends : public ::testing::TestWithParam<Reactor::Backend> {};

std::vector<Reactor::Backend> available_backends() {
  std::vector<Reactor::Backend> backends{Reactor::Backend::kPoll};
#ifdef __linux__
  backends.push_back(Reactor::Backend::kEpoll);
#endif
  return backends;
}

INSTANTIATE_TEST_SUITE_P(Both, ReactorBackends,
                         ::testing::ValuesIn(available_backends()),
                         [](const auto& info) {
                           return info.param == Reactor::Backend::kPoll
                                      ? "poll"
                                      : "epoll";
                         });

TEST_P(ReactorBackends, DispatchesReadableFd) {
  protocol::ManualClock clock;
  Reactor reactor(GetParam(), &clock);
  Pipe pipe;
  int fired = 0;
  reactor.add_fd(pipe.read_fd(), [&] {
    ++fired;
    pipe.drain();
  });
  EXPECT_FALSE(reactor.poll_once(0.0));  // nothing readable yet
  pipe.poke();
  EXPECT_TRUE(reactor.poll_once(0.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reactor.fd_count(), 1u);
  reactor.remove_fd(pipe.read_fd());
  EXPECT_EQ(reactor.fd_count(), 0u);
}

TEST_P(ReactorBackends, HandlerMayRemoveItsOwnFd) {
  protocol::ManualClock clock;
  Reactor reactor(GetParam(), &clock);
  Pipe pipe;
  int fired = 0;
  reactor.add_fd(pipe.read_fd(), [&] {
    ++fired;
    reactor.remove_fd(pipe.read_fd());
  });
  pipe.poke();
  EXPECT_TRUE(reactor.poll_once(0.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reactor.fd_count(), 0u);
  // The unread byte no longer has a handler; nothing fires.
  EXPECT_FALSE(reactor.poll_once(0.0));
}

TEST_P(ReactorBackends, EveryReadyFdRunsBeforeDueTimers) {
  // More ready fds than one epoll_wait used to report (64): a due timer
  // must still see every one of them serviced first.  Otherwise a
  // server's collect window can close while the answers to its POLL
  // sit unread in members' sockets, and the round is re-POLLed
  // spuriously after a backoff.
  protocol::ManualClock clock;
  Reactor reactor(GetParam(), &clock);
  std::vector<Pipe> pipes(100);
  std::size_t fired = 0;
  for (auto& p : pipes) {
    reactor.add_fd(p.read_fd(), [&fired, &p] {
      ++fired;
      p.drain();
    });
    p.poke();
  }
  std::size_t fired_at_timer = 0;
  reactor.add_timer(0.0, [&] { fired_at_timer = fired; });
  EXPECT_TRUE(reactor.poll_once(0.0));
  EXPECT_EQ(fired, pipes.size());
  EXPECT_EQ(fired_at_timer, pipes.size());
}

TEST(ReactorTimers, FireInDeadlineOrderWhenDue) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kPoll, &clock);
  std::vector<int> order;
  reactor.add_timer(2.0, [&] { order.push_back(2); });
  reactor.add_timer(1.0, [&] { order.push_back(1); });
  EXPECT_EQ(reactor.timer_count(), 2u);

  EXPECT_FALSE(reactor.poll_once(0.0));  // t=0: neither due
  clock.set(1.0);
  EXPECT_TRUE(reactor.poll_once(0.0));  // exactly at the deadline
  ASSERT_EQ(order, (std::vector<int>{1}));
  clock.set(5.0);
  EXPECT_TRUE(reactor.poll_once(0.0));  // both overdue: fires in order
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(reactor.timer_count(), 0u);
}

TEST(ReactorTimers, CancelledTimerNeverFires) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kPoll, &clock);
  int fired = 0;
  const Reactor::TimerId id = reactor.add_timer(1.0, [&] { ++fired; });
  reactor.add_timer(1.0, [&] { ++fired; });
  reactor.cancel_timer(id);
  EXPECT_EQ(reactor.timer_count(), 1u);  // lazy: count reflects live fns
  clock.set(2.0);
  reactor.poll_once(0.0);
  EXPECT_EQ(fired, 1);
}

TEST(ReactorTimers, TimerMayArmAnotherTimer) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kPoll, &clock);
  int chained = 0;
  reactor.add_timer(1.0, [&] {
    reactor.add_timer(clock.now(), [&] { ++chained; });  // due immediately
  });
  clock.set(1.0);
  reactor.poll_once(0.0);
  // The fire loop re-reads the heap, so a timer armed mid-dispatch that
  // is already due runs within the same round — AFTER the arming fn has
  // fully returned (this is what makes the server's deferred-finalize
  // pattern safe: the driver's stack is gone when its destructor runs).
  EXPECT_EQ(chained, 1);
}

TEST(ReactorTimers, TimerMayCancelAPeer) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kPoll, &clock);
  int victim = 0;
  Reactor::TimerId victim_id = 0;
  reactor.add_timer(1.0, [&] { reactor.cancel_timer(victim_id); });
  victim_id = reactor.add_timer(1.5, [&] { ++victim; });
  clock.set(2.0);
  reactor.poll_once(0.0);
  EXPECT_EQ(victim, 0);
}

TEST(ReactorLoop, RunStopsFromHandler) {
  protocol::ManualClock clock;
  clock.set(10.0);
  Reactor reactor(Reactor::Backend::kPoll, &clock);
  reactor.add_timer(10.0, [&] { reactor.stop(); });
  reactor.run();  // the due timer stops the loop on its first round
  EXPECT_TRUE(reactor.stopped());
}

TEST(ReactorApi, RejectsBadRegistrations) {
  protocol::ManualClock clock;
  Reactor reactor(Reactor::Backend::kPoll, &clock);
  EXPECT_THROW(reactor.add_fd(-1, [] {}), std::invalid_argument);
  Pipe pipe;
  reactor.add_fd(pipe.read_fd(), [] {});
  EXPECT_THROW(reactor.add_fd(pipe.read_fd(), [] {}), std::invalid_argument);
  reactor.remove_fd(pipe.read_fd());
  reactor.remove_fd(pipe.read_fd());  // double-remove is a no-op
}

TEST(ReactorClock, NowReadsInjectedClock) {
  protocol::ManualClock clock(42.0);
  Reactor reactor(Reactor::Backend::kPoll, &clock);
  EXPECT_DOUBLE_EQ(reactor.now(), 42.0);
  clock.advance(0.5);
  EXPECT_DOUBLE_EQ(reactor.now(), 42.5);
  EXPECT_EQ(&reactor.clock(), static_cast<const protocol::Clock*>(&clock));
}

}  // namespace
}  // namespace pbl::server
