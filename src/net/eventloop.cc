#include "net/eventloop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "support/strings.h"

namespace autovac::net {

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Status EventLoop::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(
        StrFormat("epoll_create1 failed: %s", std::strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const int err = errno;
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::Internal(
        StrFormat("eventfd failed: %s", std::strerror(err)));
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) != 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(wakeup) failed: %s", std::strerror(errno)));
  }
  return Status::Ok();
}

Status EventLoop::Add(int fd, uint32_t events, IoHandler handler) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(add) failed: %s", std::strerror(errno)));
  }
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
  return Status::Ok();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    return Status::Internal(
        StrFormat("epoll_ctl(mod) failed: %s", std::strerror(errno)));
  }
  return Status::Ok();
}

void EventLoop::Remove(int fd) {
  if (handlers_.erase(fd) == 0) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(task));
  }
  const uint64_t one = 1;
  while (::write(wake_fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void EventLoop::DrainPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    batch.swap(posted_);
  }
  for (auto& task : batch) task();
}

void EventLoop::Run(uint64_t tick_ms, const std::function<void()>& on_tick) {
  using Clock = std::chrono::steady_clock;
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  const auto period = std::chrono::milliseconds(tick_ms);
  Clock::time_point next_tick = Clock::now() + period;
  while (!stop_.load(std::memory_order_acquire)) {
    // The tick is due by the clock, not by an idle wait: traffic on any
    // one fd must not starve the sweep that every other fd relies on.
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        next_tick - Clock::now());
    const int ready = ::epoll_wait(
        epoll_fd_, events, kMaxEvents,
        static_cast<int>(std::max<int64_t>(wait.count(), 0)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // A handler earlier in this batch may have removed this fd (e.g.
      // an eviction closing a connection that was also read-ready).
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      const std::shared_ptr<IoHandler> handler = it->second;
      (*handler)(events[i].events);
    }
    DrainPosted();
    if (Clock::now() >= next_tick) {
      next_tick = Clock::now() + period;
      if (on_tick) on_tick();
    }
  }
  // One final drain so a Post racing Stop() is not silently dropped.
  DrainPosted();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  while (::write(wake_fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

}  // namespace autovac::net
