// Single-threaded epoll readiness loop — the engine under the frame
// server (net/frameserver.h). One thread owns every registered fd and
// all connection state, so per-connection read/write machines need no
// locks; the only cross-thread surfaces are Post() (an eventfd-woken
// task queue that pool threads use to hand finished replies back to the
// loop) and Stop().
//
// Handlers receive the ready-event bitmask (EPOLLIN/EPOLLOUT/...). A
// handler may Remove() any fd — including its own — mid-dispatch: the
// loop looks handlers up by fd per event and skips ones that vanished,
// so "close the connection from inside its handler" is the normal
// eviction path, not a hazard.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/status.h"

namespace autovac::net {

class EventLoop {
 public:
  using IoHandler = std::function<void(uint32_t events)>;

  EventLoop() = default;
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Creates the epoll instance and the wakeup eventfd.
  [[nodiscard]] Status Init();

  // Registers `fd` for `events` (EPOLLIN etc.). The handler runs on the
  // loop thread. The caller keeps fd ownership; Remove() before close.
  [[nodiscard]] Status Add(int fd, uint32_t events, IoHandler handler);

  // Changes the interest set of a registered fd (write-readiness on/off
  // is the buffered-writer's backpressure valve).
  [[nodiscard]] Status Modify(int fd, uint32_t events);

  // Unregisters; safe for fds that were never added (no-op) and from
  // inside a handler.
  void Remove(int fd);

  // Enqueues `task` to run on the loop thread and wakes it. Thread-safe;
  // the worker-pool -> loop handoff for mutation replies.
  void Post(std::function<void()> task);

  // Runs until Stop(). `on_tick` (may be null) fires once every
  // `tick_ms`, busy or idle — the idle-connection sweep hook.
  void Run(uint64_t tick_ms = 500,
           const std::function<void()>& on_tick = nullptr);

  // Thread-safe, idempotent. Run() returns after finishing the current
  // dispatch batch and draining posted tasks.
  void Stop();

 private:
  void DrainPosted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  // shared_ptr so a handler stays alive through its own Remove().
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;

  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace autovac::net
