// FreeRTOS-style fixed-capacity message queues ("real-time queuing",
// requirement (6) of [24] as cited in paper §4).
//
// Queues carry fixed-size items (4 words, matching the register-passed IPC
// message size).  Send/receive never block inside this module — blocking is
// a scheduler decision; the kernel (src/core) blocks the calling task when
// a queue op returns kWouldBlock and retries on wake.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "rtos/task.h"
#include "snap/snapshot.h"

namespace tytan::rtos {

using QueueHandle = int;
inline constexpr QueueHandle kNoQueue = -1;

/// One queue item: four 32-bit words (a register-sized IPC message).
using QueueItem = std::array<std::uint32_t, 4>;

class QueueSet {
 public:
  /// Create a queue with space for `capacity` items.
  Result<QueueHandle> create(std::size_t capacity);
  Status destroy(QueueHandle handle);

  /// Non-blocking send; Err::kUnavailable when full.
  Status send(QueueHandle handle, const QueueItem& item);
  /// Non-blocking receive; Err::kUnavailable when empty.
  Result<QueueItem> receive(QueueHandle handle);

  [[nodiscard]] Result<std::size_t> depth(QueueHandle handle) const;
  [[nodiscard]] Result<std::size_t> capacity(QueueHandle handle) const;

  /// Walk every queue (items and waiter lists) for machine snapshots
  /// (snap::Io).
  Status state(snap::Io& io);

  // -- waiter bookkeeping (kernel attaches blocked tasks here) -----------------
  void add_waiter_send(QueueHandle handle, TaskHandle task);
  void add_waiter_recv(QueueHandle handle, TaskHandle task);
  /// Pop one waiting task (FIFO) to wake after a state change; kNoTask if none.
  TaskHandle pop_waiter_send(QueueHandle handle);
  TaskHandle pop_waiter_recv(QueueHandle handle);

 private:
  struct Queue {
    bool used = false;
    std::size_t cap = 0;
    std::deque<QueueItem> items;
    std::deque<TaskHandle> waiters_send;
    std::deque<TaskHandle> waiters_recv;
  };

  [[nodiscard]] bool valid(QueueHandle handle) const {
    return handle >= 0 && handle < static_cast<QueueHandle>(queues_.size()) &&
           queues_[handle].used;
  }

  std::vector<Queue> queues_;
};

}  // namespace tytan::rtos
