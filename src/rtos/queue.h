// FreeRTOS-style fixed-capacity message queues ("real-time queuing",
// requirement (6) of [24] as cited in paper §4).
//
// Queues carry fixed-size items (4 words, matching the register-passed IPC
// message size).  Send and receive never block: the kernel's queue syscall
// (src/core) returns kSysErr to the calling task when the queue is full or
// empty, and the task polls again.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
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

  /// Walk every queue for machine snapshots (snap::Io).  Each queue's
  /// record ends with two waiter counts (send, receive), kept so the KRNL
  /// wire image does not move; they are always zero because the queue
  /// syscalls never block, and a load refuses a non-zero one (kCorrupt).
  Status state(snap::Io& io);

 private:
  struct Queue {
    bool used = false;
    std::size_t cap = 0;
    std::deque<QueueItem> items;
  };

  [[nodiscard]] bool valid(QueueHandle handle) const {
    return handle >= 0 && handle < static_cast<QueueHandle>(queues_.size()) &&
           queues_[handle].used;
  }

  std::vector<Queue> queues_;
};

}  // namespace tytan::rtos
