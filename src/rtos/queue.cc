#include "rtos/queue.h"

namespace tytan::rtos {

Result<QueueHandle> QueueSet::create(std::size_t capacity) {
  if (capacity == 0) {
    return make_error(Err::kInvalidArgument, "queue capacity must be positive");
  }
  for (QueueHandle h = 0; h < static_cast<QueueHandle>(queues_.size()); ++h) {
    if (!queues_[h].used) {
      queues_[h] = Queue{.used = true, .cap = capacity};
      return h;
    }
  }
  queues_.push_back(Queue{.used = true, .cap = capacity});
  return static_cast<QueueHandle>(queues_.size() - 1);
}

Status QueueSet::destroy(QueueHandle handle) {
  if (!valid(handle)) {
    return make_error(Err::kNotFound, "no such queue");
  }
  queues_[handle] = Queue{};
  return Status::ok();
}

Status QueueSet::send(QueueHandle handle, const QueueItem& item) {
  if (!valid(handle)) {
    return make_error(Err::kNotFound, "no such queue");
  }
  Queue& queue = queues_[handle];
  if (queue.items.size() >= queue.cap) {
    return make_error(Err::kUnavailable, "queue full");
  }
  queue.items.push_back(item);
  return Status::ok();
}

Result<QueueItem> QueueSet::receive(QueueHandle handle) {
  if (!valid(handle)) {
    return make_error(Err::kNotFound, "no such queue");
  }
  Queue& queue = queues_[handle];
  if (queue.items.empty()) {
    return make_error(Err::kUnavailable, "queue empty");
  }
  QueueItem item = queue.items.front();
  queue.items.pop_front();
  return item;
}

Result<std::size_t> QueueSet::depth(QueueHandle handle) const {
  if (!valid(handle)) {
    return make_error(Err::kNotFound, "no such queue");
  }
  return queues_[handle].items.size();
}

Result<std::size_t> QueueSet::capacity(QueueHandle handle) const {
  if (!valid(handle)) {
    return make_error(Err::kNotFound, "no such queue");
  }
  return queues_[handle].cap;
}

Status QueueSet::state(snap::Io& io) {
  bool waiters = false;
  io.sequence(queues_, [&](Queue& queue) {
    io.boolean(queue.used);
    io.usize(queue.cap);
    io.sequence(queue.items, [&io](QueueItem& item) {
      for (std::uint32_t& word : item) {
        io.u32(word);
      }
    });
    for (int list = 0; list < 2; ++list) {  // send, then receive waiters
      std::uint32_t count = 0;
      io.u32(count);
      waiters = waiters || count != 0;
    }
  });
  if (waiters) {
    return make_error(Err::kCorrupt, "queue snapshot lists blocked waiters");
  }
  return Status::ok();
}

}  // namespace tytan::rtos
