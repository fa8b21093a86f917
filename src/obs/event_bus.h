// Cycle-stamped event ring buffer.
//
// Zero overhead when off: emit() is a single branch on `enabled_`; nothing is
// allocated, stamped, or copied until tracing is enabled.  The bus reads the
// cycle clock through a pointer wired by the owner (sim::Machine points it at
// its cycle counter) so emitters never pass timestamps explicitly — an event
// is stamped with the exact simulated cycle at which it was emitted.
//
// The ring holds the most recent `capacity` events; older ones are dropped
// (counted in dropped()).  emit() returns the recorded event, so the Hub
// drives metrics and per-task accounting from every event regardless of ring
// eviction.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/events.h"

namespace tytan::obs {

class EventBus {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit EventBus(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Wire the simulated cycle clock (non-owning; may be nullptr => stamp 0).
  void set_clock(const std::uint64_t* clock) { clock_ = clock; }

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Stamp and record an event.  Returns the recorded event (valid until the
  /// next emit), or nullptr while disabled.
  const Event* emit(EventKind kind, std::int32_t task = -1, std::uint32_t a = 0,
                    std::uint32_t b = 0) {
    if (!enabled_) {
      return nullptr;
    }
    const Event event{clock_ != nullptr ? *clock_ : 0, kind, task, a, b};
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
      return &ring_.back();
    }
    Event& slot = ring_[head_];
    slot = event;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    return &slot;
  }

  /// Events in emission order (oldest first).
  [[nodiscard]] std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  void clear() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  /// Side table mapping task handles to display names (exporters only; the
  /// hot emit path never touches strings).
  void set_task_name(std::int32_t task, std::string name) {
    task_names_[task] = std::move(name);
  }
  [[nodiscard]] std::string_view task_name(std::int32_t task) const {
    const auto it = task_names_.find(task);
    return it == task_names_.end() ? std::string_view{} : std::string_view{it->second};
  }
  [[nodiscard]] const std::map<std::int32_t, std::string>& task_names() const {
    return task_names_;
  }

 private:
  std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
  bool enabled_ = false;
  const std::uint64_t* clock_ = nullptr;
  std::map<std::int32_t, std::string> task_names_;
};

}  // namespace tytan::obs
