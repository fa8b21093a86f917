// Per-task cycle accounting driven by the event stream.
//
// Every simulated cycle between two *attribution switch points* belongs to
// exactly one target, so the books always balance:
//
//     platform + sum over tasks (run + irq)  ==  cycles since enable
//
// Switch points and their targets:
//   * irq-enter                -> (running task, irq)   — interrupt + context
//                                 save + kernel work charged to the task that
//                                 was interrupted (its "interrupt overhead")
//   * sched-dispatch firmware  -> (task, run)           — firmware tasks
//                                 (loader, RTM driver, idle) run host-side
//   * sched-dispatch guest     -> (task, irq)           — dispatch/restore
//                                 cost is context-switch overhead, not run time
//   * ctx-restore              -> (task, run)           — from here the task's
//                                 own instructions execute
//   * task-destroy of current  -> platform
//
// Before the first dispatch (secure boot, synchronous loads) everything is
// `platform`.  The tracker charges no simulated cycles and is exact by
// construction: tests assert the invariant above to the cycle.
#pragma once

#include <cstdint>
#include <map>

#include "obs/events.h"

namespace tytan::obs {

struct TaskCycles {
  std::uint64_t run = 0;   ///< cycles spent executing the task (guest code or
                           ///< firmware quanta)
  std::uint64_t irq = 0;   ///< interrupt, context-switch, and kernel overhead
                           ///< attributed to the task
  std::uint64_t faults = 0;  ///< fault events while the task was current
};

class TaskAccounting {
 public:
  /// Start (or restart) accounting at `cycle`; prior totals are kept.
  void enable(std::uint64_t cycle) {
    enabled_ = true;
    span_start_ = cycle;
    enabled_at_ = cycle;
    accounted_ = 0;
  }
  void disable(std::uint64_t cycle) {
    if (enabled_) {
      close_span(cycle);
      enabled_ = false;
    }
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Feed one event (Hub::emit feeds every event it records).
  void on_event(const Event& event);

  /// Close the open span up to `cycle` (call before reading totals).
  void flush(std::uint64_t cycle) {
    if (enabled_) {
      close_span(cycle);
    }
  }

  [[nodiscard]] const std::map<std::int32_t, TaskCycles>& tasks() const { return tasks_; }
  [[nodiscard]] std::uint64_t platform_cycles() const { return platform_; }
  /// Total cycles attributed so far == flush point - enable point.
  [[nodiscard]] std::uint64_t accounted_cycles() const { return accounted_; }
  /// Task the tracker currently attributes cycles to (-1 = platform).
  [[nodiscard]] std::int32_t current_task() const { return task_; }

 private:
  enum class Bucket : std::uint8_t { kPlatform, kRun, kIrq };

  void close_span(std::uint64_t cycle);
  void switch_to(std::uint64_t cycle, std::int32_t task, Bucket bucket) {
    close_span(cycle);
    task_ = task;
    bucket_ = bucket;
  }

  bool enabled_ = false;
  std::uint64_t span_start_ = 0;
  std::uint64_t enabled_at_ = 0;
  std::uint64_t accounted_ = 0;
  std::int32_t task_ = -1;
  Bucket bucket_ = Bucket::kPlatform;
  std::uint64_t platform_ = 0;
  std::map<std::int32_t, TaskCycles> tasks_;
};

}  // namespace tytan::obs
