// Priority-based preemptive scheduler with FreeRTOS semantics:
//   * fixed priorities, highest-priority ready task runs;
//   * round-robin time slicing among equal priorities on each tick;
//   * timed delays (vTaskDelay / vTaskDelayUntil);
//   * suspend/resume ("a list of tasks that are loaded but should not be
//     executed at the moment", paper §4);
//   * O(#priorities + #due-tasks) tick processing — bounded execution time,
//     as the real-time requirements demand.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/status.h"
#include "obs/hub.h"
#include "rtos/task.h"
#include "snap/snapshot.h"

namespace tytan::rtos {

struct TaskParams {
  std::string name;
  unsigned priority = 1;
  bool secure = false;
  TaskKind kind = TaskKind::kGuest;
};

/// `a` payload of a kSchedBlock event raised by suspend() rather than
/// block(); distinguishes it from every BlockReason value.
inline constexpr std::uint32_t kSuspendReasonCode = 0xFFu;

class Scheduler {
 public:
  // -- task lifecycle ----------------------------------------------------------
  Result<TaskHandle> create(const TaskParams& params);
  Status destroy(TaskHandle handle);

  [[nodiscard]] Tcb* get(TaskHandle handle);
  [[nodiscard]] const Tcb* get(TaskHandle handle) const;
  [[nodiscard]] Tcb* current();
  [[nodiscard]] TaskHandle current_handle() const { return current_; }

  // -- state transitions --------------------------------------------------------
  /// Make a task runnable (from blocked/suspended/fresh).
  Status make_ready(TaskHandle handle);
  /// Block the task with a reason; it leaves the ready structures.
  Status block(TaskHandle handle, BlockReason reason);
  /// Timed block until `wake_tick`.
  Status delay_until(TaskHandle handle, std::uint64_t wake_tick);
  Status suspend(TaskHandle handle);
  Status resume(TaskHandle handle);

  /// The running task was preempted; it goes to the back of its priority's
  /// ready queue (round-robin).
  void preempt_current();
  /// The running task voluntarily yielded; same queueing as preemption.
  void yield_current();

  // -- scheduling ----------------------------------------------------------------
  /// Highest-priority ready task (round-robin within a priority), or kNoTask.
  [[nodiscard]] TaskHandle pick_next();
  /// Mark `handle` as the running task (dequeues it from the ready lists).
  Status dispatch(TaskHandle handle);

  /// Advance the tick counter and wake tasks whose delay expired.
  /// Returns true if a task with priority above the current task's woke up
  /// (i.e., a reschedule is needed).
  bool tick();
  [[nodiscard]] std::uint64_t tick_count() const { return tick_count_; }

  /// True if a ready task has strictly higher priority than the current one.
  [[nodiscard]] bool higher_priority_ready() const;

  // -- introspection ----------------------------------------------------------------
  [[nodiscard]] std::size_t task_count() const;
  [[nodiscard]] std::vector<TaskHandle> handles() const;

  // -- snapshots ----------------------------------------------------------------
  /// Walk every TCB, the ready queues, the running task, and the tick
  /// counter (snap::Io).  A restore overwrites the full task table; which
  /// firmware tasks are valid is the kernel's call (Kernel::state).
  Status state(snap::Io& io);

  // -- observability ------------------------------------------------------------------
  /// Wire the platform observability hub (non-owning; nullptr = no events).
  /// Every state transition emits a typed event; nothing is charged to the
  /// simulated clock.
  void set_obs(obs::Hub* obs) { obs_ = obs; }

 private:
  void emit(obs::EventKind kind, TaskHandle handle, std::uint32_t a = 0,
            std::uint32_t b = 0) {
    if (obs_ != nullptr) {
      obs_->emit(kind, handle, a, b);
    }
  }
  void remove_from_ready(TaskHandle handle);
  [[nodiscard]] bool is_live(TaskHandle handle) const {
    return handle >= 0 && handle < static_cast<TaskHandle>(tasks_.size()) &&
           tasks_[handle] != nullptr && tasks_[handle]->state != TaskState::kDead;
  }

  std::vector<std::unique_ptr<Tcb>> tasks_;
  std::array<std::deque<TaskHandle>, kNumPriorities> ready_;
  TaskHandle current_ = kNoTask;
  std::uint64_t tick_count_ = 0;
  obs::Hub* obs_ = nullptr;
};

}  // namespace tytan::rtos
