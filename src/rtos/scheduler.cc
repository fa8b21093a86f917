#include "rtos/scheduler.h"

#include <algorithm>

namespace tytan::rtos {

const char* task_state_name(TaskState s) {
  switch (s) {
    case TaskState::kReady: return "ready";
    case TaskState::kRunning: return "running";
    case TaskState::kBlocked: return "blocked";
    case TaskState::kSuspended: return "suspended";
    case TaskState::kDead: return "dead";
  }
  return "?";
}

Result<TaskHandle> Scheduler::create(const TaskParams& params) {
  if (params.priority >= kNumPriorities) {
    return make_error(Err::kInvalidArgument, "priority out of range");
  }
  if (params.name.empty()) {
    return make_error(Err::kInvalidArgument, "task needs a name");
  }
  // Reuse a dead slot if available, else append.
  TaskHandle handle = kNoTask;
  for (TaskHandle h = 0; h < static_cast<TaskHandle>(tasks_.size()); ++h) {
    if (tasks_[h] != nullptr && tasks_[h]->state == TaskState::kDead) {
      handle = h;
      break;
    }
  }
  if (handle == kNoTask) {
    handle = static_cast<TaskHandle>(tasks_.size());
    tasks_.push_back(nullptr);
  }
  auto tcb = std::make_unique<Tcb>();
  tcb->handle = handle;
  tcb->name = params.name;
  tcb->priority = params.priority;
  tcb->secure = params.secure;
  tcb->kind = params.kind;
  tcb->state = TaskState::kSuspended;  // not runnable until made ready
  tasks_[handle] = std::move(tcb);
  if (obs_ != nullptr) {
    obs_->bus().set_task_name(handle, params.name);
  }
  emit(obs::EventKind::kTaskCreate, handle, params.priority,
       static_cast<std::uint32_t>(params.kind));
  return handle;
}

Status Scheduler::destroy(TaskHandle handle) {
  if (!is_live(handle)) {
    return make_error(Err::kNotFound, "destroy: no such task");
  }
  remove_from_ready(handle);
  if (current_ == handle) {
    current_ = kNoTask;
  }
  tasks_[handle]->state = TaskState::kDead;
  emit(obs::EventKind::kTaskDestroy, handle);
  return Status::ok();
}

Tcb* Scheduler::get(TaskHandle handle) {
  return is_live(handle) ? tasks_[handle].get() : nullptr;
}

const Tcb* Scheduler::get(TaskHandle handle) const {
  return const_cast<Scheduler*>(this)->get(handle);
}

Tcb* Scheduler::current() { return get(current_); }

Status Scheduler::make_ready(TaskHandle handle) {
  Tcb* tcb = get(handle);
  if (tcb == nullptr) {
    return make_error(Err::kNotFound, "make_ready: no such task");
  }
  if (tcb->state == TaskState::kReady || tcb->state == TaskState::kRunning) {
    return Status::ok();
  }
  tcb->state = TaskState::kReady;
  tcb->block_reason = BlockReason::kNone;
  ready_[tcb->priority].push_back(handle);
  emit(obs::EventKind::kSchedWake, handle, tcb->priority);
  return Status::ok();
}

Status Scheduler::block(TaskHandle handle, BlockReason reason) {
  Tcb* tcb = get(handle);
  if (tcb == nullptr) {
    return make_error(Err::kNotFound, "block: no such task");
  }
  remove_from_ready(handle);
  if (current_ == handle) {
    current_ = kNoTask;
  }
  tcb->state = TaskState::kBlocked;
  tcb->block_reason = reason;
  emit(obs::EventKind::kSchedBlock, handle, static_cast<std::uint32_t>(reason));
  return Status::ok();
}

Status Scheduler::delay_until(TaskHandle handle, std::uint64_t wake_tick) {
  Tcb* tcb = get(handle);
  if (tcb == nullptr) {
    return make_error(Err::kNotFound, "delay_until: no such task");
  }
  if (Status s = block(handle, BlockReason::kDelay); !s.is_ok()) {
    return s;
  }
  tcb->wake_tick = wake_tick;
  return Status::ok();
}

Status Scheduler::suspend(TaskHandle handle) {
  Tcb* tcb = get(handle);
  if (tcb == nullptr) {
    return make_error(Err::kNotFound, "suspend: no such task");
  }
  remove_from_ready(handle);
  if (current_ == handle) {
    current_ = kNoTask;
  }
  tcb->state = TaskState::kSuspended;
  emit(obs::EventKind::kSchedBlock, handle, kSuspendReasonCode);
  return Status::ok();
}

Status Scheduler::resume(TaskHandle handle) {
  Tcb* tcb = get(handle);
  if (tcb == nullptr) {
    return make_error(Err::kNotFound, "resume: no such task");
  }
  if (tcb->state != TaskState::kSuspended) {
    return make_error(Err::kInvalidArgument, "resume: task not suspended");
  }
  return make_ready(handle);
}

void Scheduler::preempt_current() {
  Tcb* tcb = current();
  if (tcb == nullptr) {
    return;
  }
  ++tcb->preemptions;
  tcb->state = TaskState::kReady;
  ready_[tcb->priority].push_back(tcb->handle);
  emit(obs::EventKind::kSchedPreempt, tcb->handle, tcb->priority);
  current_ = kNoTask;
}

void Scheduler::yield_current() {
  Tcb* tcb = current();
  if (tcb == nullptr) {
    return;
  }
  tcb->state = TaskState::kReady;
  ready_[tcb->priority].push_back(tcb->handle);
  emit(obs::EventKind::kSchedYield, tcb->handle, tcb->priority);
  current_ = kNoTask;
}

TaskHandle Scheduler::pick_next() {
  for (unsigned p = kNumPriorities; p-- > 0;) {
    if (!ready_[p].empty()) {
      return ready_[p].front();
    }
  }
  return kNoTask;
}

Status Scheduler::dispatch(TaskHandle handle) {
  Tcb* tcb = get(handle);
  if (tcb == nullptr) {
    return make_error(Err::kNotFound, "dispatch: no such task");
  }
  if (tcb->state != TaskState::kReady) {
    return make_error(Err::kInvalidArgument, "dispatch: task not ready");
  }
  if (current_ != kNoTask && current_ != handle) {
    return make_error(Err::kInternal, "dispatch: another task still running");
  }
  remove_from_ready(handle);
  tcb->state = TaskState::kRunning;
  ++tcb->activations;
  current_ = handle;
  emit(obs::EventKind::kSchedDispatch, handle,
       tcb->kind == TaskKind::kFirmware ? 1u : 0u, tcb->priority);
  return Status::ok();
}

bool Scheduler::tick() {
  ++tick_count_;
  emit(obs::EventKind::kSchedTick, current_, static_cast<std::uint32_t>(tick_count_));
  bool needs_reschedule = false;
  const Tcb* running = current();
  const unsigned current_priority = running != nullptr ? running->priority : 0;
  for (auto& tcb : tasks_) {
    if (tcb == nullptr || tcb->state != TaskState::kBlocked ||
        tcb->block_reason != BlockReason::kDelay) {
      continue;
    }
    if (tick_count_ >= tcb->wake_tick) {
      make_ready(tcb->handle);
      if (running == nullptr || tcb->priority > current_priority) {
        needs_reschedule = true;
      }
    }
  }
  // Round-robin: equal-priority peers also force a reschedule on the tick.
  if (running != nullptr && !ready_[current_priority].empty()) {
    needs_reschedule = true;
  }
  return needs_reschedule;
}

bool Scheduler::higher_priority_ready() const {
  const Tcb* running = const_cast<Scheduler*>(this)->current();
  const unsigned current_priority = running != nullptr ? running->priority : 0;
  for (unsigned p = kNumPriorities; p-- > 0;) {
    if (p <= current_priority && running != nullptr) {
      break;
    }
    if (!ready_[p].empty()) {
      return true;
    }
  }
  return false;
}

std::size_t Scheduler::task_count() const {
  std::size_t n = 0;
  for (const auto& tcb : tasks_) {
    if (tcb != nullptr && tcb->state != TaskState::kDead) {
      ++n;
    }
  }
  return n;
}

std::vector<TaskHandle> Scheduler::handles() const {
  std::vector<TaskHandle> out;
  for (const auto& tcb : tasks_) {
    if (tcb != nullptr && tcb->state != TaskState::kDead) {
      out.push_back(tcb->handle);
    }
  }
  return out;
}

void Scheduler::remove_from_ready(TaskHandle handle) {
  const Tcb* tcb = tasks_[handle].get();
  auto& queue = ready_[tcb->priority];
  queue.erase(std::remove(queue.begin(), queue.end(), handle), queue.end());
}

namespace {

void tcb_state(snap::Io& io, Tcb& t) {
  io.i32(t.handle);
  io.str(t.name);
  io.u32(t.priority);
  io.enum8(t.state);
  io.enum8(t.kind);
  io.boolean(t.secure);
  io.u32(t.region_base);
  io.u32(t.region_size);
  io.u32(t.entry);
  io.u32(t.msg_handler);
  io.u32(t.mailbox);
  io.u32(t.stack_top);
  io.u32(t.image_size);
  io.u32(t.saved_sp);
  io.boolean(t.context_saved);
  io.boolean(t.started);
  io.enum8(t.block_reason);
  io.u64(t.wake_tick);
  io.i32(t.wait_object);
  io.boolean(t.message_pending);
  io.raw(t.identity);
  io.boolean(t.measured);
  io.i32(t.exec_region_idx);
  io.i32(t.mpu_slot);
  io.u64(t.activations);
  io.u64(t.preemptions);
  io.u64(t.cpu_cycles);
  io.u64(t.dispatch_cycle);
  io.u64(t.budget_per_tick);
  io.u64(t.budget_used);
  io.u64(t.throttle_events);
  io.boolean(t.stalled);
  io.u64(t.stall_since_tick);
  io.u64(t.watchdog_restarts);
}

}  // namespace

Status Scheduler::state(snap::Io& io) {
  io.sequence(tasks_, [&io](std::unique_ptr<Tcb>& tcb) {
    bool present = tcb != nullptr;
    io.boolean(present);
    if (present) {
      if (io.loading()) {
        tcb = std::make_unique<Tcb>();
      }
      tcb_state(io, *tcb);
    }
  });
  for (auto& queue : ready_) {
    io.sequence(queue, [&io](TaskHandle& handle) { io.i32(handle); });
  }
  io.i32(current_);
  io.u64(tick_count_);
  if (io.loading()) {
    // Tasks are found by handle (tasks_[handle]) and queued by priority
    // (ready_[priority]); a forged TCB breaking either indexing is corrupt.
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const Tcb* tcb = tasks_[i].get();
      if (tcb != nullptr && (tcb->handle != static_cast<TaskHandle>(i) ||
                             tcb->priority >= kNumPriorities)) {
        return make_error(Err::kCorrupt,
                          "snapshot task table entry " + std::to_string(i) + " is corrupt");
      }
    }
    // The running task and the ready queues must name live TCBs in the
    // matching state, or the next dispatch aborts on its own invariants.
    const auto in_state = [this](TaskHandle handle, TaskState state) {
      return handle >= 0 && handle < static_cast<TaskHandle>(tasks_.size()) &&
             tasks_[handle] != nullptr && tasks_[handle]->state == state;
    };
    if (current_ != kNoTask && !in_state(current_, TaskState::kRunning)) {
      return make_error(Err::kCorrupt, "snapshot running task " +
                                           std::to_string(current_) + " is not running");
    }
    for (std::size_t p = 0; p < ready_.size(); ++p) {
      for (const TaskHandle handle : ready_[p]) {
        if (!in_state(handle, TaskState::kReady) || tasks_[handle]->priority != p) {
          return make_error(Err::kCorrupt, "snapshot ready queue " + std::to_string(p) +
                                               " names task " + std::to_string(handle) +
                                               ", which is not ready at that priority");
        }
      }
    }
    if (obs_ != nullptr) {
      for (const auto& tcb : tasks_) {
        if (tcb != nullptr && tcb->state != TaskState::kDead) {
          obs_->bus().set_task_name(tcb->handle, tcb->name);
        }
      }
    }
  }
  return Status::ok();
}

}  // namespace tytan::rtos
