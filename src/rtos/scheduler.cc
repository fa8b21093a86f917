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
  if (events_ != nullptr) {
    events_->set_task_name(handle, params.name);
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

void write_tcb(snap::Writer& w, const Tcb& t) {
  w.i32(t.handle);
  w.str(t.name);
  w.u32(t.priority);
  w.u8(static_cast<std::uint8_t>(t.state));
  w.u8(static_cast<std::uint8_t>(t.kind));
  w.boolean(t.secure);
  w.u32(t.region_base);
  w.u32(t.region_size);
  w.u32(t.entry);
  w.u32(t.msg_handler);
  w.u32(t.mailbox);
  w.u32(t.stack_top);
  w.u32(t.image_size);
  w.u32(t.saved_sp);
  w.boolean(t.context_saved);
  w.boolean(t.started);
  w.u8(static_cast<std::uint8_t>(t.block_reason));
  w.u64(t.wake_tick);
  w.i32(t.wait_object);
  w.boolean(t.message_pending);
  w.raw(t.identity);
  w.boolean(t.measured);
  w.i32(t.exec_region_idx);
  w.i32(t.mpu_slot);
  w.u64(t.activations);
  w.u64(t.preemptions);
  w.u64(t.cpu_cycles);
  w.u64(t.dispatch_cycle);
  w.u64(t.budget_per_tick);
  w.u64(t.budget_used);
  w.u64(t.throttle_events);
  w.boolean(t.stalled);
  w.u64(t.stall_since_tick);
  w.u64(t.watchdog_restarts);
}

void read_tcb(snap::Reader& r, Tcb& t) {
  t.handle = r.i32();
  t.name = r.str();
  t.priority = r.u32();
  t.state = static_cast<TaskState>(r.u8());
  t.kind = static_cast<TaskKind>(r.u8());
  t.secure = r.boolean();
  t.region_base = r.u32();
  t.region_size = r.u32();
  t.entry = r.u32();
  t.msg_handler = r.u32();
  t.mailbox = r.u32();
  t.stack_top = r.u32();
  t.image_size = r.u32();
  t.saved_sp = r.u32();
  t.context_saved = r.boolean();
  t.started = r.boolean();
  t.block_reason = static_cast<BlockReason>(r.u8());
  t.wake_tick = r.u64();
  t.wait_object = r.i32();
  t.message_pending = r.boolean();
  r.raw(t.identity);
  t.measured = r.boolean();
  t.exec_region_idx = r.i32();
  t.mpu_slot = r.i32();
  t.activations = r.u64();
  t.preemptions = r.u64();
  t.cpu_cycles = r.u64();
  t.dispatch_cycle = r.u64();
  t.budget_per_tick = r.u64();
  t.budget_used = r.u64();
  t.throttle_events = r.u64();
  t.stalled = r.boolean();
  t.stall_since_tick = r.u64();
  t.watchdog_restarts = r.u64();
}

}  // namespace

void Scheduler::save_state(snap::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(tasks_.size()));
  for (const auto& tcb : tasks_) {
    w.boolean(tcb != nullptr);
    if (tcb != nullptr) {
      write_tcb(w, *tcb);
    }
  }
  for (const auto& queue : ready_) {
    w.u32(static_cast<std::uint32_t>(queue.size()));
    for (const TaskHandle handle : queue) {
      w.i32(handle);
    }
  }
  w.i32(current_);
  w.u64(tick_count_);
}

Status Scheduler::restore_state(snap::Reader& r) {
  const std::uint32_t count = r.u32();
  std::vector<std::unique_ptr<Tcb>> restored;
  restored.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    if (!r.boolean()) {
      restored.push_back(nullptr);
      continue;
    }
    auto tcb = std::make_unique<Tcb>();
    read_tcb(r, *tcb);
    if (!r.ok()) {
      break;  // finish() reports the truncation
    }
    restored.push_back(std::move(tcb));
  }
  tasks_ = std::move(restored);
  for (auto& queue : ready_) {
    const std::uint32_t depth = r.u32();
    queue.clear();
    for (std::uint32_t i = 0; i < depth && r.ok(); ++i) {
      queue.push_back(r.i32());
    }
  }
  current_ = r.i32();
  tick_count_ = r.u64();
  if (events_ != nullptr) {
    for (const auto& tcb : tasks_) {
      if (tcb != nullptr && tcb->state != TaskState::kDead) {
        events_->set_task_name(tcb->handle, tcb->name);
      }
    }
  }
  return Status::ok();
}

}  // namespace tytan::rtos
