#include "core/task_update.h"

#include "common/log.h"

namespace tytan::core {

using rtos::TaskHandle;
using rtos::Tcb;

Status UpdateManager::swap(TaskHandle old_handle, TaskHandle new_handle,
                           const UpdateParams& params) {
  const std::uint64_t t0 = machine_.cycles();
  Tcb* old_tcb = scheduler_.get(old_handle);
  Tcb* new_tcb = scheduler_.get(new_handle);
  if (old_tcb == nullptr || new_tcb == nullptr) {
    return make_error(Err::kNotFound, "update swap: task vanished");
  }
  if (old_tcb->secure != new_tcb->secure) {
    return make_error(Err::kInvalidArgument, "update swap: task kind changed");
  }

  // Carry over an undelivered mailbox message (exactly-once delivery).  A
  // failed copy fails the swap before anything is committed.
  if (old_tcb->message_pending && old_tcb->mailbox != 0 && new_tcb->mailbox != 0) {
    std::array<std::uint8_t, 24> message{};
    if (Status s = machine_.fw_read_block(sim::kFwIpcProxy, old_tcb->mailbox, message, 4);
        !s.is_ok()) {
      return s;
    }
    if (Status s = machine_.fw_write_block(sim::kFwIpcProxy, new_tcb->mailbox, message, 4);
        !s.is_ok()) {
      return s;
    }
    new_tcb->message_pending = true;
  }

  // Sealed-state hand-over: the identity changed, so Kt changed — re-seal.
  bool migrated_storage = false;
  if (params.migrate_storage && old_tcb->measured && new_tcb->measured) {
    auto migrated = storage_.migrate(old_tcb->identity, new_tcb->identity);
    if (!migrated.is_ok()) {
      return migrated.status();
    }
    migrated_storage = *migrated > 0;
    TYTAN_CLOG(machine_.log(), LogLevel::kInfo, "update")
        << "migrated " << *migrated << " sealed blob(s) to the new identity";
  }

  const unsigned priority = old_tcb->priority;
  const rtos::TaskIdentity old_identity = old_tcb->identity;
  const rtos::TaskIdentity new_identity = new_tcb->identity;
  if (Status s = loader_.unload(old_handle); !s.is_ok()) {
    // The old version stays in service; hand its sealed blobs back so a
    // failed swap does not leave them bound to an identity about to vanish
    // (update_now unloads the replacement on any swap error).
    if (migrated_storage) {
      storage_.migrate(new_identity, old_identity);
    }
    return s;
  }
  new_tcb->priority = priority;  // the replacement inherits the slot's priority
  scheduler_.make_ready(new_handle);
  last_swap_cycles_ = machine_.cycles() - t0;
  last_updated_ = new_handle;
  return Status::ok();
}

Result<TaskHandle> UpdateManager::update_now(TaskHandle old_handle, isa::ObjectFile next,
                                             LoadParams load_params, UpdateParams params) {
  if (scheduler_.get(old_handle) == nullptr) {
    return make_error(Err::kNotFound, "update: no such task");
  }
  load_params.auto_start = false;
  load_params.on_loaded = nullptr;
  auto new_handle = loader_.load_now(std::move(next), std::move(load_params));
  if (!new_handle.is_ok()) {
    return new_handle;
  }
  if (Status s = swap(old_handle, *new_handle, params); !s.is_ok()) {
    loader_.unload(*new_handle);
    return s;
  }
  return new_handle;
}

Result<TaskHandle> UpdateManager::begin_update(TaskHandle old_handle, isa::ObjectFile next,
                                               LoadParams load_params, UpdateParams params) {
  if (pending_) {
    return make_error(Err::kUnavailable, "update already in progress");
  }
  if (scheduler_.get(old_handle) == nullptr) {
    return make_error(Err::kNotFound, "update: no such task");
  }
  load_params.auto_start = false;
  load_params.on_loaded = [this, old_handle, params](TaskHandle new_handle) {
    last_swap_status_ = swap(old_handle, new_handle, params);
    if (!last_swap_status_.is_ok()) {
      TYTAN_CLOG(machine_.log(), LogLevel::kWarn, "update")
          << "swap failed: " << last_swap_status_.to_string();
      loader_.unload(new_handle);
    }
    pending_ = false;
  };
  auto new_handle = loader_.begin_load(std::move(next), std::move(load_params));
  if (!new_handle.is_ok()) {
    return new_handle;
  }
  pending_ = true;
  return new_handle;
}

Status UpdateManager::state(snap::Io& io) {
  io.boolean(pending_);
  io.i32(last_updated_);
  io.u64(last_swap_cycles_);
  io.status(last_swap_status_);
  return Status::ok();
}

}  // namespace tytan::core
