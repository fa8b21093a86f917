// Runtime task update — the paper's stated future work (§8): "extending
// TyTAN with a mechanism to update tasks at runtime (i.e., without stopping
// and restarting them) to meet the high availability requirements of
// embedded applications."
//
// Implementation: the replacement binary is loaded and measured *while the
// old version keeps running* (the loader and RTM are interruptible, so the
// old task's deadlines hold — exactly the Table 1 property).  The moment the
// replacement is registered, the manager performs an atomic swap:
//   1. any pending mailbox message of the old instance is carried over
//      (delivered exactly once, to whichever version handles it),
//   2. optionally, the old version's sealed storage is re-sealed under the
//      new identity (SecureStorage::migrate — the new id_t differs, so
//      without migration the new version could not read old state),
//   3. the old instance is unloaded and the new one scheduled.
// Downtime is the swap itself (a few hundred cycles), not the ~30 ms load.
#pragma once

#include "core/secure_storage.h"
#include "core/task_loader.h"

namespace tytan::core {

struct UpdateParams {
  /// Re-seal the old version's storage under the new identity.
  bool migrate_storage = true;
};

class UpdateManager {
 public:
  UpdateManager(sim::Machine& machine, rtos::Scheduler& scheduler, TaskLoader& loader,
                SecureStorage& storage)
      : machine_(machine), scheduler_(scheduler), loader_(loader), storage_(storage) {}

  /// Synchronous update (no simulation advance; for tests/benches).
  Result<rtos::TaskHandle> update_now(rtos::TaskHandle old_handle, isa::ObjectFile next,
                                      LoadParams load_params, UpdateParams params = {});

  /// Hitless update: queue the load; the swap runs automatically when the
  /// replacement is ready.  The caller must keep the machine running (the
  /// loader task does the work).  Returns the *new* handle immediately.
  Result<rtos::TaskHandle> begin_update(rtos::TaskHandle old_handle, isa::ObjectFile next,
                                        LoadParams load_params, UpdateParams params = {});

  [[nodiscard]] bool update_in_progress() const { return pending_; }
  [[nodiscard]] std::uint64_t last_swap_cycles() const { return last_swap_cycles_; }
  /// Status of the most recent completed swap.
  [[nodiscard]] const Status& last_swap_status() const { return last_swap_status_; }

  // -- snapshots ----------------------------------------------------------------
  /// Walk the update ledger (snap::Io).  A *pending* hitless update rides
  /// on the loader's on_loaded callback, so Platform::save refuses while one
  /// is in flight (the loader reports job_has_callback()).
  Status state(snap::Io& io);

 private:
  Status swap(rtos::TaskHandle old_handle, rtos::TaskHandle new_handle,
              const UpdateParams& params);

  sim::Machine& machine_;
  rtos::Scheduler& scheduler_;
  TaskLoader& loader_;
  SecureStorage& storage_;
  bool pending_ = false;
  rtos::TaskHandle last_updated_ = rtos::kNoTask;
  std::uint64_t last_swap_cycles_ = 0;
  Status last_swap_status_;
};

}  // namespace tytan::core
