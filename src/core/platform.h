// The TyTAN platform facade — the library's primary entry point.
//
// Owns the simulated machine, the EA-MPU, the MMIO devices, the FreeRTOS-like
// scheduler, and every TyTAN trusted component, wired exactly as Figure 1 of
// the paper shows.  Typical use:
//
//   tytan::core::Platform platform;
//   platform.boot();                              // secure boot + kernel start
//   auto task = platform.load_task_source(asm_src, {.name = "sensor"});
//   platform.run_for(1'000'000);                  // simulate one million cycles
//   auto report = platform.remote_attest().attest_task(*task, nonce);
#pragma once

#include <memory>
#include <vector>

#include "common/log.h"
#include "core/eampu_driver.h"
#include "core/int_mux.h"
#include "core/ipc_proxy.h"
#include "core/kernel.h"
#include "core/remote_attest.h"
#include "core/rtm.h"
#include "core/secure_boot.h"
#include "core/secure_storage.h"
#include "core/task_loader.h"
#include "core/task_update.h"
#include "fault/fault.h"
#include "hw/key_register.h"
#include "isa/assembler.h"
#include "rtos/scheduler.h"
#include "sim/devices.h"
#include "snap/snapshot.h"

namespace tytan::core {

/// The MMIO device complement of one platform instance.  Construction is
/// separated from Platform so callers (PlatformBuilder, the fleet runner,
/// tests) can select devices and parameterize them per instance; every
/// device is owned by exactly one platform — nothing is shared.
struct DeviceSet {
  std::shared_ptr<sim::TimerDevice> timer;
  std::shared_ptr<sim::SerialConsole> serial;
  std::shared_ptr<sim::SensorDevice> pedal;
  std::shared_ptr<sim::SensorDevice> radar;
  std::shared_ptr<sim::EngineActuator> engine;
  std::shared_ptr<sim::RngDevice> rng;
  std::shared_ptr<sim::CanBusDevice> can;
  std::shared_ptr<hw::KeyRegister> key_register;
  /// Additional devices attached after the core set (custom workloads).
  std::vector<std::shared_ptr<sim::Device>> extra;

  /// The paper's fixed device complement (Figure 2), parameterized per
  /// instance: `kp` fuses the key register, `rng_seed` seeds the nonce RNG.
  static DeviceSet standard(const crypto::Key128& kp, std::uint64_t rng_seed);

  /// Every non-null device, core set first then extras, in attach order.
  [[nodiscard]] std::vector<std::shared_ptr<sim::Device>> all() const;
};

class Platform {
 public:
  struct Config {
    sim::CostModel costs{};
    /// RTOS tick period in cycles.  Default: 1 kHz at the paper's 48 MHz.
    std::uint32_t tick_period = 48'000;
    /// Platform key Kp (fused at manufacturing).
    crypto::Key128 kp{0x4b, 0x70, 0x2d, 0x74, 0x79, 0x74, 0x61, 0x6e,
                      0x2d, 0x64, 0x65, 0x76, 0x69, 0x63, 0x65, 0x31};
    /// Seed for the deterministic nonce RNG.  Fleet devices need distinct
    /// but reproducible seeds; 0 falls back to the device default.
    std::uint64_t rng_seed = sim::RngDevice::kDefaultSeed;
    /// Static-verifier gate the loader runs before allocating task memory.
    LintMode lint_mode = LintMode::kWarn;
    analysis::Config lint_config{};
    /// Log context every component of this platform emits through; nullptr
    /// means the process-default context (single-platform CLIs and tests).
    const LogContext* log = nullptr;
    /// Fault-injection plan (src/fault).  Empty — the default — installs no
    /// engine, so every hook site stays a single null-pointer compare.
    fault::FaultPlan fault_plan{};
    /// Instruction dispatch strategy.  kCached (the default) runs the
    /// decoded basic-block cache; kInterpreter is the reference path.  Both
    /// produce bit-identical simulated state — the knob exists for A/B
    /// verification (bench_host_perf, CI) and debugging.
    sim::DispatchMode dispatch = sim::DispatchMode::kCached;
  };

  Platform() : Platform(Config{}) {}
  explicit Platform(const Config& config)
      : Platform(config, DeviceSet::standard(config.kp, config.rng_seed)) {}
  /// Full control: a platform built around an explicit device set.  The
  /// standard accessors (timer() .. key_register()) require the matching
  /// member to be present; boot needs at least timer + key_register.
  Platform(const Config& config, DeviceSet devices);

  // One thread drives a Platform at a time; instances share no mutable
  // state, so distinct Platforms may run on distinct threads concurrently.
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Secure boot + kernel start.  Must be called exactly once before tasks
  /// are loaded.
  Result<BootReport> boot();

  // -- task management ------------------------------------------------------------
  /// Assemble Peak-32 source and load it synchronously (the machine is not
  /// advanced; cycle costs are charged as if the loader ran uninterrupted).
  Result<rtos::TaskHandle> load_task_source(std::string_view source, LoadParams params);
  /// Load a pre-assembled object synchronously.
  Result<rtos::TaskHandle> load_task(isa::ObjectFile object, LoadParams params);
  /// Queue an asynchronous load processed by the (interruptible) loader task
  /// while the machine runs — the paper's dynamic loading path (Table 1).
  Result<rtos::TaskHandle> load_task_async(isa::ObjectFile object, LoadParams params);
  Result<rtos::TaskHandle> load_task_source_async(std::string_view source, LoadParams params);
  [[nodiscard]] bool load_in_progress() const { return loader_->load_in_progress(); }

  Status unload_task(rtos::TaskHandle handle);
  Status suspend_task(rtos::TaskHandle handle);
  Status resume_task(rtos::TaskHandle handle);

  /// Bound a task's CPU time (paper §5): at most `cycles_per_tick` cycles of
  /// execution per scheduler tick; excess is deferred to the next window.
  /// Pass 0 to lift the bound.
  Status set_task_budget(rtos::TaskHandle handle, std::uint64_t cycles_per_tick);

  /// Runtime update (paper §8 future work): replace `handle` with a new
  /// binary.  The synchronous form swaps immediately; the async form loads
  /// in the background while the old version keeps running and swaps when
  /// the replacement is measured (downtime = the swap, not the load).
  Result<rtos::TaskHandle> update_task(rtos::TaskHandle handle, std::string_view source,
                                       LoadParams params, UpdateParams update = {});
  Result<rtos::TaskHandle> update_task_async(rtos::TaskHandle handle,
                                             isa::ObjectFile object, LoadParams params,
                                             UpdateParams update = {});

  // -- execution --------------------------------------------------------------------
  /// Advance the simulation by `cycles` clock cycles.
  sim::HaltReason run_for(std::uint64_t cycles);
  /// Advance until `predicate()` is true or `max_cycles` elapse; returns
  /// true if the predicate fired.
  bool run_until(const std::function<bool()>& predicate, std::uint64_t max_cycles);

  // -- component access ----------------------------------------------------------------
  [[nodiscard]] sim::Machine& machine() { return *machine_; }
  [[nodiscard]] const sim::Machine& machine() const { return *machine_; }
  [[nodiscard]] hw::EaMpu& mpu() { return *mpu_; }
  [[nodiscard]] rtos::Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] IntMux& int_mux() { return *int_mux_; }
  [[nodiscard]] EaMpuDriver& eampu_driver() { return *driver_; }
  [[nodiscard]] Rtm& rtm() { return *rtm_; }
  [[nodiscard]] TaskLoader& loader() { return *loader_; }
  [[nodiscard]] Kernel& kernel() { return *kernel_; }
  [[nodiscard]] IpcProxy& ipc_proxy() { return *proxy_; }
  [[nodiscard]] RemoteAttest& remote_attest() { return *attest_; }
  [[nodiscard]] SecureStorage& secure_storage() { return *storage_; }
  [[nodiscard]] UpdateManager& updater() { return *updater_; }
  /// Null unless Config::fault_plan was non-empty.
  [[nodiscard]] fault::FaultEngine* fault_engine() { return fault_engine_.get(); }
  [[nodiscard]] const fault::FaultEngine* fault_engine() const {
    return fault_engine_.get();
  }

  [[nodiscard]] sim::TimerDevice& timer() { return *devices_.timer; }
  [[nodiscard]] sim::SerialConsole& serial() { return *devices_.serial; }
  [[nodiscard]] sim::SensorDevice& pedal() { return *devices_.pedal; }
  [[nodiscard]] sim::SensorDevice& radar() { return *devices_.radar; }
  [[nodiscard]] sim::EngineActuator& engine() { return *devices_.engine; }
  [[nodiscard]] sim::RngDevice& rng() { return *devices_.rng; }
  [[nodiscard]] sim::CanBusDevice& can_bus() { return *devices_.can; }
  [[nodiscard]] hw::KeyRegister& key_register() { return *devices_.key_register; }
  [[nodiscard]] const DeviceSet& devices() const { return devices_; }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] bool booted() const { return booted_; }
  [[nodiscard]] const BootReport& boot_report() const { return boot_report_; }

  // -- snapshots --------------------------------------------------------------------
  /// Walk every guest-visible state owner exactly once, in the fixed section
  /// order of docs/SNAPSHOT.md, handing the visitor each (tag, save,
  /// restore) triple.  Save, restore, and schema listing are all visitors
  /// over this single walk.  Host-only observability (heat, event bus,
  /// spans, metrics) is deliberately not part of the walk.
  Status visit_state(snap::StateVisitor& visitor);

  /// Serialize the complete guest-visible platform state.  Refuses with
  /// kUnavailable while state that cannot travel is live: an in-flight async
  /// load carrying an on_loaded callback (hitless updates) or active
  /// software timers (closures).
  Result<snap::Snapshot> save() const;

  /// Overwrite this platform's state from `snapshot`, compat-checked against
  /// this platform's configuration (CONF section: memory size, cost model,
  /// Kp, devices, fault plan).  On success the platform re-executes exactly
  /// as the saved one would, including under an active fault plan.  On a
  /// typed error the platform may be partially overwritten — restore again
  /// (or discard it) before running.
  Status restore(const snap::Snapshot& snapshot);

  /// A fresh platform carrying identical state: constructed from this
  /// platform's config (no boot — boot state travels in the snapshot), then
  /// restored.  Requires the standard device set and only kernel-owned
  /// firmware tasks; platforms with custom extras restore in place instead.
  Result<std::unique_ptr<Platform>> clone() const;

  /// Rebuild a Config from a snapshot's CONF section (replay tooling: a
  /// compatible platform can be constructed from the snapshot alone).  The
  /// lint analysis config is not serialized and comes back default.
  static Result<Config> config_from_snapshot(const snap::Snapshot& snapshot,
                                             const LogContext* log = nullptr);

  /// Cycle count recorded in a snapshot (nearest-snapshot selection without
  /// constructing a platform).
  static Result<std::uint64_t> snapshot_cycle(const snap::Snapshot& snapshot);

 private:
  void ensure_scheduled();

  Config config_;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<hw::EaMpu> mpu_;
  std::unique_ptr<rtos::Scheduler> scheduler_;
  std::unique_ptr<IntMux> int_mux_;
  std::unique_ptr<EaMpuDriver> driver_;
  std::unique_ptr<Rtm> rtm_;
  std::unique_ptr<TaskLoader> loader_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<IpcProxy> proxy_;
  std::unique_ptr<RemoteAttest> attest_;
  std::unique_ptr<SecureStorage> storage_;
  std::unique_ptr<UpdateManager> updater_;
  std::unique_ptr<SecureBootRom> boot_rom_;
  std::unique_ptr<fault::FaultEngine> fault_engine_;

  DeviceSet devices_;

  bool booted_ = false;
  BootReport boot_report_;

  // Digest of the last successfully restored snapshot.  When the same
  // snapshot is restored again (the fork-fuzzing rewind loop), guest memory
  // outside PhysicalMemory's dirty range already equals the image and is not
  // rewritten.  Zero means "no fast path" (fresh platform, or the previous
  // restore failed part-way).
  std::uint64_t last_restore_digest_ = 0;
  bool memr_rewind_ = false;
};

}  // namespace tytan::core
