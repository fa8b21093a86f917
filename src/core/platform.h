// The TyTAN platform facade — the library's primary entry point.
//
// Owns the simulated machine, the EA-MPU, the FreeRTOS-like scheduler, every
// TyTAN trusted component, wired exactly as Figure 1 of the paper shows, and
// the fixed MMIO device complement of the Figure 2 cruise-control SoC: timer,
// serial console, pedal and radar sensors, engine actuator, nonce RNG, CAN
// controller and the key register.  Typical use:
//
//   tytan::core::Platform platform;
//   platform.boot();                              // secure boot + kernel start
//   auto task = platform.load_task_source(asm_src, {.name = "sensor"});
//   platform.run_for(1'000'000);                  // simulate one million cycles
//   auto report = platform.remote_attest().attest_task(*task, nonce);
#pragma once

#include <memory>

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
#include "core/key_register.h"
#include "isa/assembler.h"
#include "rtos/scheduler.h"
#include "sim/devices.h"
#include "snap/snapshot.h"

namespace tytan::core {

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
    /// What the loader does with the findings of the static verifier it
    /// runs (default analysis config) on every load, before allocating
    /// task memory.
    LintMode lint_mode = LintMode::kWarn;
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
  explicit Platform(const Config& config);

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
  [[nodiscard]] sim::EaMpu& mpu() { return *mpu_; }
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

  [[nodiscard]] sim::TimerDevice& timer() { return *timer_; }
  [[nodiscard]] sim::SerialConsole& serial() { return *serial_; }
  [[nodiscard]] sim::SensorDevice& pedal() { return *pedal_; }
  [[nodiscard]] sim::SensorDevice& radar() { return *radar_; }
  [[nodiscard]] sim::EngineActuator& engine() { return *engine_; }
  [[nodiscard]] sim::RngDevice& rng() { return *rng_; }
  [[nodiscard]] sim::CanBusDevice& can_bus() { return *can_; }
  [[nodiscard]] KeyRegister& key_register() { return *key_register_; }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] bool booted() const { return booted_; }

  // -- snapshots --------------------------------------------------------------------
  /// Walk every guest-visible state owner exactly once, in the fixed section
  /// order of docs/SNAPSHOT.md, handing the visitor each (tag, state) pair —
  /// the owner's two-way field walk over a snap::Io.  Save, restore, and
  /// schema listing are all visitors over this single walk.  Host-only observability (heat, event bus,
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
  /// restored.
  Result<std::unique_ptr<Platform>> clone() const;

  /// Rebuild a Config from a snapshot's CONF section (replay tooling: a
  /// compatible platform can be constructed from the snapshot alone).
  static Result<Config> config_from_snapshot(const snap::Snapshot& snapshot,
                                             const LogContext* log = nullptr);

  /// Cycle count recorded in a snapshot (nearest-snapshot selection without
  /// constructing a platform).
  static Result<std::uint64_t> snapshot_cycle(const snap::Snapshot& snapshot);

 private:
  void ensure_scheduled();

  Config config_;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<sim::EaMpu> mpu_;
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

  // The MMIO device complement of Figure 2, one instance per platform:
  // `kp` fuses the key register, `rng_seed` seeds the nonce RNG.  The
  // constructor attaches them to the bus in this order, which fixes the
  // DEVS and CONF snapshot bytes.
  std::shared_ptr<sim::TimerDevice> timer_;
  std::shared_ptr<sim::SerialConsole> serial_;
  std::shared_ptr<sim::SensorDevice> pedal_;
  std::shared_ptr<sim::SensorDevice> radar_;
  std::shared_ptr<sim::EngineActuator> engine_;
  std::shared_ptr<sim::RngDevice> rng_;
  std::shared_ptr<sim::CanBusDevice> can_;
  std::shared_ptr<KeyRegister> key_register_;

  bool booted_ = false;
  BootReport boot_report_;
};

}  // namespace tytan::core
