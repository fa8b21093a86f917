#include "core/platform.h"

#include "common/log.h"

namespace tytan::core {

Platform::Platform(const Config& config)
    : config_(config),
      timer_(std::make_shared<sim::TimerDevice>()),
      serial_(std::make_shared<sim::SerialConsole>()),
      pedal_(std::make_shared<sim::SensorDevice>("pedal", sim::kMmioPedal)),
      radar_(std::make_shared<sim::SensorDevice>("radar", sim::kMmioRadar)),
      engine_(std::make_shared<sim::EngineActuator>()),
      rng_(std::make_shared<sim::RngDevice>(config.rng_seed)),
      can_(std::make_shared<sim::CanBusDevice>()),
      key_register_(std::make_shared<KeyRegister>(config.kp)) {
  machine_ = std::make_unique<sim::Machine>(config.costs, config.log);
  machine_->set_dispatch_mode(config.dispatch);
  if (!config.fault_plan.empty()) {
    fault_engine_ = std::make_unique<fault::FaultEngine>(config.fault_plan);
    machine_->set_fault_engine(fault_engine_.get());
  }
  mpu_ = std::make_unique<sim::EaMpu>();
  scheduler_ = std::make_unique<rtos::Scheduler>();

  // Observability wiring: the scheduler feeds the machine's hub, and
  // the machine learns which task is current so events and tracer entries can
  // be attributed.  No cycles are charged by any of this.
  scheduler_->set_obs(&machine_->obs());
  machine_->set_task_context(
      [s = scheduler_.get()] { return static_cast<std::int32_t>(s->current_handle()); });

  // MMIO devices.
  for (const std::shared_ptr<sim::Device>& device :
       std::initializer_list<std::shared_ptr<sim::Device>>{
           timer_, serial_, pedal_, radar_, engine_, rng_, can_, key_register_}) {
    device->set_irq_sink([m = machine_.get()](std::uint8_t vec) { m->raise_irq(vec); });
    machine_->bus().attach(device);
  }

  // Trusted components and the kernel.
  int_mux_ = std::make_unique<IntMux>(*machine_);
  driver_ = std::make_unique<EaMpuDriver>(*machine_, *mpu_);
  rtm_ = std::make_unique<Rtm>(*machine_);
  loader_ = std::make_unique<TaskLoader>(*machine_, *scheduler_, *driver_, *rtm_, *int_mux_);
  loader_->set_lint(config.lint_mode);
  kernel_ = std::make_unique<Kernel>(*machine_, *scheduler_, *int_mux_);
  storage_ = std::make_unique<SecureStorage>(*machine_, *rtm_);
  attest_ = std::make_unique<RemoteAttest>(*machine_, *rtm_);
  proxy_ = std::make_unique<IpcProxy>(*machine_, *scheduler_, *rtm_, *int_mux_, *driver_,
                                      *kernel_, loader_->arena());
  loader_->set_ipc_proxy(proxy_.get());
  updater_ = std::make_unique<UpdateManager>(*machine_, *scheduler_, *loader_, *storage_);
  boot_rom_ = std::make_unique<SecureBootRom>(*machine_, *mpu_);

  kernel_->set_loader(loader_.get());
  kernel_->set_storage(storage_.get());
  kernel_->set_rtm(rtm_.get());
  kernel_->set_serial(serial_.get());
  kernel_->set_timer(timer_.get());

  // Firmware handler registration (the Int Mux is the first-level handler).
  machine_->register_firmware(IntMux::kIdent, "int-mux",
                              [this](sim::Machine&) { int_mux_->on_interrupt(); });
  kernel_->install();
  kernel_->route_device_irq(sim::kVecCan);
  proxy_->install();
}

Result<BootReport> Platform::boot() {
  if (booted_) {
    return make_error(Err::kAlreadyExists, "platform already booted");
  }
  const std::vector<BootComponent>& manifest = default_manifest();
  boot_rom_->load_images(manifest);
  auto report = boot_rom_->verify_and_lock(manifest);
  if (!report.is_ok() || !report->ok) {
    boot_report_ = report.is_ok() ? *report : BootReport{};
    return make_error(Err::kCorrupt, "secure boot failed");
  }
  boot_report_ = *report;
  if (Status s = kernel_->start(config_.tick_period); !s.is_ok()) {
    return s;
  }
  booted_ = true;
  return boot_report_;
}

// ---------------------------------------------------------------------------
// Task management
// ---------------------------------------------------------------------------

Result<rtos::TaskHandle> Platform::load_task_source(std::string_view source,
                                                    LoadParams params) {
  auto object = isa::assemble(source);
  if (!object.is_ok()) {
    return object.status();
  }
  return load_task(object.take(), std::move(params));
}

Result<rtos::TaskHandle> Platform::load_task(isa::ObjectFile object, LoadParams params) {
  if (!booted_) {
    return make_error(Err::kUnavailable, "platform not booted");
  }
  return loader_->load_now(std::move(object), std::move(params));
}

Result<rtos::TaskHandle> Platform::load_task_async(isa::ObjectFile object,
                                                   LoadParams params) {
  if (!booted_) {
    return make_error(Err::kUnavailable, "platform not booted");
  }
  auto handle = loader_->begin_load(std::move(object), std::move(params));
  if (handle.is_ok()) {
    kernel_->kick_loader();
  }
  return handle;
}

Result<rtos::TaskHandle> Platform::load_task_source_async(std::string_view source,
                                                          LoadParams params) {
  auto object = isa::assemble(source);
  if (!object.is_ok()) {
    return object.status();
  }
  return load_task_async(object.take(), std::move(params));
}

Result<rtos::TaskHandle> Platform::update_task(rtos::TaskHandle handle,
                                               std::string_view source, LoadParams params,
                                               UpdateParams update) {
  auto object = isa::assemble(source);
  if (!object.is_ok()) {
    return object.status();
  }
  auto result = updater_->update_now(handle, object.take(), std::move(params), update);
  ensure_scheduled();
  return result;
}

Result<rtos::TaskHandle> Platform::update_task_async(rtos::TaskHandle handle,
                                                     isa::ObjectFile object,
                                                     LoadParams params,
                                                     UpdateParams update) {
  auto new_handle = updater_->begin_update(handle, std::move(object), std::move(params),
                                           update);
  if (new_handle.is_ok()) {
    kernel_->kick_loader();
  }
  return new_handle;
}

void Platform::ensure_scheduled() {
  // Host-side task operations can tear the *running* task out from under the
  // CPU (unload/suspend/update of the current task).  The scheduler then has
  // no current task while EIP still points into the old region — dispatch a
  // fresh task before the machine steps again.  A secure task suspended this
  // way restarts fresh on resume (its live register state is not captured).
  if (booted_ && scheduler_->current() == nullptr) {
    kernel_->reschedule();
  }
}

Status Platform::unload_task(rtos::TaskHandle handle) {
  Status s = loader_->unload(handle);
  ensure_scheduled();
  return s;
}

Status Platform::suspend_task(rtos::TaskHandle handle) {
  Status s = scheduler_->suspend(handle);
  ensure_scheduled();
  return s;
}

Status Platform::resume_task(rtos::TaskHandle handle) {
  return scheduler_->resume(handle);
}

Status Platform::set_task_budget(rtos::TaskHandle handle, std::uint64_t cycles_per_tick) {
  rtos::Tcb* tcb = scheduler_->get(handle);
  if (tcb == nullptr) {
    return make_error(Err::kNotFound, "set_task_budget: no such task");
  }
  tcb->budget_per_tick = cycles_per_tick;
  tcb->budget_used = 0;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

sim::HaltReason Platform::run_for(std::uint64_t cycles) {
  return machine_->run(machine_->cycles() + cycles);
}

bool Platform::run_until(const std::function<bool()>& predicate,
                         std::uint64_t max_cycles) {
  const std::uint64_t deadline = machine_->cycles() + max_cycles;
  while (machine_->cycles() < deadline && !machine_->halted()) {
    if (predicate()) {
      return true;
    }
    machine_->step();
  }
  return predicate();
}

}  // namespace tytan::core
