// Platform state enumeration and versioned snapshot/restore.
//
// State ownership contract (docs/SNAPSHOT.md): every piece of guest-visible
// state is reachable from the Platform and appears in exactly one section of
// visit_state().  Host-only observability (heat profiles, event bus,
// metrics, spans, the lint report) and pure wiring (firmware handler
// registrations, IRQ sinks, hooks) are deliberately excluded: they never
// influence guest execution, so a restored platform re-executes
// bit-identically without them.

#include <cstring>
#include <type_traits>

#include "core/platform.h"

namespace tytan::core {

namespace {

std::string fault_plan_text(const fault::FaultPlan& plan) {
  std::string text;
  for (const fault::FaultSpec& spec : plan.specs) {
    if (!text.empty()) {
      text += ';';
    }
    text += spec.to_string();
  }
  return text;
}

ByteVec cost_model_bytes(const sim::CostModel& costs) {
  static_assert(std::is_trivially_copyable_v<sim::CostModel>);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&costs);
  return {bytes, bytes + sizeof(sim::CostModel)};
}

std::vector<std::string> device_names(sim::Machine& machine) {
  std::vector<std::string> names;
  for (const auto& device : machine.bus().devices()) {
    names.emplace_back(device->name());
  }
  return names;
}

/// The CONF section doubles as the restore compatibility check and the
/// platform-reconstruction recipe (config_from_snapshot) for replay tooling:
/// the Config fields a restoring platform must share, plus the memory size
/// and the device complement.  The fault plan travels as its text and the
/// cost model as raw bytes; loading parses both back into `config`.
Status conf_state(snap::Io& io, Platform::Config& config, std::uint32_t& mem_size,
                  std::vector<std::string>& devices) {
  io.u32(mem_size);
  io.u32(config.tick_period);
  io.raw(config.kp);
  io.u64(config.rng_seed);
  io.enum8(config.lint_mode);
  std::string plan = fault_plan_text(config.fault_plan);
  io.str(plan);
  std::uint64_t plan_seed = config.fault_plan.seed;
  io.u64(plan_seed);
  ByteVec costs = cost_model_bytes(config.costs);
  io.blob(costs);
  io.sequence(devices, [&io](std::string& name) { io.str(name); });
  if (io.loading() && io.ok()) {
    if (config.lint_mode != LintMode::kWarn && config.lint_mode != LintMode::kStrict) {
      return make_error(Err::kCorrupt,
                        "snapshot lint mode " +
                            std::to_string(static_cast<unsigned>(config.lint_mode)) +
                            " is neither warn (1) nor strict (2)");
    }
    if (costs.size() != sizeof(sim::CostModel)) {
      return make_error(Err::kInvalidArgument,
                        "snapshot cost model is " + std::to_string(costs.size()) +
                            " bytes; this build's is " +
                            std::to_string(sizeof(sim::CostModel)));
    }
    std::memcpy(&config.costs, costs.data(), sizeof(sim::CostModel));
    config.fault_plan = {};
    if (!plan.empty()) {
      auto parsed = fault::FaultPlan::parse(plan);
      if (!parsed.is_ok()) {
        return parsed.status();
      }
      config.fault_plan = std::move(*parsed);
    }
    config.fault_plan.seed = plan_seed;
  }
  return Status::ok();
}

void boot_report_state(snap::Io& io, BootReport& report) {
  io.boolean(report.ok);
  io.u32(report.trusted_bytes);
  io.sequence(report.components, [&io](BootReport::Entry& entry) {
    io.str(entry.name);
    io.u32(entry.window);
    io.u32(entry.footprint);
    io.boolean(entry.verified);
  });
}

/// Restore compatibility: the snapshot's CONF, loaded into `theirs`,
/// `mem_size` and `devices`, must match this platform.
Status check_conf(Platform& platform, const Platform::Config& theirs,
                  std::uint32_t mem_size, const std::vector<std::string>& devices) {
  const Platform::Config& own = platform.config();
  const std::pair<bool, const char*> checks[] = {
      {mem_size == platform.machine().memory().size(), "memory size"},
      {theirs.tick_period == own.tick_period, "tick period"},
      {theirs.kp == own.kp, "platform key Kp"},
      {theirs.rng_seed == own.rng_seed, "rng seed"},
      {theirs.lint_mode == own.lint_mode, "lint mode"},
      {fault_plan_text(theirs.fault_plan) == fault_plan_text(own.fault_plan),
       "fault plan"},
      {theirs.fault_plan.seed == own.fault_plan.seed, "fault seed"},
      {cost_model_bytes(theirs.costs) == cost_model_bytes(own.costs), "cost model"},
      {devices == device_names(platform.machine()), "device complement"},
  };
  for (const auto& [same, what] : checks) {
    if (!same) {
      return make_error(Err::kInvalidArgument,
                        std::string("snapshot incompatible with this platform: ") + what +
                            " differs");
    }
  }
  return Status::ok();
}

}  // namespace

Status Platform::visit_state(snap::StateVisitor& visitor) {
  // Fixed section order — this IS the schema.  Reordering, adding, or
  // removing a section (or changing any section's payload layout) is a
  // wire-format change: bump snap::kSchemaVersion.
  const std::pair<std::string_view, snap::StateVisitor::Walk> sections[] = {
      {"CONF",
       [this](snap::Io& io) {
         Config conf = config_;
         std::uint32_t mem_size = machine_->memory().size();
         std::vector<std::string> devices = device_names(*machine_);
         Status s = conf_state(io, conf, mem_size, devices);
         if (s.is_ok() && io.loading() && io.ok()) {
           s = check_conf(*this, conf, mem_size, devices);
         }
         return s;
       }},
      {"PLAT",
       [this](snap::Io& io) {
         io.boolean(booted_);
         boot_report_state(io, boot_report_);
         return Status::ok();
       }},
      {"MACH", [this](snap::Io& io) { return machine_->state(io); }},
      // Physical memory is authoritative for everything the guest can
      // address: the IDT, firmware windows, task images and stacks, the
      // shadow-TCB region, mailbox words, and the sealed-storage arena.
      {"MEMR",
       [this](snap::Io& io) {
         sim::PhysicalMemory& memory = machine_->memory();
         std::span<const std::uint8_t> bytes = memory.view(0, memory.size());
         io.blob_view(bytes);
         if (io.loading()) {
           if (bytes.size() != memory.size()) {
             return make_error(Err::kCorrupt, "snapshot memory image is " +
                                                  std::to_string(bytes.size()) +
                                                  " bytes, machine has " +
                                                  std::to_string(memory.size()));
           }
           memory.restore(bytes, io.origin());
         }
         return Status::ok();
       }},
      // Devices in bus attach order; each device owns its payload layout, so
      // the section nests one length-prefixed payload per device.
      {"DEVS",
       [this](snap::Io& io) {
         if (!io.loading()) {
           // Devices latch their time lazily between tick events; bring
           // every latch up to the classic per-instruction value first.
           machine_->flush_device_time();
         }
         const auto& devices = machine_->bus().devices();
         auto count = static_cast<std::uint32_t>(devices.size());
         io.u32(count);
         if (io.loading() && count != devices.size()) {
           return make_error(Err::kInvalidArgument,
                             "snapshot device count differs from this platform");
         }
         for (const auto& device : devices) {
           std::string name(device->name());
           io.str(name);
           if (io.loading() && name != device->name()) {
             return make_error(Err::kInvalidArgument,
                               "snapshot device '" + name + "' does not match '" +
                                   std::string(device->name()) + "'");
           }
           if (Status s = io.nested("device '" + name + "'",
                                    [&device](snap::Io& payload) {
                                      return device->state(payload);
                                    });
               !s.is_ok()) {
             return s;
           }
         }
         return Status::ok();
       }},
      // The tracer's ring is guest-replay-relevant (tytan-trace dumps it
      // after a replayed run), so enablement, capacity and entries travel.
      {"TRCE",
       [this](snap::Io& io) {
         bool enabled = machine_->tracer() != nullptr;
         io.boolean(enabled);
         if (io.loading()) {
           machine_->enable_trace(enabled ? 1 : 0);  // the walk restores the capacity
         }
         return enabled ? machine_->tracer()->state(io) : Status::ok();
       }},
      {"EMPU", [this](snap::Io& io) { return mpu_->state(io); }},
      {"DRVS", [this](snap::Io& io) { return driver_->state(io); }},
      {"SCHD", [this](snap::Io& io) { return scheduler_->state(io); }},
      {"KRNL", [this](snap::Io& io) { return kernel_->state(io); }},
      {"IMUX", [this](snap::Io& io) { return int_mux_->state(io); }},
      {"LOAD", [this](snap::Io& io) { return loader_->state(io); }},
      {"RTMS", [this](snap::Io& io) { return rtm_->state(io); }},
      {"STOR", [this](snap::Io& io) { return storage_->state(io); }},
      {"IPCP", [this](snap::Io& io) { return proxy_->state(io); }},
      {"UPDT", [this](snap::Io& io) { return updater_->state(io); }},
      {"FALT",
       [this](snap::Io& io) {
         bool present = fault_engine_ != nullptr;
         io.boolean(present);
         if (io.loading() && present != (fault_engine_ != nullptr)) {
           return make_error(
               Err::kInvalidArgument,
               "snapshot fault-engine presence differs from this platform");
         }
         return present ? fault_engine_->state(io) : Status::ok();
       }},
  };
  for (const auto& [tag, state] : sections) {
    if (Status s = visitor.section(tag, state); !s.is_ok()) {
      return s;
    }
  }
  return Status::ok();
}

Result<snap::Snapshot> Platform::save() const {
  if (loader_->job_has_callback()) {
    return make_error(Err::kUnavailable,
                      "cannot snapshot while an async load with a completion "
                      "callback is in flight (let the update finish first)");
  }
  if (kernel_->timers().active_count() != 0) {
    return make_error(Err::kUnavailable,
                      "cannot snapshot while software timers are active "
                      "(timer callbacks cannot travel)");
  }
  snap::SaveVisitor visitor;
  // The save closures of the walk never mutate; visit_state is non-const
  // only because the restore closures bind mutable state.
  Platform& self = const_cast<Platform&>(*this);
  if (Status s = self.visit_state(visitor); !s.is_ok()) {
    return s;
  }
  return visitor.take();
}

Status Platform::restore(const snap::Snapshot& snapshot) {
  snap::RestoreVisitor visitor(snapshot);
  if (Status s = visit_state(visitor); !s.is_ok()) {
    return s;
  }
  // The machine's policy pointer is wiring, not serialized state: armed
  // exactly when the restored platform is past secure boot.
  machine_->set_policy(booted_ ? mpu_.get() : nullptr);
  return Status::ok();
}

Result<std::unique_ptr<Platform>> Platform::clone() const {
  auto snapshot = save();
  if (!snapshot.is_ok()) {
    return snapshot.status();
  }
  // No boot(): the clone's post-boot state — locked EA-MPU, verified
  // firmware, kernel tasks — travels inside the snapshot.  A clone costs a
  // save, a construction and a restore, ~0.2 ms in bench_snapshot; it copies
  // a running platform and is no cheaper than a fresh boot (~12 us after
  // construction).
  auto copy = std::make_unique<Platform>(config_);
  if (Status s = copy->restore(*snapshot); !s.is_ok()) {
    return s;
  }
  return copy;
}

Result<Platform::Config> Platform::config_from_snapshot(
    const snap::Snapshot& snapshot, const LogContext* log) {
  const ByteVec* payload = snapshot.find("CONF");
  if (payload == nullptr) {
    return make_error(Err::kCorrupt, "snapshot missing section 'CONF'");
  }
  snap::Reader reader(*payload);
  snap::Io io(reader);
  Config config;
  std::uint32_t mem_size = 0;
  std::vector<std::string> devices;
  if (Status s = conf_state(io, config, mem_size, devices); !s.is_ok()) {
    return s;
  }
  if (!io.ok()) {
    return make_error(Err::kCorrupt, "snapshot section 'CONF' truncated");
  }
  if (mem_size != sim::kMemSize) {
    return make_error(Err::kInvalidArgument,
                      "snapshot machine has " + std::to_string(mem_size) +
                          " bytes of memory; this build simulates " +
                          std::to_string(sim::kMemSize));
  }
  config.log = log;
  return config;
}

Result<std::uint64_t> Platform::snapshot_cycle(const snap::Snapshot& snapshot) {
  const ByteVec* payload = snapshot.find("MACH");
  if (payload == nullptr) {
    return make_error(Err::kCorrupt, "snapshot missing section 'MACH'");
  }
  snap::Reader r(*payload);
  snap::Io io(r);
  sim::CpuState cpu;
  std::uint64_t cycle = 0;
  sim::Machine::cpu_and_clock(io, cpu, cycle);
  if (!io.ok()) {
    return make_error(Err::kCorrupt, "snapshot section 'MACH' truncated");
  }
  return cycle;
}

}  // namespace tytan::core
