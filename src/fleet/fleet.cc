#include "fleet/fleet.h"

#include "isa/assembler.h"

namespace tytan::fleet {

Fleet::Fleet(FleetConfig config)
    : config_(config),
      manufacturer_(config.manufacturer_seed),
      pool_(config.threads),
      telemetry_(config.telemetry.flight_events) {
  devices_.reserve(config_.device_count);
  for (std::size_t i = 0; i < config_.device_count; ++i) {
    devices_.push_back(std::make_unique<FleetDevice>());
  }
  if (config_.telemetry.enabled && config_.telemetry.default_rules) {
    telemetry_.install_default_rules(config_.telemetry.thresholds);
  }
}

Status Fleet::bring_up() {
  // Provisioning mutates the manufacturer's key ledger — sequential, and
  // deterministic in device order.
  for (const std::unique_ptr<FleetDevice>& device : devices_) {
    device->id_ = manufacturer_.provision_device();
  }
  // Platform construction and secure boot touch only per-device state.
  pool_.parallel_for(devices_.size(), [this](std::size_t i) {
    FleetDevice& device = *devices_[i];
    auto kp = manufacturer_.device_kp(device.id_);
    if (!kp.is_ok()) {
      device.status_ = kp.status();
      return;
    }
    // Start from the whole base config so no field (dispatch, costs, lint)
    // is dropped; only the per-device fields differ.
    core::Platform::Config config = config_.base;
    config.kp = *kp;
    config.rng_seed = kDeviceRngSeedBase + i;
    config.log = &device.log_;
    if (i != config_.fault_plan_device) {
      config.fault_plan = {};  // the rest of the fleet is the control group
    }
    device.platform_ = std::make_unique<core::Platform>(config);
    // Every device runs its obs hub (bus, metrics, accounting) so fleet
    // metrics aggregate; it costs host time, never a cycle.
    device.platform_->machine().obs().enable();
    obs::SpanRecorder& spans = device.platform_->machine().obs().spans();
    spans.set_device(device.id_);
    if (config_.spans) {
      spans.enable();
    }
    if (config_.heat) {
      device.platform_->machine().enable_heat(/*time_dispatch=*/false);
    }
    if (auto boot = device.platform_->boot(); !boot.is_ok()) {
      device.status_ = boot.status();
    }
  });
  for (const std::unique_ptr<FleetDevice>& device : devices_) {
    if (!device->status_.is_ok()) {
      return device->status_;
    }
  }
  return Status::ok();
}

Status Fleet::deploy(std::string_view source, std::string_view release_name,
                     unsigned version) {
  auto object = isa::assemble(source);
  if (!object.is_ok()) {
    return object.status();
  }
  const verifier::Release& release =
      golden_.add_release(std::string(release_name), version, *object);
  // Each device loads its own copy; the shared ObjectFile is read-only from
  // here on.
  const isa::ObjectFile& image = *object;
  pool_.parallel_for(devices_.size(), [&](std::size_t i) {
    FleetDevice& device = *devices_[i];
    if (!device.status_.is_ok()) {
      return;
    }
    core::LoadParams params{.name = std::string(release_name)};
    // The golden identity gates the load: a corrupt image (bit rot, fault
    // injection) is quarantined by the loader instead of entering service.
    params.expected_identity = release.identity;
    auto handle = device.platform_->load_task(isa::ObjectFile(image), params);
    if (!handle.is_ok() && handle.status().code() == Err::kCorrupt) {
      // Quarantined: retry once from the pristine image (transient transport
      // corruption — e.g. a tbf-bitflip clause — does not recur).
      device.quarantines_ += 1;
      handle = device.platform_->load_task(isa::ObjectFile(image), params);
    }
    if (!handle.is_ok()) {
      device.status_ = handle.status();
      return;
    }
    device.task_ = *handle;
  });
  for (const std::unique_ptr<FleetDevice>& device : devices_) {
    if (!device->status_.is_ok()) {
      return device->status_;
    }
  }
  return Status::ok();
}

void Fleet::run(std::uint64_t cycles) {
  const std::uint64_t quantum = config_.quantum == 0 ? cycles : config_.quantum;
  for (std::uint64_t done = 0; done < cycles; done += quantum) {
    const std::uint64_t slice = std::min(quantum, cycles - done);
    pool_.parallel_for(devices_.size(), [&](std::size_t i) {
      FleetDevice& device = *devices_[i];
      if (device.status_.is_ok() && device.platform_->booted()) {
        device.platform_->run_for(slice);
      }
    });
    // Snapshot at the round barrier, on this thread, in device order — the
    // workers are parked, so telemetry sees a consistent fleet and its output
    // is byte-identical whatever the thread count.
    ++rounds_run_;
    if (config_.telemetry.enabled && config_.telemetry.every_rounds != 0 &&
        rounds_run_ % config_.telemetry.every_rounds == 0) {
      snapshot_all();
    }
  }
}

std::size_t Fleet::attest_all(std::string_view release_name) {
  // Challenger construction reads the manufacturer ledger (const) — still
  // done here, per device, so Ka never has to be stored fleet-side.
  pool_.parallel_for(devices_.size(), [&](std::size_t i) {
    FleetDevice& device = *devices_[i];
    if (!device.status_.is_ok() || device.task_ == rtos::kNoTask) {
      return;
    }
    if (device.challenger_ == nullptr) {
      auto ka = manufacturer_.attestation_key(device.id_);
      if (!ka.is_ok()) {
        device.status_ = ka.status();
        return;
      }
      // Distinct, deterministic nonce stream per device.
      device.challenger_ = std::make_unique<verifier::Challenger>(
          *ka, golden_, /*nonce_seed=*/0x6e6f'6e63'6500ull + device.id_);
    }
    fault::FaultEngine* engine = device.platform_->fault_engine();
    // One trace per round (the whole retry loop), shared challenger<->prover:
    // the round root opens here and every phase below nests under it.
    obs::SpanRecorder& spans = device.platform_->machine().obs().spans();
    device.attest_rounds_ += 1;
    const obs::SpanRecorder::SpanId round = spans.begin_trace(
        trace_id(device.id_, device.attest_rounds_), obs::SpanPhase::kAttestRound,
        device.task_);
    unsigned attempt = 0;
    while (true) {
      obs::SpanRecorder::SpanId phase =
          spans.begin(obs::SpanPhase::kNonceGen, device.task_);
      const std::uint64_t previous_nonce = device.nonce_;
      std::uint64_t nonce = device.challenger_->issue_challenge();
      spans.end(phase, obs::SpanOutcome::kOk);
      if (engine != nullptr && engine->on_attest(device.attest_total_ + 1) &&
          previous_nonce != 0) {
        // Replay the already-consumed challenge; the verifier's single-use
        // nonce ledger must reject the report (kUnknownChallenge).  The
        // kFaultInject lands as a note on the open round span.
        nonce = previous_nonce;
        device.platform_->machine().obs().emit(
            obs::EventKind::kFaultInject, -1,
            static_cast<std::uint32_t>(fault::FaultClass::kNonceReplay),
            static_cast<std::uint32_t>(device.attest_total_ + 1));
      }
      phase = spans.begin(obs::SpanPhase::kChallengeDeliver, device.task_);
      device.nonce_ = nonce;
      device.attest_total_ += 1;
      spans.end(phase, obs::SpanOutcome::kOk);
      // attest_task opens the prover's hmac-compute span under `round`.
      auto report = device.platform_->remote_attest().attest_task(device.task_,
                                                                  nonce);
      if (!report.is_ok()) {
        device.status_ = report.status();
        device.attest_failed_ += 1;
        spans.end(round, obs::SpanOutcome::kFailed);
        return;
      }
      phase = spans.begin(obs::SpanPhase::kReportReturn, device.task_);
      device.report_ = *report;
      device.attested_ = true;
      spans.end(phase, obs::SpanOutcome::kOk);
      phase = spans.begin(obs::SpanPhase::kVerify, device.task_);
      device.outcome_ = device.challenger_->verify(device.report_, release_name);
      spans.end(phase, device.outcome_.ok() ? obs::SpanOutcome::kOk
                                            : obs::SpanOutcome::kFailed);
      if (device.outcome_.ok()) {
        device.attest_verified_ += 1;
        if (attempt > 0) {
          // Recovered via retry: note it against the engine (if the failure
          // was injected) and mark the event for telemetry either way.
          device.attest_recoveries_ += 1;
          if (engine != nullptr) {
            engine->note_recovery(fault::FaultClass::kNonceReplay);
          }
          device.platform_->machine().obs().emit(
              obs::EventKind::kFaultRecover, -1,
              static_cast<std::uint32_t>(fault::RecoveryKind::kAttestRetry),
              attempt);
        }
        spans.end(round, attempt > 0 ? obs::SpanOutcome::kRetried
                                     : obs::SpanOutcome::kOk);
        return;
      }
      device.attest_failed_ += 1;
      if (attempt >= config_.attest_retries) {
        spans.end(round, obs::SpanOutcome::kFailed);
        return;  // out of retries — the failed verdict stands (rogue device)
      }
      // Bounded exponential backoff in simulated time before re-attesting.
      phase = spans.begin(obs::SpanPhase::kRetryBackoff, device.task_);
      device.platform_->run_for(config_.attest_backoff_cycles << attempt);
      spans.end(phase, obs::SpanOutcome::kOk);
      ++attempt;
    }
  });
  std::size_t verified = 0;
  for (const std::unique_ptr<FleetDevice>& device : devices_) {
    if (device->attested_ && device->outcome_.ok()) {
      ++verified;
    }
  }
  if (config_.telemetry.enabled) {
    snapshot_all();  // catch attestation verdicts at the sweep barrier
  }
  return verified;
}

void Fleet::aggregate_metrics() {
  metrics_.clear();
  for (const std::unique_ptr<FleetDevice>& device : devices_) {
    if (device->platform_ == nullptr) {
      continue;
    }
    obs::Hub& hub = device->platform_->machine().obs();
    if (obs::HeatRecorder* heat = device->platform_->machine().heat(); heat != nullptr) {
      heat->flush();  // close the open block so counts are exact
    }
    if (hub.enabled() || device->platform_->machine().heat() != nullptr) {
      hub.flush();
      metrics_.merge_from(hub.metrics());
    }
  }
  const Totals t = totals();
  metrics_.counter("fleet.devices").inc(devices_.size());
  metrics_.counter("fleet.cycles").inc(t.cycles);
  metrics_.counter("fleet.instructions").inc(t.instructions);
  metrics_.counter("fleet.interrupts").inc(t.interrupts);
  metrics_.counter("fleet.faults").inc(t.faults);
  metrics_.counter("fleet.attestations").inc(t.attested);
  metrics_.counter("fleet.attestations_verified").inc(t.verified);
}

std::string Fleet::spans_jsonl() const {
  std::string out;
  for (const std::unique_ptr<FleetDevice>& device : devices_) {
    if (device->platform_ == nullptr) {
      continue;
    }
    out += device->platform_->machine().obs().spans().to_jsonl();
  }
  return out;
}

void Fleet::snapshot_all() {
  std::vector<obs::HealthSnapshot> round;
  std::vector<const obs::EventBus*> buses;
  round.reserve(devices_.size());
  buses.reserve(devices_.size());
  for (const std::unique_ptr<FleetDevice>& device : devices_) {
    if (device->platform_ == nullptr) {
      continue;
    }
    round.push_back(snapshot_device(*device));
    obs::Hub& hub = device->platform_->machine().obs();
    buses.push_back(hub.enabled() ? &hub.bus() : nullptr);
  }
  telemetry_.record_round(round, [&](std::size_t i) { return buses[i]; });
}

obs::HealthSnapshot Fleet::snapshot_device(FleetDevice& dev) {
  obs::HealthSnapshot s;
  core::Platform& platform = *dev.platform_;
  const sim::Machine& machine = platform.machine();
  s.device = dev.id_;
  s.seq = ++dev.telemetry_seq_;
  s.cycle = machine.cycles();
  s.instructions = machine.instructions_executed();
  s.faults = machine.fault_count();
  s.fault_kills = platform.kernel().fault_kills();
  s.interrupts = machine.interrupts_dispatched();
  s.syscalls = platform.kernel().syscall_count();
  s.ipc_delivered = platform.ipc_proxy().messages_delivered();
  s.ipc_rejects = platform.ipc_proxy().messages_rejected();
  s.attest_total = dev.attest_total_;
  s.attest_verified = dev.attest_verified_;
  s.attest_failed = dev.attest_failed_;
  s.watchdog_restarts = platform.kernel().watchdog_restarts();
  if (const fault::FaultEngine* engine = platform.fault_engine();
      engine != nullptr) {
    s.faults_injected = engine->injected_total();
    s.fault_recoveries = engine->recovered_total();
  }
  s.halted = machine.halted();
  const obs::Hub& hub = machine.obs();
  if (hub.spans().enabled()) {
    s.spans_recorded = hub.spans().size();
    if (const obs::Histogram* rounds =
            hub.metrics().find_histogram("span.attest-round.cycles");
        rounds != nullptr) {
      s.attest_round_p99 = rounds->p99();
    }
  }
  if (hub.enabled()) {
    // Context switches have no component counter — they only exist as the
    // hub's events.ctx-save metric, so the field reads 0 with obs disabled.
    const obs::Counter* ctx = hub.metrics().find_counter("events.ctx-save");
    s.ctx_switches = ctx != nullptr ? ctx->value() : 0;
    s.events_dropped = hub.bus().dropped();
  }
  return s;
}

Status Fleet::deploy_rogue(std::size_t index, std::string_view source) {
  if (index >= devices_.size()) {
    return make_error(Err::kInvalidArgument, "deploy_rogue: no such device");
  }
  FleetDevice& device = *devices_[index];
  if (!device.status_.is_ok()) {
    return device.status_;
  }
  auto object = isa::assemble(source);
  if (!object.is_ok()) {
    return object.status();
  }
  // Deliberately NOT added to golden_ — the loaded task measures to an
  // identity the verifier has never blessed, so verify() => kUnknownRelease.
  auto handle = device.platform_->load_task(std::move(*object), {.name = "rogue"});
  if (!handle.is_ok()) {
    return handle.status();
  }
  device.task_ = *handle;
  return Status::ok();
}

Fleet::Totals Fleet::totals() const {
  Totals t;
  for (const std::unique_ptr<FleetDevice>& device : devices_) {
    if (device->platform_ == nullptr) {
      continue;
    }
    const sim::Machine& machine = device->platform_->machine();
    t.cycles += machine.cycles();
    t.instructions += machine.instructions_executed();
    t.interrupts += machine.interrupts_dispatched();
    t.faults += machine.fault_count();
    if (device->attested_) {
      ++t.attested;
      if (device->outcome_.ok()) {
        ++t.verified;
      }
    }
  }
  return t;
}

}  // namespace tytan::fleet
