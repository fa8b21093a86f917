// A fleet of independent TyTAN platforms driven concurrently.
//
// The fleet owns N fully self-contained core::Platform instances — each with
// its own machine, devices, per-device Kp (provisioned by a
// verifier::Manufacturer), per-device RNG seed, and per-device LogContext —
// and advances them on a fixed-size thread pool in round-robin cycle quanta:
// every round, each device runs `quantum` simulated cycles, with a barrier
// between rounds.
//
// Thread-safety invariant: one thread drives a Platform at a time, and
// Platforms share no mutable state, so any device may run on any worker in
// any round without synchronization beyond the round barrier.  A device's
// simulation is therefore byte-identical regardless of thread count — the
// property tests/test_fleet.cc pins down.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/platform.h"
#include "fleet/thread_pool.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "verifier/verifier.h"

namespace tytan::fleet {

/// Device i's RNG is seeded kDeviceRngSeedBase + i: distinct per device,
/// reproducible run to run.
inline constexpr std::uint64_t kDeviceRngSeedBase = 0x5eed'0000'0000'0001ull;

/// Fleet-level telemetry: health snapshots at round barriers, run through
/// the hub's fixed anomaly rules (attestation failure, fault spike, stalled
/// device, event drops) with flight-recorder dumps.  Off by default;
/// snapshot collection runs on the caller's thread in device order, so
/// telemetry output is deterministic whatever the worker-thread count.
struct TelemetryConfig {
  bool enabled = false;
  /// Snapshot cadence: every N round barriers (and once after attest_all).
  std::uint64_t every_rounds = 1;
};

struct FleetConfig {
  std::size_t device_count = 1;
  std::size_t threads = 1;
  /// Round-robin slice: simulated cycles each device advances per round.
  std::uint64_t quantum = 100'000;
  /// Seed for the manufacturer's key-provisioning ladder (per-device Kp).
  std::uint64_t manufacturer_seed = 0x7479'7461'6e21ull;
  /// Record attestation spans (obs/span.h): per-round trace ids, typed
  /// protocol phases, fault annotations.  Off by default — dormant spans are
  /// a single branch per site and never a simulated cycle.
  bool spans = false;
  /// Record execution-heat profiles (obs/heat.h) on every device, aggregated
  /// into the fleet registry by aggregate_metrics().  Devices run with
  /// dispatch timing OFF so fleet artifacts stay byte-identical across
  /// thread counts (host nanoseconds are non-deterministic; counts are not).
  bool heat = false;
  /// Template for every device's Platform::Config; kp, rng_seed, and log
  /// are overridden per device.  base.fault_plan is installed on device
  /// `fault_plan_device` only (the rest of the fleet is the healthy control
  /// group); empty = no engine anywhere.
  core::Platform::Config base{};
  /// Health snapshots + anomaly detection (off by default).
  TelemetryConfig telemetry{};
  std::size_t fault_plan_device = 0;
  /// Graceful degradation for failed attestations: re-attest up to this many
  /// times, backing off exponentially (backoff << attempt simulated cycles on
  /// the device), before the sweep's verdict stands.  0 keeps the historical
  /// one-shot behaviour.
  unsigned attest_retries = 0;
  std::uint64_t attest_backoff_cycles = 25'000;
};

/// One simulated device plus the fleet-side state needed to drive and
/// attest it.  All members are exclusive to the device; the fleet hands a
/// device to at most one worker thread at a time.
class FleetDevice {
 public:
  [[nodiscard]] verifier::DeviceId id() const { return id_; }
  [[nodiscard]] core::Platform& platform() { return *platform_; }
  [[nodiscard]] const core::Platform& platform() const { return *platform_; }
  [[nodiscard]] LogContext& log_context() { return log_; }
  [[nodiscard]] rtos::TaskHandle task() const { return task_; }
  [[nodiscard]] std::uint64_t nonce() const { return nonce_; }
  [[nodiscard]] const core::AttestationReport& report() const { return report_; }
  [[nodiscard]] const verifier::VerifyOutcome& outcome() const { return outcome_; }
  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] bool attested() const { return attested_; }
  /// Cumulative attestation verdicts over every attest_all() sweep.
  [[nodiscard]] std::uint64_t attest_total() const { return attest_total_; }
  [[nodiscard]] std::uint64_t attest_verified() const { return attest_verified_; }
  [[nodiscard]] std::uint64_t attest_failed() const { return attest_failed_; }
  /// Sweeps that recovered (verified) only after at least one retry.
  [[nodiscard]] std::uint64_t attest_recoveries() const { return attest_recoveries_; }
  /// Deploy-time loads rejected by the golden-identity gate, then retried.
  [[nodiscard]] std::uint64_t quarantines() const { return quarantines_; }

 private:
  friend class Fleet;

  verifier::DeviceId id_ = 0;
  LogContext log_;
  std::unique_ptr<core::Platform> platform_;
  std::unique_ptr<verifier::Challenger> challenger_;
  rtos::TaskHandle task_ = rtos::kNoTask;
  std::uint64_t nonce_ = 0;
  bool attested_ = false;
  core::AttestationReport report_{};
  verifier::VerifyOutcome outcome_{verifier::VerifyOutcome::Code::kUnknownChallenge,
                                   nullptr};
  Status status_;  ///< first error hit while driving this device
  std::uint64_t attest_total_ = 0;
  std::uint64_t attest_verified_ = 0;
  std::uint64_t attest_failed_ = 0;
  std::uint64_t attest_recoveries_ = 0;
  std::uint64_t attest_rounds_ = 0;  ///< completed attest_all() rounds (trace ids)
  std::uint64_t quarantines_ = 0;
  std::uint64_t telemetry_seq_ = 0;  ///< per-device HealthSnapshot sequence
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);

  /// Provision a Kp for every device (sequential — the manufacturer is the
  /// one shared trust root), then build and boot every platform in parallel.
  Status bring_up();

  /// Assemble `source` once, register it in the golden database as
  /// `release_name` version `version`, and load it on every device in
  /// parallel.  bring_up() must have succeeded.
  Status deploy(std::string_view source, std::string_view release_name,
                unsigned version);

  /// Advance every device by `cycles` simulated cycles, in round-robin
  /// quanta of config().quantum with a barrier between rounds.
  void run(std::uint64_t cycles);

  /// Challenge-response attestation sweep: issue a fresh nonce per device,
  /// collect the device's report, verify it against the golden database.
  /// Returns the number of devices whose reports verified.
  std::size_t attest_all(std::string_view release_name);

  /// Fold every device's obs metrics into the fleet registry (no-op for
  /// devices without obs enabled) and refresh the fleet rollup counters.
  void aggregate_metrics();

  // -- access ----------------------------------------------------------------
  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] std::size_t size() const { return devices_.size(); }
  [[nodiscard]] FleetDevice& device(std::size_t i) { return *devices_[i]; }
  [[nodiscard]] const FleetDevice& device(std::size_t i) const { return *devices_[i]; }
  [[nodiscard]] verifier::Manufacturer& manufacturer() { return manufacturer_; }
  /// Fleet-level metrics: per-device registries merged, plus fleet.* rollups
  /// (devices, cycles, instructions, attestations issued/verified).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// Telemetry hub: health snapshots, anomaly records, flight-recorder dumps.
  /// Populated only when config().telemetry.enabled.
  [[nodiscard]] obs::TelemetryHub& telemetry() { return telemetry_; }
  [[nodiscard]] const obs::TelemetryHub& telemetry() const { return telemetry_; }

  /// Concatenate every device's span recorder as JSONL, sequentially in
  /// device order — byte-identical whatever the worker-thread count (the
  /// same discipline as telemetry).  Empty unless config().spans.
  [[nodiscard]] std::string spans_jsonl() const;

  /// Deterministic trace id for device `device_id`'s round `round` (1-based).
  [[nodiscard]] static std::uint64_t trace_id(std::uint32_t device_id,
                                              std::uint64_t round) {
    return (static_cast<std::uint64_t>(device_id) << 20) | round;
  }

  /// Snapshot every device's health into the telemetry hub, running anomaly
  /// rules against the fleet baseline.  Called automatically at round
  /// barriers (per config().telemetry.every_rounds) and after attest_all();
  /// callable directly for ad-hoc collection.  Always sequential in device
  /// order, so telemetry output never depends on the worker-thread count.
  void snapshot_all();

  /// Replace device `index`'s workload with `source` WITHOUT registering it
  /// in the golden database — the device now runs a binary the verifier has
  /// no golden identity for, so its next attestation fails.  Test/CI hook
  /// for seeding attestation-failure anomalies.
  Status deploy_rogue(std::size_t index, std::string_view source);

  struct Totals {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t faults = 0;
    std::size_t attested = 0;
    std::size_t verified = 0;
  };
  [[nodiscard]] Totals totals() const;

 private:
  [[nodiscard]] obs::HealthSnapshot snapshot_device(FleetDevice& dev);

  FleetConfig config_;
  verifier::Manufacturer manufacturer_;
  verifier::GoldenDatabase golden_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<FleetDevice>> devices_;
  obs::MetricsRegistry metrics_;
  obs::TelemetryHub telemetry_;
  std::uint64_t rounds_run_ = 0;  ///< round barriers crossed (snapshot cadence)
};

}  // namespace tytan::fleet
