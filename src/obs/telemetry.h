// Fleet telemetry: periodic per-device health snapshots folded into a
// thread-safe hub, with a fixed anomaly rule set and a flight recorder.
//
// Every snapshot is a POD of monotonic counters read off one device at a
// round barrier.  The hub keeps the full snapshot history, evaluates its
// four rules against (current, previous, the round's peer baseline), and —
// when a rule trips — captures the device's last events from its event bus
// as a flight-recorder dump attached to the structured anomaly record.
//
// Serialization is JSONL with a fixed key order and no wall-clock fields, so
// the output for a deterministic fleet run is byte-identical whatever the
// worker-thread count (pinned by tests/test_telemetry.cc).  The hub keeps
// its history as a TelemetryLog, the same type the reader returns, so a
// parsed stream re-serializes to the bytes it was read from.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/event_bus.h"

namespace tytan::obs {

/// One device's health counters at a point in simulated time.  All counter
/// fields are cumulative since boot; the rules work on deltas between
/// snapshots.
struct HealthSnapshot {
  std::uint32_t device = 0;
  std::uint64_t seq = 0;    ///< per-device snapshot sequence number (1-based)
  std::uint64_t cycle = 0;  ///< simulated cycles
  std::uint64_t instructions = 0;
  std::uint64_t faults = 0;
  std::uint64_t fault_kills = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t ipc_delivered = 0;
  std::uint64_t ipc_rejects = 0;
  std::uint64_t attest_total = 0;
  std::uint64_t attest_verified = 0;
  std::uint64_t attest_failed = 0;
  std::uint64_t events_dropped = 0;    ///< EventBus::dropped()
  std::uint64_t faults_injected = 0;   ///< FaultEngine injections (src/fault)
  std::uint64_t fault_recoveries = 0;  ///< recoveries paired with injections
  std::uint64_t watchdog_restarts = 0; ///< kernel watchdog task revivals
  std::uint64_t spans_recorded = 0;    ///< SpanRecorder spans (0 = spans off)
  std::uint64_t attest_round_p99 = 0;  ///< p99 attest-round cycles so far
  bool halted = false;

  bool operator==(const HealthSnapshot&) const = default;
};

/// A tripped rule, with the device's last-N events at trip time.
struct Anomaly {
  std::uint32_t device = 0;
  std::string rule;
  std::uint64_t seq = 0;
  std::uint64_t cycle = 0;
  std::string message;
  std::vector<Event> flight;  ///< flight-recorder dump (oldest first)

  bool operator==(const Anomaly&) const = default;
};

/// A telemetry stream: the records a TelemetryHub keeps, in record order,
/// and what parse_telemetry_jsonl() reads back from its JSONL.
struct TelemetryLog {
  std::vector<HealthSnapshot> snapshots;
  std::vector<Anomaly> anomalies;
  /// Interleaving of the two in record order: (is_anomaly, index).
  std::vector<std::pair<bool, std::size_t>> order;

  /// JSONL: {"type":"snapshot",...} and {"type":"anomaly",...,"flight":[...]}
  /// lines in record order, each record type's keys listed once in its walk
  /// (telemetry.cc), with no host-side field.
  [[nodiscard]] std::string to_jsonl() const;
};

class TelemetryHub {
 public:
  // The fixed rule set, evaluated per snapshot in this order against the
  // device's previous snapshot (a first snapshot counts from boot):
  //   attestation-failure  attest_failed advanced;
  //   fault-spike          fault delta >= kFaultSpikeMin and more than
  //                        kFaultSpikeFactor x the round's peer mean (the
  //                        fleet average excluding the device under test,
  //                        0 for a device alone in its round);
  //   stalled-device       no cycle progress for kStallSnapshots consecutive
  //                        snapshots; latched, re-armed by progress;
  //   event-drop           EventBus::dropped() advanced by >= kEventDropMin.
  static constexpr std::uint64_t kFaultSpikeMin = 1;
  static constexpr double kFaultSpikeFactor = 4.0;
  static constexpr std::uint64_t kStallSnapshots = 3;
  static constexpr std::uint64_t kEventDropMin = 1;
  /// A tripped rule's flight-recorder dump: the device's last N bus events.
  static constexpr std::size_t kFlightEvents = 32;

  /// Record one round of snapshots (one per device, in device order).  The
  /// peer baseline is computed from this round's deltas; the rules run per
  /// device in order; tripped rules capture the device's last events from
  /// `bus_of(device_index)` (which may return nullptr).  Thread-safe.
  void record_round(const std::vector<HealthSnapshot>& round,
                    const std::function<const EventBus*(std::size_t)>& bus_of);

  [[nodiscard]] std::vector<HealthSnapshot> snapshots() const;
  [[nodiscard]] std::vector<Anomaly> anomalies() const;
  /// Most recent snapshot per device, keyed by device id.
  [[nodiscard]] std::map<std::uint32_t, HealthSnapshot> latest() const;

  /// The recorded history as JSONL (TelemetryLog::to_jsonl).
  [[nodiscard]] std::string to_jsonl() const;

 private:
  /// Stalled-device latch of one device.
  struct Stall {
    std::uint64_t snapshots = 0;  ///< consecutive snapshots without progress
    bool fired = false;
  };

  void record_locked(const HealthSnapshot& cur, std::size_t round_devices,
                     double mean_fault_delta, const EventBus* bus);

  mutable std::mutex mutex_;
  TelemetryLog log_;
  std::map<std::uint32_t, HealthSnapshot> previous_;
  std::map<std::uint32_t, Stall> stalls_;
};

/// Parse a JSONL stream produced by TelemetryLog::to_jsonl(), flight dumps
/// included; a line that is not one complete snapshot or anomaly record is
/// kCorrupt, naming the line.
Result<TelemetryLog> parse_telemetry_jsonl(std::string_view text);

}  // namespace tytan::obs
