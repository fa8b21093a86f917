// Fleet telemetry: periodic per-device health snapshots folded into a
// thread-safe hub, with pluggable anomaly rules and a flight recorder.
//
// Every snapshot is a POD of monotonic counters read off one device at a
// round barrier.  The hub keeps the full snapshot history, evaluates every
// registered AnomalyRule against (current, previous, fleet baseline), and —
// when a rule trips — captures the device's last-N events from its event bus
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
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/event_bus.h"

namespace tytan::obs {

/// One device's health counters at a point in simulated time.  All counter
/// fields are cumulative since boot; rules work on deltas between snapshots.
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

/// Fleet-wide context a rule may compare a device against: mean per-device
/// deltas over the snapshot round being recorded.
struct FleetBaseline {
  std::size_t devices = 0;
  double mean_fault_delta = 0.0;
  double mean_cycle_delta = 0.0;
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

class AnomalyRule {
 public:
  virtual ~AnomalyRule() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Return a message to trip.  `prev` is nullptr on a device's first
  /// snapshot.  Rules may keep per-device state (they are only ever called
  /// under the hub lock, in deterministic device order).
  virtual std::optional<std::string> check(const HealthSnapshot& cur,
                                           const HealthSnapshot* prev,
                                           const FleetBaseline& baseline) = 0;
};

/// Thresholds for the built-in rules (install_default_rules).
struct AnomalyThresholds {
  /// Fault spike: delta >= min AND delta > factor * peer mean fault delta
  /// (the round's fleet average excluding the device under test).
  std::uint64_t fault_spike_min = 1;
  double fault_spike_factor = 4.0;
  /// Stalled device: no cycle progress for this many consecutive snapshots.
  std::uint64_t stall_snapshots = 3;
  /// Event drops: delta in EventBus::dropped() >= threshold.
  std::uint64_t event_drop_min = 1;
};

/// Any newly-failed attestation (attest_failed delta > 0).
class AttestationFailureRule final : public AnomalyRule {
 public:
  [[nodiscard]] std::string_view name() const override { return "attestation-failure"; }
  std::optional<std::string> check(const HealthSnapshot& cur, const HealthSnapshot* prev,
                                   const FleetBaseline& baseline) override;
};

/// Fault-rate spike versus the round's peer baseline (fleet mean excluding
/// this device).  The first snapshot counts faults since boot.
class FaultSpikeRule final : public AnomalyRule {
 public:
  explicit FaultSpikeRule(std::uint64_t min_delta = 1, double factor = 4.0)
      : min_delta_(min_delta), factor_(factor) {}
  [[nodiscard]] std::string_view name() const override { return "fault-spike"; }
  std::optional<std::string> check(const HealthSnapshot& cur, const HealthSnapshot* prev,
                                   const FleetBaseline& baseline) override;

 private:
  std::uint64_t min_delta_;
  double factor_;
};

/// Watchdog: no cycle progress for K consecutive snapshots.  Latched — fires
/// once per stall episode, re-arms when the device makes progress again.
class StalledDeviceRule final : public AnomalyRule {
 public:
  explicit StalledDeviceRule(std::uint64_t snapshots = 3) : threshold_(snapshots) {}
  [[nodiscard]] std::string_view name() const override { return "stalled-device"; }
  std::optional<std::string> check(const HealthSnapshot& cur, const HealthSnapshot* prev,
                                   const FleetBaseline& baseline) override;

 private:
  struct State {
    std::uint64_t stalled = 0;
    bool fired = false;
  };
  std::uint64_t threshold_;
  std::map<std::uint32_t, State> per_device_;
};

/// Event-bus eviction: dropped() advanced by at least `min_delta`.
class EventDropRule final : public AnomalyRule {
 public:
  explicit EventDropRule(std::uint64_t min_delta = 1) : min_delta_(min_delta) {}
  [[nodiscard]] std::string_view name() const override { return "event-drop"; }
  std::optional<std::string> check(const HealthSnapshot& cur, const HealthSnapshot* prev,
                                   const FleetBaseline& baseline) override;

 private:
  std::uint64_t min_delta_;
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
  static constexpr std::size_t kDefaultFlightEvents = 32;

  explicit TelemetryHub(std::size_t flight_events = kDefaultFlightEvents)
      : flight_events_(flight_events) {}

  void add_rule(std::unique_ptr<AnomalyRule> rule);
  void install_default_rules(const AnomalyThresholds& thresholds = {});

  /// Record one round of snapshots (one per device, in device order).  The
  /// fleet baseline is computed from this round's deltas; rules run per
  /// device in order; tripped rules capture the device's last-N events from
  /// `bus_of(device_index)` (which may return nullptr).  Thread-safe.
  void record_round(const std::vector<HealthSnapshot>& round,
                    const std::function<const EventBus*(std::size_t)>& bus_of);

  /// Record a single device's snapshot (baseline = that device alone).
  void record(const HealthSnapshot& snapshot, const EventBus* bus);

  [[nodiscard]] std::vector<HealthSnapshot> snapshots() const;
  [[nodiscard]] std::vector<Anomaly> anomalies() const;
  /// Most recent snapshot per device, keyed by device id.
  [[nodiscard]] std::map<std::uint32_t, HealthSnapshot> latest() const;

  /// The recorded history as JSONL (TelemetryLog::to_jsonl).
  [[nodiscard]] std::string to_jsonl() const;

 private:
  void record_locked(const HealthSnapshot& snapshot, const FleetBaseline& baseline,
                     const EventBus* bus);

  mutable std::mutex mutex_;
  std::size_t flight_events_;
  std::vector<std::unique_ptr<AnomalyRule>> rules_;
  TelemetryLog log_;
  std::map<std::uint32_t, HealthSnapshot> previous_;
};

/// Parse a JSONL stream produced by TelemetryLog::to_jsonl(), flight dumps
/// included; a line that is not one complete snapshot or anomaly record is
/// kCorrupt, naming the line.
Result<TelemetryLog> parse_telemetry_jsonl(std::string_view text);

}  // namespace tytan::obs
