#include "obs/telemetry.h"

#include <sstream>

#include "common/json.h"

namespace tytan::obs {

// ---------------------------------------------------------------------------
// Built-in rules
// ---------------------------------------------------------------------------

std::optional<std::string> AttestationFailureRule::check(const HealthSnapshot& cur,
                                                         const HealthSnapshot* prev,
                                                         const FleetBaseline&) {
  const std::uint64_t before = prev != nullptr ? prev->attest_failed : 0;
  if (cur.attest_failed <= before) {
    return std::nullopt;
  }
  std::ostringstream os;
  os << (cur.attest_failed - before) << " attestation failure(s), "
     << cur.attest_failed << " total";
  return os.str();
}

std::optional<std::string> FaultSpikeRule::check(const HealthSnapshot& cur,
                                                 const HealthSnapshot* prev,
                                                 const FleetBaseline& baseline) {
  const std::uint64_t before = prev != nullptr ? prev->faults : 0;
  const std::uint64_t delta = cur.faults - before;
  if (delta < min_delta_) {
    return std::nullopt;
  }
  // Fleet-wide behavior is not anomalous — but compare against what the
  // *other* devices averaged this round, not a mean this device is part of:
  // one bad device must not be able to hide inside a baseline it dominates.
  double peers = baseline.mean_fault_delta;
  if (baseline.devices > 1) {
    const double total =
        baseline.mean_fault_delta * static_cast<double>(baseline.devices);
    peers = (total - static_cast<double>(delta)) /
            static_cast<double>(baseline.devices - 1);
    if (peers < 0.0) {
      peers = 0.0;
    }
  }
  if (static_cast<double>(delta) <= factor_ * peers) {
    return std::nullopt;
  }
  std::ostringstream os;
  os << delta << " fault(s) this round vs peer mean " << peers;
  return os.str();
}

std::optional<std::string> StalledDeviceRule::check(const HealthSnapshot& cur,
                                                    const HealthSnapshot* prev,
                                                    const FleetBaseline&) {
  State& state = per_device_[cur.device];
  if (prev == nullptr || cur.cycle > prev->cycle) {
    state = {};
    return std::nullopt;
  }
  ++state.stalled;
  if (state.stalled < threshold_ || state.fired) {
    return std::nullopt;
  }
  state.fired = true;
  std::ostringstream os;
  os << "no cycle progress for " << state.stalled << " consecutive snapshots"
     << (cur.halted ? " (machine halted)" : "");
  return os.str();
}

std::optional<std::string> EventDropRule::check(const HealthSnapshot& cur,
                                                const HealthSnapshot* prev,
                                                const FleetBaseline&) {
  const std::uint64_t before = prev != nullptr ? prev->events_dropped : 0;
  const std::uint64_t delta = cur.events_dropped - before;
  if (delta < min_delta_) {
    return std::nullopt;
  }
  std::ostringstream os;
  os << delta << " event(s) evicted from the trace ring this round, "
     << cur.events_dropped << " total";
  return os.str();
}

// ---------------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------------

void TelemetryHub::add_rule(std::unique_ptr<AnomalyRule> rule) {
  const std::lock_guard<std::mutex> lock(mutex_);
  rules_.push_back(std::move(rule));
}

void TelemetryHub::install_default_rules(const AnomalyThresholds& thresholds) {
  add_rule(std::make_unique<AttestationFailureRule>());
  add_rule(std::make_unique<FaultSpikeRule>(thresholds.fault_spike_min,
                                            thresholds.fault_spike_factor));
  add_rule(std::make_unique<StalledDeviceRule>(thresholds.stall_snapshots));
  add_rule(std::make_unique<EventDropRule>(thresholds.event_drop_min));
}

void TelemetryHub::record_round(
    const std::vector<HealthSnapshot>& round,
    const std::function<const EventBus*(std::size_t)>& bus_of) {
  const std::lock_guard<std::mutex> lock(mutex_);
  FleetBaseline baseline;
  baseline.devices = round.size();
  if (!round.empty()) {
    std::uint64_t fault_delta = 0;
    std::uint64_t cycle_delta = 0;
    for (const HealthSnapshot& snapshot : round) {
      const auto it = previous_.find(snapshot.device);
      if (it != previous_.end()) {
        fault_delta += snapshot.faults - it->second.faults;
        cycle_delta += snapshot.cycle - it->second.cycle;
      } else {
        fault_delta += snapshot.faults;
        cycle_delta += snapshot.cycle;
      }
    }
    baseline.mean_fault_delta =
        static_cast<double>(fault_delta) / static_cast<double>(round.size());
    baseline.mean_cycle_delta =
        static_cast<double>(cycle_delta) / static_cast<double>(round.size());
  }
  for (std::size_t i = 0; i < round.size(); ++i) {
    record_locked(round[i], baseline, bus_of ? bus_of(i) : nullptr);
  }
}

void TelemetryHub::record(const HealthSnapshot& snapshot, const EventBus* bus) {
  const std::lock_guard<std::mutex> lock(mutex_);
  FleetBaseline baseline;
  baseline.devices = 1;
  const auto it = previous_.find(snapshot.device);
  const HealthSnapshot* prev = it != previous_.end() ? &it->second : nullptr;
  baseline.mean_fault_delta =
      static_cast<double>(snapshot.faults - (prev != nullptr ? prev->faults : 0));
  baseline.mean_cycle_delta =
      static_cast<double>(snapshot.cycle - (prev != nullptr ? prev->cycle : 0));
  record_locked(snapshot, baseline, bus);
}

void TelemetryHub::record_locked(const HealthSnapshot& snapshot,
                                 const FleetBaseline& baseline, const EventBus* bus) {
  const auto it = previous_.find(snapshot.device);
  const HealthSnapshot* prev = it != previous_.end() ? &it->second : nullptr;
  log_.order.emplace_back(false, log_.snapshots.size());
  log_.snapshots.push_back(snapshot);
  for (const std::unique_ptr<AnomalyRule>& rule : rules_) {
    if (auto message = rule->check(snapshot, prev, baseline)) {
      Anomaly anomaly;
      anomaly.device = snapshot.device;
      anomaly.rule = std::string(rule->name());
      anomaly.seq = snapshot.seq;
      anomaly.cycle = snapshot.cycle;
      anomaly.message = std::move(*message);
      if (bus != nullptr) {
        std::vector<Event> events = bus->snapshot();
        const std::size_t keep = std::min(flight_events_, events.size());
        anomaly.flight.assign(events.end() - static_cast<std::ptrdiff_t>(keep),
                              events.end());
      }
      log_.order.emplace_back(true, log_.anomalies.size());
      log_.anomalies.push_back(std::move(anomaly));
    }
  }
  previous_[snapshot.device] = snapshot;
}

std::vector<HealthSnapshot> TelemetryHub::snapshots() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return log_.snapshots;
}

std::vector<Anomaly> TelemetryHub::anomalies() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return log_.anomalies;
}

std::map<std::uint32_t, HealthSnapshot> TelemetryHub::latest() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return previous_;
}

namespace {

/// The one key list of a snapshot line.
void walk_snapshot(json::Io& io, HealthSnapshot& s) {
  io.tag("type", "snapshot");
  io.u32("device", s.device);
  io.u64("seq", s.seq);
  io.u64("cycle", s.cycle);
  io.u64("instructions", s.instructions);
  io.u64("faults", s.faults);
  io.u64("fault_kills", s.fault_kills);
  io.u64("interrupts", s.interrupts);
  io.u64("syscalls", s.syscalls);
  io.u64("ctx_switches", s.ctx_switches);
  io.u64("ipc_delivered", s.ipc_delivered);
  io.u64("ipc_rejects", s.ipc_rejects);
  io.u64("attest_total", s.attest_total);
  io.u64("attest_verified", s.attest_verified);
  io.u64("attest_failed", s.attest_failed);
  io.u64("events_dropped", s.events_dropped);
  io.u64("faults_injected", s.faults_injected);
  io.u64("recoveries", s.fault_recoveries);
  io.u64("watchdog_restarts", s.watchdog_restarts);
  io.u64("spans", s.spans_recorded);
  io.u64("round_p99", s.attest_round_p99);
  io.flag("halted", s.halted);
}

void walk_flight_event(json::Io& io, Event& e) {
  io.u64("cycle", e.cycle);
  io.name("kind", e.kind, kNumEventKinds, kind_name);
  io.i32("task", e.task);
  io.u32("a", e.a);
  io.u32("b", e.b);
}

/// The one key list of an anomaly line.
void walk_anomaly(json::Io& io, Anomaly& a) {
  io.tag("type", "anomaly");
  io.u32("device", a.device);
  io.str("rule", a.rule);
  io.u64("seq", a.seq);
  io.u64("cycle", a.cycle);
  io.str("message", a.message);
  io.array("flight", a.flight, walk_flight_event);
}

}  // namespace

std::string TelemetryLog::to_jsonl() const {
  std::string out;
  for (const auto& [is_anomaly, index] : order) {
    if (is_anomaly) {
      Anomaly anomaly = anomalies[index];
      json::write_object(out, walk_anomaly, anomaly);
    } else {
      HealthSnapshot snapshot = snapshots[index];
      json::write_object(out, walk_snapshot, snapshot);
    }
    out += '\n';
  }
  return out;
}

std::string TelemetryHub::to_jsonl() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return log_.to_jsonl();
}

Result<TelemetryLog> parse_telemetry_jsonl(std::string_view text) {
  TelemetryLog log;
  json::Lines lines(text);
  for (std::string_view line; lines.next(line);) {
    const std::string type = json::find_str(line, "type");
    bool ok = false;
    if (type == "snapshot") {
      log.order.emplace_back(false, log.snapshots.size());
      ok = json::read_object(line, walk_snapshot, log.snapshots.emplace_back());
    } else if (type == "anomaly") {
      log.order.emplace_back(true, log.anomalies.size());
      ok = json::read_object(line, walk_anomaly, log.anomalies.emplace_back());
    }
    if (!ok) {
      return lines.corrupt("telemetry");
    }
  }
  return log;
}

}  // namespace tytan::obs
