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
  order_.emplace_back(false, snapshots_.size());
  snapshots_.push_back(snapshot);
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
      order_.emplace_back(true, anomalies_.size());
      anomalies_.push_back(std::move(anomaly));
    }
  }
  previous_[snapshot.device] = snapshot;
}

std::vector<HealthSnapshot> TelemetryHub::snapshots() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snapshots_;
}

std::vector<Anomaly> TelemetryHub::anomalies() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return anomalies_;
}

std::map<std::uint32_t, HealthSnapshot> TelemetryHub::latest() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return previous_;
}

namespace {

void append_snapshot_json(std::ostringstream& os, const HealthSnapshot& s) {
  os << R"({"type":"snapshot","device":)" << s.device << R"(,"seq":)" << s.seq
     << R"(,"cycle":)" << s.cycle << R"(,"instructions":)" << s.instructions
     << R"(,"faults":)" << s.faults << R"(,"fault_kills":)" << s.fault_kills
     << R"(,"interrupts":)" << s.interrupts << R"(,"syscalls":)" << s.syscalls
     << R"(,"ctx_switches":)" << s.ctx_switches << R"(,"ipc_delivered":)"
     << s.ipc_delivered << R"(,"ipc_rejects":)" << s.ipc_rejects
     << R"(,"attest_total":)" << s.attest_total << R"(,"attest_verified":)"
     << s.attest_verified << R"(,"attest_failed":)" << s.attest_failed
     << R"(,"events_dropped":)" << s.events_dropped << R"(,"faults_injected":)"
     << s.faults_injected << R"(,"recoveries":)" << s.fault_recoveries
     << R"(,"watchdog_restarts":)" << s.watchdog_restarts << R"(,"spans":)"
     << s.spans_recorded << R"(,"round_p99":)" << s.attest_round_p99
     << R"(,"halted":)" << (s.halted ? 1 : 0) << "}\n";
}

void append_anomaly_json(std::ostringstream& os, const Anomaly& a) {
  os << R"({"type":"anomaly","device":)" << a.device << R"(,"rule":")"
     << json::escape(a.rule) << R"(","seq":)" << a.seq << R"(,"cycle":)" << a.cycle
     << R"(,"message":")" << json::escape(a.message) << R"(","flight":[)";
  for (std::size_t i = 0; i < a.flight.size(); ++i) {
    const Event& e = a.flight[i];
    os << (i == 0 ? "" : ",") << R"({"cycle":)" << e.cycle << R"(,"kind":")"
       << kind_name(e.kind) << R"(","task":)" << e.task << R"(,"a":)" << e.a
       << R"(,"b":)" << e.b << "}";
  }
  os << "]}\n";
}

}  // namespace

std::string TelemetryHub::to_jsonl() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [is_anomaly, index] : order_) {
    if (is_anomaly) {
      append_anomaly_json(os, anomalies_[index]);
    } else {
      append_snapshot_json(os, snapshots_[index]);
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// JSONL parsing (tytan-top, tests)
// ---------------------------------------------------------------------------

Result<TelemetryLog> parse_telemetry_jsonl(std::string_view text) {
  TelemetryLog log;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const std::string type = json::find_str(line, "type");
    if (type == "snapshot") {
      HealthSnapshot s;
      s.device = static_cast<std::uint32_t>(json::find_u64(line, "device"));
      s.seq = json::find_u64(line, "seq");
      s.cycle = json::find_u64(line, "cycle");
      s.instructions = json::find_u64(line, "instructions");
      s.faults = json::find_u64(line, "faults");
      s.fault_kills = json::find_u64(line, "fault_kills");
      s.interrupts = json::find_u64(line, "interrupts");
      s.syscalls = json::find_u64(line, "syscalls");
      s.ctx_switches = json::find_u64(line, "ctx_switches");
      s.ipc_delivered = json::find_u64(line, "ipc_delivered");
      s.ipc_rejects = json::find_u64(line, "ipc_rejects");
      s.attest_total = json::find_u64(line, "attest_total");
      s.attest_verified = json::find_u64(line, "attest_verified");
      s.attest_failed = json::find_u64(line, "attest_failed");
      s.events_dropped = json::find_u64(line, "events_dropped");
      s.faults_injected = json::find_u64(line, "faults_injected");
      s.fault_recoveries = json::find_u64(line, "recoveries");
      s.watchdog_restarts = json::find_u64(line, "watchdog_restarts");
      s.spans_recorded = json::find_u64(line, "spans");
      s.attest_round_p99 = json::find_u64(line, "round_p99");
      s.halted = json::find_u64(line, "halted") != 0;
      log.snapshots.push_back(s);
    } else if (type == "anomaly") {
      TelemetryLog::ParsedAnomaly a;
      a.device = static_cast<std::uint32_t>(json::find_u64(line, "device"));
      a.rule = json::find_str(line, "rule");
      a.seq = json::find_u64(line, "seq");
      a.cycle = json::find_u64(line, "cycle");
      a.message = json::find_str(line, "message");
      // Count flight entries by their per-event "kind" keys.
      const std::size_t flight_pos = line.find("\"flight\":[");
      if (flight_pos != std::string::npos) {
        std::string_view rest = std::string_view(line).substr(flight_pos);
        std::size_t at = 0;
        while ((at = rest.find("\"kind\":", at)) != std::string_view::npos) {
          ++a.flight_count;
          at += 7;
        }
      }
      log.anomalies.push_back(a);
    } else {
      return make_error(Err::kCorrupt, "telemetry line has no recognized type: " + line);
    }
  }
  return log;
}

}  // namespace tytan::obs
