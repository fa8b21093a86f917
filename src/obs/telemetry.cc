#include "obs/telemetry.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace tytan::obs {

void TelemetryHub::record_round(
    const std::vector<HealthSnapshot>& round,
    const std::function<const EventBus*(std::size_t)>& bus_of) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t fault_delta = 0;
  for (const HealthSnapshot& snapshot : round) {
    const auto it = previous_.find(snapshot.device);
    fault_delta += snapshot.faults - (it != previous_.end() ? it->second.faults : 0);
  }
  const double mean_fault_delta =
      round.empty() ? 0.0
                    : static_cast<double>(fault_delta) / static_cast<double>(round.size());
  for (std::size_t i = 0; i < round.size(); ++i) {
    record_locked(round[i], round.size(), mean_fault_delta, bus_of ? bus_of(i) : nullptr);
  }
}

void TelemetryHub::record_locked(const HealthSnapshot& cur, std::size_t round_devices,
                                 double mean_fault_delta, const EventBus* bus) {
  const auto it = previous_.find(cur.device);
  const HealthSnapshot* prev = it != previous_.end() ? &it->second : nullptr;
  const HealthSnapshot before = prev != nullptr ? *prev : HealthSnapshot{};
  log_.order.emplace_back(false, log_.snapshots.size());
  log_.snapshots.push_back(cur);

  auto trip = [&](std::string rule, std::string message) {
    Anomaly anomaly;
    anomaly.device = cur.device;
    anomaly.rule = std::move(rule);
    anomaly.seq = cur.seq;
    anomaly.cycle = cur.cycle;
    anomaly.message = std::move(message);
    if (bus != nullptr) {
      std::vector<Event> events = bus->snapshot();
      const std::size_t keep = std::min(kFlightEvents, events.size());
      anomaly.flight.assign(events.end() - static_cast<std::ptrdiff_t>(keep), events.end());
    }
    log_.order.emplace_back(true, log_.anomalies.size());
    log_.anomalies.push_back(std::move(anomaly));
  };

  if (cur.attest_failed > before.attest_failed) {
    std::ostringstream os;
    os << (cur.attest_failed - before.attest_failed) << " attestation failure(s), "
       << cur.attest_failed << " total";
    trip("attestation-failure", os.str());
  }

  const std::uint64_t faults = cur.faults - before.faults;
  if (faults >= kFaultSpikeMin) {
    // Fleet-wide behavior is not anomalous — but compare against what the
    // *other* devices averaged this round, not a mean this device is part
    // of: one bad device must not be able to hide inside a baseline it
    // dominates.  A device alone in its round has no peers: it compares
    // against 0.
    double peers = 0.0;
    if (round_devices > 1) {
      const double total = mean_fault_delta * static_cast<double>(round_devices);
      peers = std::max(0.0, (total - static_cast<double>(faults)) /
                                static_cast<double>(round_devices - 1));
    }
    if (static_cast<double>(faults) > kFaultSpikeFactor * peers) {
      std::ostringstream os;
      os << faults << " fault(s) this round vs peer mean " << peers;
      trip("fault-spike", os.str());
    }
  }

  Stall& stall = stalls_[cur.device];
  if (prev == nullptr || cur.cycle > prev->cycle) {
    stall = {};
  } else if (++stall.snapshots >= kStallSnapshots && !stall.fired) {
    stall.fired = true;
    std::ostringstream os;
    os << "no cycle progress for " << stall.snapshots << " consecutive snapshots"
       << (cur.halted ? " (machine halted)" : "");
    trip("stalled-device", os.str());
  }

  const std::uint64_t dropped = cur.events_dropped - before.events_dropped;
  if (dropped >= kEventDropMin) {
    std::ostringstream os;
    os << dropped << " event(s) evicted from the trace ring this round, "
       << cur.events_dropped << " total";
    trip("event-drop", os.str());
  }

  previous_[cur.device] = cur;
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
