// Fleet telemetry pipeline: health snapshots, anomaly rules, flight-recorder
// dumps, JSONL round-trip — and the determinism contract: telemetry output is
// byte-identical whatever the fleet's worker-thread count.
#include <gtest/gtest.h>

#include "fleet/verifier_workload.h"
#include "obs/telemetry.h"

namespace tytan::obs {
namespace {

HealthSnapshot snap(std::uint32_t device, std::uint64_t seq, std::uint64_t cycle) {
  HealthSnapshot s;
  s.device = device;
  s.seq = seq;
  s.cycle = cycle;
  s.instructions = cycle / 4;
  return s;
}

// One device's snapshot through the hub, as a one-device round.
void record(TelemetryHub& hub, const HealthSnapshot& snapshot,
            const EventBus* bus = nullptr) {
  hub.record_round({snapshot}, [bus](std::size_t) { return bus; });
}

std::vector<std::string> rules_of(const TelemetryHub& hub) {
  std::vector<std::string> rules;
  for (const Anomaly& anomaly : hub.anomalies()) {
    rules.push_back(anomaly.rule);
  }
  return rules;
}

// ----------------------------------------------------------------- the rules

TEST(TelemetryRules, AttestationFailureTripsOnDelta) {
  TelemetryHub hub;
  record(hub, snap(1, 1, 1000));
  EXPECT_TRUE(hub.anomalies().empty());
  HealthSnapshot b = snap(1, 2, 2000);
  b.attest_failed = 1;
  record(hub, b);
  HealthSnapshot c = snap(1, 3, 3000);
  c.attest_failed = 1;  // no new failures since the previous snapshot
  record(hub, c);
  c = snap(1, 4, 4000);
  c.attest_failed = 3;
  record(hub, c);
  // A device's first snapshot counts failures since boot.
  HealthSnapshot first = snap(2, 1, 1000);
  first.attest_failed = 1;
  record(hub, first);

  const auto anomalies = hub.anomalies();
  ASSERT_EQ(anomalies.size(), 3u);
  EXPECT_EQ(anomalies[0].rule, "attestation-failure");
  EXPECT_EQ(anomalies[0].device, 1u);
  EXPECT_EQ(anomalies[0].seq, 2u);
  EXPECT_EQ(anomalies[0].cycle, 2000u);
  EXPECT_EQ(anomalies[0].message, "1 attestation failure(s), 1 total");
  EXPECT_EQ(anomalies[1].seq, 4u);
  EXPECT_EQ(anomalies[1].message, "2 attestation failure(s), 3 total");
  EXPECT_EQ(anomalies[2].device, 2u);
  EXPECT_TRUE(anomalies[0].flight.empty());  // no bus, no flight dump
}

TEST(TelemetryRules, FaultSpikeComparesAgainstPeerBaseline) {
  TelemetryHub hub;
  std::vector<HealthSnapshot> round;
  for (std::uint32_t d = 0; d < 8; ++d) {
    round.push_back(snap(d, 0, 0));
  }
  // Each round: device 2 adds `spike` faults, every other device `peer`.
  auto advance = [&](std::uint64_t spike, std::uint64_t peer) {
    for (HealthSnapshot& s : round) {
      s.seq += 1;
      s.cycle += 1000;
      s.faults += s.device == 2 ? spike : peer;
    }
    const std::size_t before = hub.anomalies().size();
    hub.record_round(round, nullptr);
    return hub.anomalies().size() - before;
  };
  EXPECT_EQ(advance(0, 0), 0u);  // below kFaultSpikeMin
  EXPECT_EQ(advance(1, 0), 1u);  // one fault while the peers were quiet
  EXPECT_EQ(hub.anomalies().back().message, "1 fault(s) this round vs peer mean 0");
  EXPECT_EQ(advance(4, 1), 0u);  // exactly kFaultSpikeFactor x the peer mean
  EXPECT_EQ(advance(5, 1), 1u);  // just above it
  const Anomaly spike = hub.anomalies().back();
  EXPECT_EQ(spike.rule, "fault-spike");
  EXPECT_EQ(spike.device, 2u);
  EXPECT_EQ(spike.seq, 4u);
  EXPECT_EQ(spike.message, "5 fault(s) this round vs peer mean 1");
}

TEST(TelemetryRules, FaultSpikeTripsOnALoneDevice) {
  // A device alone in its round has no peers to hide behind: its baseline
  // is 0, not its own fault delta.
  TelemetryHub hub;
  HealthSnapshot s = snap(9, 1, 1000);
  s.faults = 50;
  record(hub, s);
  ASSERT_EQ(rules_of(hub), std::vector<std::string>{"fault-spike"});
  EXPECT_EQ(hub.anomalies().back().message, "50 fault(s) this round vs peer mean 0");
}

TEST(TelemetryRules, StalledDeviceLatchesOnceAndRearms) {
  TelemetryHub hub;
  record(hub, snap(3, 1, 5000));  // a first snapshot never counts as a stall
  record(hub, snap(3, 2, 5000));  // no progress #1
  record(hub, snap(3, 3, 5000));  // no progress #2 — one short of the threshold
  EXPECT_TRUE(hub.anomalies().empty());
  record(hub, snap(3, 4, 5000));  // no progress #3 => fire
  ASSERT_EQ(hub.anomalies().size(), 1u);
  EXPECT_EQ(hub.anomalies()[0].rule, "stalled-device");
  EXPECT_EQ(hub.anomalies()[0].seq, 4u);
  EXPECT_EQ(hub.anomalies()[0].message, "no cycle progress for 3 consecutive snapshots");
  record(hub, snap(3, 5, 5000));  // still stalled — latched, quiet
  record(hub, snap(3, 6, 6000));  // progress re-arms the watchdog
  record(hub, snap(3, 7, 6000));
  record(hub, snap(3, 8, 6000));
  EXPECT_EQ(hub.anomalies().size(), 1u);
  HealthSnapshot halted = snap(3, 9, 6000);
  halted.halted = true;
  record(hub, halted);
  ASSERT_EQ(hub.anomalies().size(), 2u);
  EXPECT_EQ(hub.anomalies()[1].seq, 9u);
  EXPECT_EQ(hub.anomalies()[1].message,
            "no cycle progress for 3 consecutive snapshots (machine halted)");
}

TEST(TelemetryRules, EventDropThreshold) {
  TelemetryHub hub;
  record(hub, snap(4, 1, 1000));
  record(hub, snap(4, 2, 2000));  // delta 0 < kEventDropMin
  EXPECT_TRUE(hub.anomalies().empty());
  HealthSnapshot c = snap(4, 3, 3000);
  c.events_dropped = 1;  // delta 1 == kEventDropMin
  record(hub, c);
  HealthSnapshot d = snap(4, 4, 4000);
  d.events_dropped = 1;
  record(hub, d);
  ASSERT_EQ(hub.anomalies().size(), 1u);
  EXPECT_EQ(hub.anomalies()[0].rule, "event-drop");
  EXPECT_EQ(hub.anomalies()[0].message,
            "1 event(s) evicted from the trace ring this round, 1 total");
}

TEST(TelemetryRules, RulesTripInFixedOrder) {
  TelemetryHub hub;
  // Device 0 stalls while device 1 runs; on the third stalled round device 0
  // also fails attestation, faults and drops an event.
  std::vector<HealthSnapshot> round{snap(0, 1, 1000), snap(1, 1, 1000)};
  hub.record_round(round, nullptr);
  for (std::uint64_t seq = 2; seq <= 4; ++seq) {
    round[0].seq = round[1].seq = seq;
    round[1].cycle += 1000;
    if (seq == 4) {
      round[0].attest_failed = 1;
      round[0].faults = 2;
      round[0].events_dropped = 5;
    }
    hub.record_round(round, nullptr);
  }
  EXPECT_EQ(rules_of(hub), (std::vector<std::string>{"attestation-failure", "fault-spike",
                                                     "stalled-device", "event-drop"}));
  for (const Anomaly& anomaly : hub.anomalies()) {
    EXPECT_EQ(anomaly.device, 0u);
    EXPECT_EQ(anomaly.seq, 4u);
  }
  // Record order: the snapshot, then its anomalies, then the next device.
  const std::string jsonl = hub.to_jsonl();
  const auto d0 = jsonl.rfind(R"({"type":"snapshot","device":0,"seq":4)");
  const auto d1 = jsonl.rfind(R"({"type":"snapshot","device":1,"seq":4)");
  const auto first = jsonl.find(R"("type":"anomaly")");
  ASSERT_NE(d0, std::string::npos);
  ASSERT_NE(d1, std::string::npos);
  EXPECT_LT(d0, first);
  EXPECT_LT(first, d1);
}

// ------------------------------------------------------------- TelemetryHub

TEST(TelemetryHub, RecordsHistoryAndLatest) {
  TelemetryHub hub;
  record(hub, snap(1, 1, 1000));
  record(hub, snap(2, 1, 1100));
  record(hub, snap(1, 2, 2000));
  EXPECT_EQ(hub.snapshots().size(), 3u);
  const auto latest = hub.latest();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest.at(1).cycle, 2000u);
  EXPECT_EQ(latest.at(2).cycle, 1100u);
  EXPECT_TRUE(hub.anomalies().empty());  // healthy snapshots trip nothing
}

TEST(TelemetryHub, FlightRecorderKeepsTheLastEvents) {
  std::uint64_t clock = 0;
  EventBus bus(/*capacity=*/256);
  bus.set_clock(&clock);
  bus.enable();
  constexpr std::uint32_t kEmitted = TelemetryHub::kFlightEvents + 8;
  for (std::uint32_t i = 0; i < kEmitted; ++i) {
    clock = 100 + i;
    bus.emit(EventKind::kSchedTick, /*task=*/-1, /*a=*/i);
  }

  TelemetryHub hub;
  HealthSnapshot bad = snap(7, 1, 140);
  bad.attest_failed = 1;
  record(hub, bad, &bus);

  const auto anomalies = hub.anomalies();
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].device, 7u);
  EXPECT_EQ(anomalies[0].rule, "attestation-failure");
  ASSERT_EQ(anomalies[0].flight.size(), 32u);  // the last 32 of the 40 emitted
  EXPECT_EQ(anomalies[0].flight.front().a, 8u);
  EXPECT_EQ(anomalies[0].flight.back().a, kEmitted - 1);
  EXPECT_EQ(anomalies[0].flight.back().cycle, 100u + kEmitted - 1);
}

TEST(TelemetryHub, RoundBaselineSuppressesFleetWideFaults) {
  TelemetryHub hub;
  auto round_of = [](std::uint64_t seq, std::uint64_t faults_everywhere,
                     std::uint64_t spike_on_0) {
    std::vector<HealthSnapshot> round;
    for (std::uint32_t d = 0; d < 4; ++d) {
      HealthSnapshot s = snap(d, seq, 1000 * seq);
      s.faults = faults_everywhere * seq + (d == 0 ? spike_on_0 : 0);
      round.push_back(s);
    }
    return round;
  };
  hub.record_round(round_of(1, 2, 0), nullptr);  // uniform faults
  hub.record_round(round_of(2, 2, 0), nullptr);  // still uniform => quiet
  EXPECT_TRUE(hub.anomalies().empty());
  hub.record_round(round_of(3, 2, 50), nullptr);  // device 0 spikes
  const auto anomalies = hub.anomalies();
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].device, 0u);
  EXPECT_EQ(anomalies[0].rule, "fault-spike");
}

// ------------------------------------------------------------ JSONL contract

TEST(TelemetryJsonl, RoundTripsSnapshotsAndAnomalies) {
  std::uint64_t clock = 42;
  EventBus bus(16);
  bus.set_clock(&clock);
  bus.enable();
  bus.emit(EventKind::kFault, /*task=*/3, /*a=*/7, /*b=*/9);

  TelemetryHub hub;
  HealthSnapshot healthy = snap(1, 1, 5000);
  healthy.syscalls = 12;
  healthy.ipc_delivered = 3;
  healthy.attest_total = 1;
  healthy.attest_verified = 1;
  record(hub, healthy, &bus);
  HealthSnapshot failing = snap(2, 1, 5100);
  failing.attest_total = 1;
  failing.attest_failed = 1;
  failing.halted = true;
  record(hub, failing, &bus);

  const std::string jsonl = hub.to_jsonl();
  auto log = parse_telemetry_jsonl(jsonl);
  ASSERT_TRUE(log.is_ok()) << log.status().to_string();
  ASSERT_EQ(log->snapshots.size(), 2u);
  EXPECT_EQ(log->snapshots[0].device, 1u);
  EXPECT_EQ(log->snapshots[0].cycle, 5000u);
  EXPECT_EQ(log->snapshots[0].syscalls, 12u);
  EXPECT_EQ(log->snapshots[0].ipc_delivered, 3u);
  EXPECT_EQ(log->snapshots[0].attest_verified, 1u);
  EXPECT_FALSE(log->snapshots[0].halted);
  EXPECT_EQ(log->snapshots[1].device, 2u);
  EXPECT_EQ(log->snapshots[1].attest_failed, 1u);
  EXPECT_TRUE(log->snapshots[1].halted);
  ASSERT_EQ(log->anomalies.size(), 1u);
  EXPECT_EQ(log->anomalies[0].device, 2u);
  EXPECT_EQ(log->anomalies[0].rule, "attestation-failure");
  ASSERT_EQ(log->anomalies[0].flight.size(), 1u);
  const Event& flight = log->anomalies[0].flight[0];
  EXPECT_EQ(flight.cycle, 42u);
  EXPECT_EQ(flight.kind, EventKind::kFault);
  EXPECT_EQ(flight.task, 3);
  EXPECT_EQ(flight.a, 7u);
  EXPECT_EQ(flight.b, 9u);
  EXPECT_FALSE(log->anomalies[0].message.empty());
}

TEST(TelemetryJsonl, RejectsUnknownRecordType) {
  EXPECT_FALSE(parse_telemetry_jsonl(R"({"type":"mystery","device":1})" "\n").is_ok());
}

// ------------------------------------------------- fleet integration + rules

fleet::WorkloadConfig telemetry_workload(std::size_t devices, std::size_t threads) {
  fleet::WorkloadConfig config;
  config.fleet.device_count = devices;
  config.fleet.threads = threads;
  config.fleet.telemetry.enabled = true;
  config.cycles = 400'000;
  return config;
}

TEST(FleetTelemetry, HealthyFleetSnapshotsWithoutAnomalies) {
  fleet::Fleet fleet(telemetry_workload(4, 2).fleet);
  const auto result = fleet::run_verifier_workload(fleet, telemetry_workload(4, 2));
  ASSERT_TRUE(result.all_verified()) << result.status.to_string();
  // 4 run-rounds (quantum 100k over 400k cycles) + 1 post-attest sweep.
  EXPECT_EQ(fleet.telemetry().snapshots().size(), 4u * 5u);
  EXPECT_TRUE(fleet.telemetry().anomalies().empty());
  const auto latest = fleet.telemetry().latest();
  ASSERT_EQ(latest.size(), 4u);
  for (const auto& [device, s] : latest) {
    EXPECT_GE(s.cycle, 400'000u);
    EXPECT_EQ(s.attest_total, 1u);
    EXPECT_EQ(s.attest_verified, 1u);
    EXPECT_EQ(s.faults, 0u);
  }
}

// The tentpole determinism contract: telemetry JSONL is byte-identical for
// --threads=1 vs --threads=8.
TEST(FleetTelemetry, JsonlByteIdenticalAcrossThreadCounts) {
  fleet::Fleet serial(telemetry_workload(6, 1).fleet);
  fleet::Fleet threaded(telemetry_workload(6, 8).fleet);
  ASSERT_TRUE(
      fleet::run_verifier_workload(serial, telemetry_workload(6, 1)).all_verified());
  ASSERT_TRUE(
      fleet::run_verifier_workload(threaded, telemetry_workload(6, 8)).all_verified());
  const std::string a = serial.telemetry().to_jsonl();
  const std::string b = threaded.telemetry().to_jsonl();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FleetTelemetry, RogueDeviceTripsAttestationFailure) {
  fleet::WorkloadConfig config = telemetry_workload(4, 2);
  config.rogue_device = 2;
  fleet::Fleet fleet(config.fleet);
  const auto result = fleet::run_verifier_workload(fleet, config);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.verified, 3u);  // everyone but the rogue
  EXPECT_EQ(fleet.device(2).outcome().code,
            verifier::VerifyOutcome::Code::kUnknownRelease);
  EXPECT_EQ(fleet.device(2).attest_failed(), 1u);

  bool found = false;
  for (const Anomaly& anomaly : fleet.telemetry().anomalies()) {
    if (anomaly.rule == "attestation-failure") {
      EXPECT_EQ(anomaly.device, fleet.device(2).id());
      EXPECT_FALSE(anomaly.flight.empty());  // obs on => flight recorder filled
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FleetTelemetry, FaultingDeviceTripsFaultSpike) {
  fleet::WorkloadConfig config = telemetry_workload(6, 2);
  config.fault_device = 1;
  fleet::Fleet fleet(config.fleet);
  const auto result = fleet::run_verifier_workload(fleet, config);
  ASSERT_TRUE(result.all_verified()) << result.status.to_string();

  bool found = false;
  for (const Anomaly& anomaly : fleet.telemetry().anomalies()) {
    if (anomaly.rule == "fault-spike") {
      EXPECT_EQ(anomaly.device, fleet.device(1).id());
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GE(fleet.telemetry().latest().at(fleet.device(1).id()).fault_kills, 1u);
}

}  // namespace
}  // namespace tytan::obs
