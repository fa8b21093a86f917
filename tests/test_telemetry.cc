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

// ----------------------------------------------------------------- the rules

TEST(AnomalyRules, AttestationFailureTripsOnDelta) {
  AttestationFailureRule rule;
  HealthSnapshot a = snap(1, 1, 1000);
  EXPECT_FALSE(rule.check(a, nullptr, {}).has_value());
  a.attest_failed = 1;
  // First snapshot with a failure trips even without a predecessor.
  EXPECT_TRUE(rule.check(a, nullptr, {}).has_value());
  HealthSnapshot b = snap(1, 2, 2000);
  b.attest_failed = 1;
  // No new failures since prev => quiet.
  EXPECT_FALSE(rule.check(b, &a, {}).has_value());
  b.attest_failed = 2;
  EXPECT_TRUE(rule.check(b, &a, {}).has_value());
}

TEST(AnomalyRules, FaultSpikeComparesAgainstPeerBaseline) {
  FaultSpikeRule rule(/*min_delta=*/1, /*factor=*/4.0);
  FleetBaseline baseline;
  baseline.devices = 8;
  baseline.mean_fault_delta = 0.5;
  HealthSnapshot a = snap(2, 1, 1000);
  a.faults = 10;
  // First snapshot: faults since boot, against near-quiet peers — trips.
  EXPECT_TRUE(rule.check(a, nullptr, baseline).has_value());
  HealthSnapshot b = snap(2, 2, 2000);
  b.faults = 11;  // delta 1, peer mean (4-1)/7 — within 4x
  EXPECT_FALSE(rule.check(b, &a, baseline).has_value());
  b.faults = 14;  // delta 4 while the peers were quiet
  EXPECT_TRUE(rule.check(b, &a, baseline).has_value());
  // A fleet-wide fault wave is not a per-device anomaly: with every device
  // averaging 4 faults this round, peer mean stays 4 and delta 4 <= 16.
  baseline.mean_fault_delta = 4.0;
  EXPECT_FALSE(rule.check(b, &a, baseline).has_value());
}

TEST(AnomalyRules, StalledDeviceLatchesOnceAndRearms) {
  StalledDeviceRule rule(/*snapshots=*/2);
  HealthSnapshot prev = snap(3, 1, 5000);
  HealthSnapshot cur = snap(3, 2, 5000);  // no progress #1
  EXPECT_FALSE(rule.check(cur, &prev, {}).has_value());
  HealthSnapshot cur2 = snap(3, 3, 5000);  // no progress #2 => fire
  EXPECT_TRUE(rule.check(cur2, &cur, {}).has_value());
  HealthSnapshot cur3 = snap(3, 4, 5000);  // still stalled — latched, quiet
  EXPECT_FALSE(rule.check(cur3, &cur2, {}).has_value());
  HealthSnapshot moved = snap(3, 5, 6000);  // progress re-arms the watchdog
  EXPECT_FALSE(rule.check(moved, &cur3, {}).has_value());
  HealthSnapshot stall1 = snap(3, 6, 6000);
  HealthSnapshot stall2 = snap(3, 7, 6000);
  EXPECT_FALSE(rule.check(stall1, &moved, {}).has_value());
  EXPECT_TRUE(rule.check(stall2, &stall1, {}).has_value());
}

TEST(AnomalyRules, EventDropThreshold) {
  EventDropRule rule(/*min_delta=*/2);
  HealthSnapshot a = snap(4, 1, 1000);
  a.events_dropped = 1;
  EXPECT_FALSE(rule.check(a, nullptr, {}).has_value());  // delta 1 < 2
  HealthSnapshot b = snap(4, 2, 2000);
  b.events_dropped = 3;
  EXPECT_TRUE(rule.check(b, &a, {}).has_value());  // delta 2
}

// ------------------------------------------------------------- TelemetryHub

TEST(TelemetryHub, RecordsHistoryAndLatest) {
  TelemetryHub hub;
  hub.record(snap(1, 1, 1000), nullptr);
  hub.record(snap(2, 1, 1100), nullptr);
  hub.record(snap(1, 2, 2000), nullptr);
  EXPECT_EQ(hub.snapshots().size(), 3u);
  const auto latest = hub.latest();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest.at(1).cycle, 2000u);
  EXPECT_EQ(latest.at(2).cycle, 1100u);
  EXPECT_TRUE(hub.anomalies().empty());  // no rules installed
}

TEST(TelemetryHub, FlightRecorderCapturesLastNEvents) {
  std::uint64_t clock = 0;
  EventBus bus(/*capacity=*/256);
  bus.set_clock(&clock);
  bus.enable();
  for (std::uint32_t i = 0; i < 10; ++i) {
    clock = 100 + i;
    bus.emit(EventKind::kSchedTick, /*task=*/-1, /*a=*/i);
  }

  TelemetryHub hub(/*flight_events=*/4);
  hub.add_rule(std::make_unique<AttestationFailureRule>());
  HealthSnapshot bad = snap(7, 1, 110);
  bad.attest_failed = 1;
  hub.record(bad, &bus);

  const auto anomalies = hub.anomalies();
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].device, 7u);
  EXPECT_EQ(anomalies[0].rule, "attestation-failure");
  ASSERT_EQ(anomalies[0].flight.size(), 4u);  // last 4 of the 10 emitted
  EXPECT_EQ(anomalies[0].flight.front().a, 6u);
  EXPECT_EQ(anomalies[0].flight.back().a, 9u);
  EXPECT_EQ(anomalies[0].flight.back().cycle, 109u);
}

TEST(TelemetryHub, RoundBaselineSuppressesFleetWideFaults) {
  TelemetryHub hub;
  hub.add_rule(std::make_unique<FaultSpikeRule>(1, 4.0));
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

  TelemetryHub hub(/*flight_events=*/8);
  hub.install_default_rules();
  HealthSnapshot healthy = snap(1, 1, 5000);
  healthy.syscalls = 12;
  healthy.ipc_delivered = 3;
  healthy.attest_total = 1;
  healthy.attest_verified = 1;
  hub.record(healthy, &bus);
  HealthSnapshot failing = snap(2, 1, 5100);
  failing.attest_total = 1;
  failing.attest_failed = 1;
  failing.halted = true;
  hub.record(failing, &bus);

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
