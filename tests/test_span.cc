// Attestation span layer: recorder semantics (nesting, trace propagation,
// fault annotation, dormant zero-cost), JSONL round-trip, and the fleet
// determinism contract — span files byte-identical whatever the fleet's
// worker-thread count, and simulated cycles identical with spans on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fault/fault.h"
#include "fleet/fleet.h"
#include "fleet/verifier_workload.h"
#include "obs/export.h"
#include "obs/heat.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "obs/trace_reader.h"

namespace tytan::obs {
namespace {

// ------------------------------------------------------------- the recorder

TEST(SpanRecorder, DisabledRecorderIsInert) {
  SpanRecorder rec;
  EXPECT_FALSE(rec.enabled());
  const SpanRecorder::SpanId id = rec.begin(SpanPhase::kNonceGen);
  EXPECT_EQ(id, 0u);
  rec.end(id, SpanOutcome::kOk);  // no-op on the null id
  Event fault{};
  fault.kind = EventKind::kFaultInject;
  rec.annotate(fault);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.current(), 0u);
  EXPECT_TRUE(rec.to_jsonl().empty());
}

TEST(SpanRecorder, ChildInheritsTraceAndParent) {
  std::uint64_t clock = 100;
  SpanRecorder rec;
  rec.set_clock(&clock);
  rec.enable();
  const auto root = rec.begin_trace(42, SpanPhase::kAttestRound, /*task=*/3);
  clock = 150;
  const auto child = rec.begin(SpanPhase::kNonceGen, 3);
  EXPECT_EQ(rec.current(), child);
  clock = 180;
  rec.end(child, SpanOutcome::kOk);
  EXPECT_EQ(rec.current(), root);
  clock = 200;
  rec.end(root, SpanOutcome::kOk);
  EXPECT_EQ(rec.current(), 0u);

  ASSERT_EQ(rec.size(), 2u);
  const Span& r = rec.spans()[root - 1];
  const Span& c = rec.spans()[child - 1];
  EXPECT_EQ(r.trace_id, 42u);
  EXPECT_EQ(r.parent_id, 0u);
  EXPECT_EQ(r.begin_cycle, 100u);
  EXPECT_EQ(r.end_cycle, 200u);
  EXPECT_EQ(c.trace_id, 42u);
  EXPECT_EQ(c.parent_id, root);
  EXPECT_EQ(c.begin_cycle, 150u);
  EXPECT_EQ(c.end_cycle, 180u);
  EXPECT_EQ(c.outcome, SpanOutcome::kOk);
}

TEST(SpanRecorder, BeginWithoutOpenSpanIsParentlessTraceZero) {
  SpanRecorder rec;
  rec.enable();
  const auto id = rec.begin(SpanPhase::kRtmMeasure, 2);
  rec.end(id, SpanOutcome::kOk);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.spans()[0].trace_id, 0u);
  EXPECT_EQ(rec.spans()[0].parent_id, 0u);
}

TEST(SpanRecorder, AnnotateAttachesToInnermostOpenSpan) {
  std::uint64_t clock = 10;
  SpanRecorder rec;
  rec.set_clock(&clock);
  rec.enable();
  const auto root = rec.begin_trace(7, SpanPhase::kAttestRound);
  const auto child = rec.begin(SpanPhase::kHmacCompute);
  Event inject{};
  inject.kind = EventKind::kFaultInject;
  inject.cycle = 20;  // notes carry the emitting event's own cycle stamp
  inject.a = 2;
  inject.b = 5;
  rec.annotate(inject);
  rec.end(child, SpanOutcome::kFailed);
  Event recover{};
  recover.kind = EventKind::kFaultRecover;
  rec.annotate(recover);  // child closed -> lands on the root
  rec.end(root, SpanOutcome::kRetried);

  ASSERT_EQ(rec.spans()[child - 1].notes.size(), 1u);
  const SpanNote& note = rec.spans()[child - 1].notes[0];
  EXPECT_EQ(note.kind, EventKind::kFaultInject);
  EXPECT_EQ(note.cycle, 20u);
  EXPECT_EQ(note.a, 2u);
  EXPECT_EQ(note.b, 5u);
  ASSERT_EQ(rec.spans()[root - 1].notes.size(), 1u);
  EXPECT_EQ(rec.spans()[root - 1].notes[0].kind, EventKind::kFaultRecover);
}

TEST(SpanRecorder, OnEndFiresForEveryCompletedSpan) {
  SpanRecorder rec;
  rec.enable();
  std::size_t completed = 0;
  rec.set_on_end([&](const Span& span) {
    ++completed;
    EXPECT_NE(span.outcome, SpanOutcome::kOpen);
  });
  const auto a = rec.begin(SpanPhase::kVerify);
  const auto b = rec.begin(SpanPhase::kNonceGen);
  rec.end(b, SpanOutcome::kOk);
  rec.end(a, SpanOutcome::kFailed);
  rec.end(a, SpanOutcome::kOk);  // double-end ignored
  EXPECT_EQ(completed, 2u);
}

// Every phase and outcome name reads back as itself; an unknown name is no
// record.
TEST(SpanPhases, NamesRoundTrip) {
  SpanRecorder rec;
  rec.enable();
  for (std::size_t i = 0; i < kNumSpanPhases; ++i) {
    EXPECT_FALSE(span_phase_name(static_cast<SpanPhase>(i)).empty());
    rec.end(rec.begin(static_cast<SpanPhase>(i)), static_cast<SpanOutcome>(i % kNumSpanOutcomes));
  }
  std::string jsonl = rec.to_jsonl();
  auto spans = parse_spans_jsonl(jsonl);
  ASSERT_TRUE(spans.is_ok()) << spans.status().to_string();
  ASSERT_EQ(spans->size(), kNumSpanPhases);
  for (std::size_t i = 0; i < kNumSpanPhases; ++i) {
    EXPECT_EQ((*spans)[i].phase, static_cast<SpanPhase>(i));
    EXPECT_EQ((*spans)[i].outcome, static_cast<SpanOutcome>(i % kNumSpanOutcomes));
  }
  const std::string verify = R"("phase":"verify")";
  jsonl.replace(jsonl.find(verify), verify.size(), R"("phase":"no-such-phase")");
  EXPECT_EQ(parse_spans_jsonl(jsonl).status().code(), Err::kCorrupt);
}

// ---------------------------------------------------------- JSONL round-trip

TEST(SpanJsonl, RoundTripsThroughParser) {
  std::uint64_t clock = 1000;
  SpanRecorder rec;
  rec.set_clock(&clock);
  rec.set_device(9);
  rec.enable();
  const auto root = rec.begin_trace(0x900001, SpanPhase::kAttestRound, 4);
  const auto child = rec.begin(SpanPhase::kHmacCompute, 4);
  Event inject{};
  inject.kind = EventKind::kFaultInject;
  inject.a = 2;
  rec.annotate(inject);
  clock = 1500;
  rec.end(child, SpanOutcome::kOk);
  rec.end(root, SpanOutcome::kOk);

  const std::string jsonl = rec.to_jsonl();
  auto spans = parse_spans_jsonl(jsonl);
  ASSERT_TRUE(spans.is_ok()) << spans.status().to_string();
  ASSERT_EQ(spans->size(), 2u);
  const Span& r = (*spans)[0];
  EXPECT_EQ(r.device, 9u);
  EXPECT_EQ(r.trace_id, 0x900001u);
  EXPECT_EQ(r.span_id, root);
  EXPECT_EQ(r.parent_id, 0u);
  EXPECT_EQ(r.phase, SpanPhase::kAttestRound);
  EXPECT_EQ(r.task, 4);
  EXPECT_EQ(r.begin_cycle, 1000u);
  EXPECT_EQ(r.end_cycle, 1500u);
  EXPECT_EQ(r.cycles(), 500u);
  EXPECT_EQ(r.outcome, SpanOutcome::kOk);
  const Span& c = (*spans)[1];
  EXPECT_EQ(c.parent_id, root);
  EXPECT_EQ(c.phase, SpanPhase::kHmacCompute);
  ASSERT_EQ(c.notes.size(), 1u);
  EXPECT_EQ(c.notes[0].kind, EventKind::kFaultInject);
  EXPECT_EQ(c.notes[0].a, 2u);
}

TEST(SpanJsonl, EmptyInputParsesToEmptyLog) {
  auto spans = parse_spans_jsonl("");
  ASSERT_TRUE(spans.is_ok());
  EXPECT_TRUE(spans->empty());
}

TEST(SpanJsonl, TruncatedLineIsCorrupt) {
  EXPECT_FALSE(parse_spans_jsonl(R"({"type":"span","device":1)").is_ok());
  EXPECT_FALSE(parse_spans_jsonl("not json at all\n").is_ok());
  EXPECT_FALSE(parse_spans_jsonl(R"({"type":"snapshot","device":1})").is_ok());
}

// -------------------------------------------------------- fleet integration

fleet::WorkloadConfig span_workload(std::size_t devices, std::size_t threads) {
  fleet::WorkloadConfig config;
  config.fleet.device_count = devices;
  config.fleet.threads = threads;
  config.fleet.spans = true;
  config.cycles = 400'000;
  config.attest_sweeps = 2;
  return config;
}

TEST(FleetSpans, EveryRoundDecomposesIntoTypedPhases) {
  fleet::Fleet fleet(span_workload(4, 2).fleet);
  const auto result = fleet::run_verifier_workload(fleet, span_workload(4, 2));
  ASSERT_TRUE(result.all_verified()) << result.status.to_string();

  auto spans = parse_spans_jsonl(fleet.spans_jsonl());
  ASSERT_TRUE(spans.is_ok()) << spans.status().to_string();
  ASSERT_FALSE(spans->empty());
  // Each device attests twice -> two attest-round traces per device, each
  // containing the full challenger<->prover phase chain.
  std::size_t rounds = 0;
  for (const Span& span : *spans) {
    if (span.phase != SpanPhase::kAttestRound) {
      continue;
    }
    ++rounds;
    EXPECT_EQ(span.outcome, SpanOutcome::kOk);
    bool saw[kNumSpanPhases] = {};
    for (const Span& child : *spans) {
      if (child.trace_id == span.trace_id && child.parent_id == span.span_id) {
        saw[static_cast<std::size_t>(child.phase)] = true;
      }
    }
    EXPECT_TRUE(saw[static_cast<std::size_t>(SpanPhase::kNonceGen)]);
    EXPECT_TRUE(saw[static_cast<std::size_t>(SpanPhase::kChallengeDeliver)]);
    EXPECT_TRUE(saw[static_cast<std::size_t>(SpanPhase::kHmacCompute)]);
    EXPECT_TRUE(saw[static_cast<std::size_t>(SpanPhase::kReportReturn)]);
    EXPECT_TRUE(saw[static_cast<std::size_t>(SpanPhase::kVerify)]);
  }
  EXPECT_EQ(rounds, 4u * 2u);
}

TEST(FleetSpans, TraceIdEncodesDeviceAndRound) {
  EXPECT_EQ(fleet::Fleet::trace_id(1, 1), (1ull << 20) | 1);
  EXPECT_EQ(fleet::Fleet::trace_id(16, 2), (16ull << 20) | 2);
}

// The tentpole determinism contract: span JSONL is byte-identical for
// --threads=1 vs --threads=8 (host wall-time never serializes).
TEST(FleetSpans, JsonlByteIdenticalAcrossThreadCounts) {
  fleet::Fleet serial(span_workload(6, 1).fleet);
  fleet::Fleet threaded(span_workload(6, 8).fleet);
  ASSERT_TRUE(
      fleet::run_verifier_workload(serial, span_workload(6, 1)).all_verified());
  ASSERT_TRUE(
      fleet::run_verifier_workload(threaded, span_workload(6, 8)).all_verified());
  const std::string a = serial.spans_jsonl();
  const std::string b = threaded.spans_jsonl();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// The zero-simulated-cost contract: enabling spans never changes a cycle.
TEST(FleetSpans, SimulatedCyclesIdenticalWithSpansOnOrOff) {
  fleet::WorkloadConfig off = span_workload(4, 2);
  off.fleet.spans = false;
  fleet::Fleet fleet_off(off.fleet);
  fleet::Fleet fleet_on(span_workload(4, 2).fleet);
  const auto r_off = fleet::run_verifier_workload(fleet_off, off);
  const auto r_on = fleet::run_verifier_workload(fleet_on, span_workload(4, 2));
  ASSERT_TRUE(r_off.all_verified());
  ASSERT_TRUE(r_on.all_verified());
  EXPECT_EQ(r_off.totals.cycles, r_on.totals.cycles);
  EXPECT_EQ(r_off.totals.instructions, r_on.totals.instructions);
  EXPECT_TRUE(fleet_off.spans_jsonl().empty());
  EXPECT_FALSE(fleet_on.spans_jsonl().empty());
}

TEST(FleetSpans, FaultedRoundIsAnnotatedAndRetried) {
  fleet::WorkloadConfig config = span_workload(4, 2);
  auto plan = fault::FaultPlan::parse("nonce-replay@attest#2");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  config.fleet.base.fault_plan = plan.take();
  config.fleet.fault_plan_device = 1;
  config.fleet.attest_retries = 2;
  fleet::Fleet fleet(config.fleet);
  const auto result = fleet::run_verifier_workload(fleet, config);
  ASSERT_TRUE(result.all_verified()) << result.status.to_string();

  auto spans = parse_spans_jsonl(fleet.spans_jsonl());
  ASSERT_TRUE(spans.is_ok());
  // The faulted device's second round: replayed nonce -> verify fails ->
  // backoff -> retry verifies.  The round span carries the whole story.
  bool saw_retried = false;
  bool saw_backoff = false;
  for (const Span& span : *spans) {
    if (span.phase == SpanPhase::kAttestRound && span.outcome == SpanOutcome::kRetried) {
      saw_retried = true;
      EXPECT_EQ(span.device, 2u);  // fleet device ids are 1-based
      bool inject = false;
      bool recover = false;
      for (const SpanNote& note : span.notes) {
        inject |= note.kind == EventKind::kFaultInject;
        recover |= note.kind == EventKind::kFaultRecover;
      }
      EXPECT_TRUE(inject);
      EXPECT_TRUE(recover);
    }
    if (span.phase == SpanPhase::kRetryBackoff) {
      saw_backoff = true;
      EXPECT_GT(span.cycles(), 0u);
    }
  }
  EXPECT_TRUE(saw_retried);
  EXPECT_TRUE(saw_backoff);
}

TEST(FleetSpans, SnapshotCarriesSpanCountAndRoundP99) {
  fleet::WorkloadConfig config = span_workload(4, 2);
  config.fleet.telemetry.enabled = true;
  fleet::Fleet fleet(config.fleet);
  ASSERT_TRUE(fleet::run_verifier_workload(fleet, config).all_verified());
  const auto latest = fleet.telemetry().latest();
  ASSERT_EQ(latest.size(), 4u);
  for (const auto& [device, s] : latest) {
    EXPECT_GT(s.spans_recorded, 0u);
    EXPECT_GT(s.attest_round_p99, 0u);
  }
}

// ------------------------------------------- every artifact, both directions

/// The span as a file carries it: host wall-time is never serialized.
Span as_serialized(Span span) {
  span.begin_host_ns = 0;
  span.end_host_ns = 0;
  return span;
}

// A faulted fleet with heat, spans and telemetry on: a replayed nonce gives
// a retried round with fault notes, a rogue device an anomaly with a flight
// dump.  Each of the four artifacts parses back to the recorder's own
// records and re-serializes to the bytes it was read from.
TEST(Artifacts, FaultedFleetArtifactsRoundTripThroughTheReaders) {
  fleet::WorkloadConfig config = span_workload(4, 2);
  config.fleet.heat = true;
  config.fleet.telemetry.enabled = true;
  auto plan = fault::FaultPlan::parse("nonce-replay@attest#2");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  config.fleet.base.fault_plan = plan.take();
  config.fleet.fault_plan_device = 1;
  config.fleet.attest_retries = 2;
  config.rogue_device = 3;
  fleet::Fleet fleet(config.fleet);
  ASSERT_TRUE(fleet::run_verifier_workload(fleet, config).status.is_ok());
  core::Platform& faulted = fleet.device(1).platform();

  // Spans: every device's recorder, concatenated in device order.
  const std::string spans_text = fleet.spans_jsonl();
  auto spans = parse_spans_jsonl(spans_text);
  ASSERT_TRUE(spans.is_ok()) << spans.status().to_string();
  std::vector<Span> recorded;
  for (std::size_t i = 0; i < 4; ++i) {
    for (const Span& span : fleet.device(i).platform().machine().obs().spans().spans()) {
      recorded.push_back(as_serialized(span));
    }
  }
  EXPECT_EQ(*spans, recorded);
  EXPECT_TRUE(std::any_of(spans->begin(), spans->end(),
                          [](const Span& span) { return !span.notes.empty(); }));
  std::string rewritten;
  for (const Span& span : *spans) {
    append_span_json(rewritten, span);
  }
  EXPECT_EQ(rewritten, spans_text);

  // Telemetry: snapshots and anomalies, flight dumps included.
  const std::string telemetry_text = fleet.telemetry().to_jsonl();
  auto telemetry = parse_telemetry_jsonl(telemetry_text);
  ASSERT_TRUE(telemetry.is_ok()) << telemetry.status().to_string();
  EXPECT_EQ(telemetry->snapshots, fleet.telemetry().snapshots());
  EXPECT_EQ(telemetry->anomalies, fleet.telemetry().anomalies());
  ASSERT_FALSE(telemetry->anomalies.empty());
  EXPECT_FALSE(telemetry->anomalies.front().flight.empty());
  EXPECT_EQ(telemetry->to_jsonl(), telemetry_text);

  // Heat: the faulted device's profile, with the producer's mnemonics.
  ASSERT_NE(faulted.machine().heat(), nullptr);
  faulted.machine().heat()->flush();
  const HeatProfile& profile = faulted.machine().heat()->profile();
  const std::string heat_text = profile.to_jsonl(/*include_host_ns=*/false);
  auto heat = parse_heat_jsonl(heat_text);
  ASSERT_TRUE(heat.is_ok()) << heat.status().to_string();
  EXPECT_EQ(heat->profile, profile);
  EXPECT_FALSE(heat->profile.blocks.empty());
  EXPECT_EQ(heat->profile.to_jsonl(false, [&](std::uint8_t op) { return heat->opcode_name(op); }),
            heat_text);

  // Chrome trace: the faulted device's bus with its spans as async pairs.
  const Hub& hub = faulted.machine().obs();
  const std::string trace_text = export_chrome_trace(hub.bus(), &hub.spans());
  auto trace = parse_chrome_trace(trace_text);
  ASSERT_TRUE(trace.is_ok()) << trace.status().to_string();
  EXPECT_EQ(trace->events, hub.bus().snapshot());
  ASSERT_EQ(trace->spans.size(), hub.spans().size());
  for (std::size_t i = 0; i < trace->spans.size(); ++i) {
    Span expected = as_serialized(hub.spans().spans()[i]);
    expected.device = 0;  // the trace keys spans by task track, not device
    expected.notes.clear();
    EXPECT_EQ(trace->spans[i], expected) << "span " << i;
  }
  EXPECT_EQ(chrome_trace_json(*trace), trace_text);
}

}  // namespace
}  // namespace tytan::obs
