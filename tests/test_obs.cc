// Observability layer: event bus, metrics, per-task cycle accounting,
// exporters, and the zero-overhead-when-off guarantee.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/log.h"
#include "core/platform.h"
#include "obs/event_bus.h"
#include "obs/export.h"
#include "obs/hub.h"
#include "obs/metrics.h"
#include "obs/trace_reader.h"
#include "sim/tracer.h"

using namespace tytan;

namespace {

constexpr std::string_view kSecureSpinner = R"(
    .secure
    .stack 256
    .entry main
main:
    addi r5, 1
    jmp  main
)";

constexpr std::string_view kNormalSpinner = R"(
    .stack 256
    .entry main
main:
    addi r5, 1
    jmp  main
)";

}  // namespace

// ---------------------------------------------------------------------------
// EventBus
// ---------------------------------------------------------------------------

TEST(EventBus, DisabledEmitIsANoOp) {
  obs::EventBus bus;
  bus.emit(obs::EventKind::kSchedTick);
  EXPECT_EQ(bus.size(), 0u);
}

TEST(EventBus, StampsEventsFromTheWiredClock) {
  std::uint64_t clock = 0;
  obs::EventBus bus;
  bus.set_clock(&clock);
  bus.enable();
  clock = 123;
  bus.emit(obs::EventKind::kSchedDispatch, 2, 1, 5);
  clock = 456;
  bus.emit(obs::EventKind::kIrqEnter, 2, 0x20, 0x40000);
  const auto events = bus.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].cycle, 123u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kSchedDispatch);
  EXPECT_EQ(events[0].task, 2);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 5u);
  EXPECT_EQ(events[1].cycle, 456u);
}

TEST(EventBus, RingEvictsOldestAndCountsDrops) {
  obs::EventBus bus(4);
  bus.enable();
  for (std::uint32_t i = 0; i < 10; ++i) {
    bus.emit(obs::EventKind::kSchedTick, -1, i);
  }
  EXPECT_EQ(bus.size(), 4u);
  EXPECT_EQ(bus.dropped(), 6u);
  const auto events = bus.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 6u);  // oldest surviving
  EXPECT_EQ(events.back().a, 9u);   // newest
}

TEST(EventBus, ZeroCapacityIsClampedToOne) {
  obs::EventBus bus(0);
  EXPECT_EQ(bus.capacity(), 1u);
  bus.enable();
  bus.emit(obs::EventKind::kSchedTick, -1, 1);
  bus.emit(obs::EventKind::kSchedTick, -1, 2);
  ASSERT_EQ(bus.size(), 1u);
  EXPECT_EQ(bus.snapshot().front().a, 2u);
}

TEST(EventBus, ListenerSeesEveryEventDespiteEviction) {
  obs::EventBus bus(2);
  bus.enable();
  std::size_t seen = 0;
  bus.set_listener([&](const obs::Event&) { ++seen; });
  for (int i = 0; i < 8; ++i) {
    bus.emit(obs::EventKind::kSchedTick);
  }
  EXPECT_EQ(seen, 8u);
  EXPECT_EQ(bus.size(), 2u);
}

TEST(EventKinds, NamesRoundTrip) {
  for (std::size_t i = 0; i < obs::kNumEventKinds; ++i) {
    const auto kind = static_cast<obs::EventKind>(i);
    const std::string_view name = obs::kind_name(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(obs::kind_from_name(name), kind) << name;
  }
  EXPECT_EQ(obs::kind_from_name("no-such-kind"), obs::EventKind::kNumKinds);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, HistogramBucketsAndStats) {
  obs::Histogram h;
  h.observe(1);    // < 2^1 -> bucket 1
  h.observe(95);   // < 2^7 -> bucket 7
  h.observe(95);
  h.observe(1'000'000'000);  // beyond 2^23 -> overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1'000'000'000u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(7), 2u);
  EXPECT_EQ(h.bucket(obs::Histogram::kNumBuckets), 1u);
}

TEST(Metrics, PercentilesExactWhileDistinctValuesFit) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    h.observe(v);
  }
  EXPECT_TRUE(h.exact_percentiles());
  // Nearest-rank over 1..100: pXX is exactly XX.
  EXPECT_EQ(h.p50(), 50u);
  EXPECT_EQ(h.p95(), 95u);
  EXPECT_EQ(h.p99(), 99u);
  EXPECT_EQ(h.percentile(0.0), 1u);    // rank clamps to the first sample
  EXPECT_EQ(h.percentile(100.0), 100u);
}

TEST(Metrics, PercentilesFallBackToBucketsPastTheCap) {
  obs::Histogram h;
  // Exceed kMaxExactValues distinct values to force the approximate regime.
  for (std::uint64_t v = 0; v < obs::Histogram::kMaxExactValues + 10; ++v) {
    h.observe(v * 2 + 1);
  }
  EXPECT_FALSE(h.exact_percentiles());
  // Approximate percentiles are pow2 bucket upper bounds, clamped to max.
  EXPECT_GE(h.p50(), h.min());
  EXPECT_LE(h.p99(), h.max());
  EXPECT_LE(h.p50(), h.p99());
}

TEST(Metrics, MergeEmptyIntoNonEmptyIsIdentity) {
  obs::Histogram a;
  a.observe(10);
  a.observe(20);
  obs::Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.sum(), 30u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
  EXPECT_TRUE(a.exact_percentiles());
  // And the other direction: empty absorbs a's samples wholesale.
  obs::Histogram b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.sum(), 30u);
  EXPECT_EQ(b.p50(), 10u);
}

TEST(Metrics, MergePreservesOverflowBucketAndMax) {
  obs::Histogram a;
  a.observe(1'000'000'000);  // overflow bucket
  obs::Histogram b;
  b.observe(5);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.bucket(obs::Histogram::kNumBuckets), 1u);
  EXPECT_EQ(b.max(), 1'000'000'000u);
  EXPECT_EQ(b.p99(), 1'000'000'000u);  // exact map still holds both values
}

TEST(Metrics, MergeThenPercentileAgreesWithDirectObservation) {
  obs::Histogram split_a;
  obs::Histogram split_b;
  obs::Histogram whole;
  for (std::uint64_t v = 1; v <= 200; ++v) {
    (v % 2 == 0 ? split_a : split_b).observe(v * 3);
    whole.observe(v * 3);
  }
  split_a.merge(split_b);
  EXPECT_EQ(split_a.count(), whole.count());
  EXPECT_EQ(split_a.sum(), whole.sum());
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(split_a.percentile(p), whole.percentile(p)) << "p" << p;
  }
}

TEST(Metrics, MergeExactnessIsStickyDown) {
  obs::Histogram approx;
  for (std::uint64_t v = 0; v < obs::Histogram::kMaxExactValues + 10; ++v) {
    approx.observe(v);
  }
  ASSERT_FALSE(approx.exact_percentiles());
  obs::Histogram exact;
  exact.observe(7);
  exact.merge(approx);
  EXPECT_FALSE(exact.exact_percentiles());
  EXPECT_EQ(exact.count(), obs::Histogram::kMaxExactValues + 11);
}

TEST(Metrics, MergeDisjointBucketRanges) {
  // All of `low` lands below bucket 4, all of `high` in bucket 17 — the
  // merged histogram must keep both populations apart bucket-wise and span
  // the full min..max range.
  obs::Histogram low;
  for (std::uint64_t v = 1; v <= 8; ++v) {
    low.observe(v);
  }
  obs::Histogram high;
  for (std::uint64_t v = 0; v < 8; ++v) {
    high.observe(100'000 + v);  // < 2^17
  }
  low.merge(high);
  EXPECT_EQ(low.count(), 16u);
  EXPECT_EQ(low.min(), 1u);
  EXPECT_EQ(low.max(), 100'007u);
  EXPECT_EQ(low.bucket(17), 8u);
  std::uint64_t below_16 = 0;
  for (std::size_t i = 0; i <= 4; ++i) {
    below_16 += low.bucket(i);
  }
  EXPECT_EQ(below_16, 8u);
  // Half the mass is small, so p50 stays in the low range and p95 jumps to
  // the high range — disjointness survives the merge.
  EXPECT_LE(low.p50(), 8u);
  EXPECT_GE(low.p95(), 100'000u);
}

TEST(Metrics, MergeOrderDoesNotChangeExactPercentiles) {
  obs::Histogram a;
  obs::Histogram b;
  for (std::uint64_t v = 1; v <= 60; ++v) {
    a.observe(v * 7);
  }
  for (std::uint64_t v = 1; v <= 40; ++v) {
    b.observe(v * 13);
  }
  obs::Histogram ab = a;
  ab.merge(b);
  obs::Histogram ba = b;
  ba.merge(a);
  ASSERT_TRUE(ab.exact_percentiles());
  ASSERT_TRUE(ba.exact_percentiles());
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.sum(), ba.sum());
  EXPECT_EQ(ab.p50(), ba.p50());
  EXPECT_EQ(ab.p95(), ba.p95());
  EXPECT_EQ(ab.p99(), ba.p99());
}

TEST(Metrics, RegistryMergeHandlesDisjointNames) {
  obs::MetricsRegistry a;
  a.counter("only.in.a").inc(2);
  a.histogram("hist.a").observe(10);
  obs::MetricsRegistry b;
  b.counter("only.in.b").inc(5);
  b.counter("only.in.a").inc(1);
  b.histogram("hist.b").observe(20);
  a.merge_from(b);
  EXPECT_EQ(a.find_counter("only.in.a")->value(), 3u);
  EXPECT_EQ(a.find_counter("only.in.b")->value(), 5u);
  EXPECT_EQ(a.find_histogram("hist.a")->count(), 1u);
  EXPECT_EQ(a.find_histogram("hist.b")->count(), 1u);
  EXPECT_EQ(a.find_histogram("hist.b")->sum(), 20u);
}

TEST(Metrics, MergeCreatesEveryInstrumentKindAbsentFromDestination) {
  // Fleet aggregation folds per-device registries into a destination that may
  // never have seen some instruments — merge_from must create them, not drop
  // them.  Cover all four kinds at once against a completely empty target.
  obs::MetricsRegistry source;
  source.counter("syscalls.total").inc(7);
  source.gauge("tasks.live").set(3);
  source.histogram("attest.roundtrip.cycles").observe(4096);
  obs::HeatProfile& heat = source.heat_profile("machine");
  heat.opcodes[0x12].count = 9;
  heat.blocks[0x40000] = {0x4000c, 2, 6};

  obs::MetricsRegistry dest;
  ASSERT_EQ(dest.find_counter("syscalls.total"), nullptr);
  dest.merge_from(source);
  ASSERT_NE(dest.find_counter("syscalls.total"), nullptr);
  EXPECT_EQ(dest.find_counter("syscalls.total")->value(), 7u);
  ASSERT_NE(dest.find_gauge("tasks.live"), nullptr);
  EXPECT_EQ(dest.find_gauge("tasks.live")->value(), 3);
  ASSERT_NE(dest.find_histogram("attest.roundtrip.cycles"), nullptr);
  EXPECT_EQ(dest.find_histogram("attest.roundtrip.cycles")->count(), 1u);
  EXPECT_EQ(dest.find_histogram("attest.roundtrip.cycles")->sum(), 4096u);
  ASSERT_NE(dest.find_heat_profile("machine"), nullptr);
  EXPECT_EQ(dest.find_heat_profile("machine")->opcodes[0x12].count, 9u);

  // Folding the same source again adds, it does not overwrite.
  dest.merge_from(source);
  EXPECT_EQ(dest.find_counter("syscalls.total")->value(), 14u);
  EXPECT_EQ(dest.find_gauge("tasks.live")->value(), 6);
  EXPECT_EQ(dest.find_histogram("attest.roundtrip.cycles")->count(), 2u);
  EXPECT_EQ(dest.find_heat_profile("machine")->blocks.at(0x40000).entries, 4u);
}

TEST(Metrics, HubMetricsFoldIntoFleetRegistryWithMissingCounters) {
  // The telemetry fold path: fleet aggregation flushes a device hub and
  // merges hub.metrics() into the fleet-level registry.  The device's
  // event-derived counters ("events.<kind>") do not exist in the destination
  // until the first fold; pre-existing destination instruments must survive.
  std::uint64_t clock = 100;
  obs::Hub hub;
  hub.set_clock(&clock);
  hub.enable();
  hub.emit(obs::EventKind::kSchedTick);
  hub.emit(obs::EventKind::kSchedTick);
  hub.emit(obs::EventKind::kCtxSave, 0, 120, 1);  // secure save, 120 cycles
  hub.flush();

  obs::MetricsRegistry fleet;
  fleet.counter("fleet.rounds").inc(5);
  ASSERT_EQ(fleet.find_counter("events.sched-tick"), nullptr);
  fleet.merge_from(hub.metrics());
  ASSERT_NE(fleet.find_counter("events.sched-tick"), nullptr);
  EXPECT_EQ(fleet.find_counter("events.sched-tick")->value(), 2u);
  ASSERT_NE(fleet.find_histogram("ctx_save.secure.cycles"), nullptr);
  EXPECT_EQ(fleet.find_histogram("ctx_save.secure.cycles")->count(), 1u);
  EXPECT_EQ(fleet.find_histogram("ctx_save.secure.cycles")->sum(), 120u);
  // The destination's own instruments are untouched by the fold.
  EXPECT_EQ(fleet.find_counter("fleet.rounds")->value(), 5u);
}

TEST(Metrics, FormatTableShowsPercentiles) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("latency.cycles");
  h.observe(10);
  h.observe(20);
  h.observe(30);
  const std::string table = registry.format_table();
  EXPECT_NE(table.find("p50="), std::string::npos) << table;
  EXPECT_NE(table.find("p99="), std::string::npos) << table;
}

TEST(Metrics, RegistryHandsOutStableInstruments) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("events.total");
  c.inc(3);
  registry.counter("events.total").inc();
  EXPECT_EQ(registry.find_counter("events.total")->value(), 4u);
  EXPECT_EQ(registry.find_counter("missing"), nullptr);
  registry.gauge("sched.tick").set(7);
  EXPECT_EQ(registry.find_gauge("sched.tick")->value(), 7);
  const std::string table = registry.format_table();
  EXPECT_NE(table.find("events.total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Platform integration
// ---------------------------------------------------------------------------

TEST(Accounting, BooksBalanceToTheCycle) {
  core::Platform platform;
  obs::Hub& hub = platform.machine().obs();
  hub.enable();  // from cycle 0: boot + loads count as platform/task work
  ASSERT_TRUE(platform.boot().is_ok());
  auto sec = platform.load_task_source(kSecureSpinner, {.name = "sec"});
  auto norm = platform.load_task_source(kNormalSpinner, {.name = "norm"});
  ASSERT_TRUE(sec.is_ok() && norm.is_ok());
  platform.run_for(500'000);

  hub.flush();
  const obs::TaskAccounting& accounting = hub.accounting();
  EXPECT_EQ(accounting.accounted_cycles(), platform.machine().cycles());
  std::uint64_t sum = accounting.platform_cycles();
  for (const auto& [task, cycles] : accounting.tasks()) {
    sum += cycles.run + cycles.irq;
  }
  EXPECT_EQ(sum, platform.machine().cycles());
  // Both spinners actually ran and took interrupts (firmware tasks such as
  // the idle task may also appear — their dispatch quanta are accounted too).
  EXPECT_GE(accounting.tasks().size(), 2u);
  for (const rtos::TaskHandle handle : {*sec, *norm}) {
    const auto it = accounting.tasks().find(handle);
    ASSERT_NE(it, accounting.tasks().end()) << "task " << handle;
    EXPECT_GT(it->second.run, 0u) << "task " << handle;
    EXPECT_GT(it->second.irq, 0u) << "task " << handle;
  }
}

TEST(Events, SecureContextSaveCosts95CyclesPerTable2) {
  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  platform.machine().obs().enable();
  ASSERT_TRUE(platform.load_task_source(kSecureSpinner, {.name = "sec"}).is_ok());
  platform.run_for(500'000);

  std::size_t saves = 0;
  std::size_t wipes = 0;
  for (const obs::Event& event : platform.machine().obs().bus().snapshot()) {
    if (event.kind == obs::EventKind::kCtxSave && event.b == 1) {
      EXPECT_EQ(event.a, 95u);  // store 38 + wipe 16 + branch 41
      ++saves;
    }
    if (event.kind == obs::EventKind::kCtxWipe) {
      EXPECT_EQ(event.a, 16u);
      ++wipes;
    }
  }
  EXPECT_GT(saves, 0u);
  EXPECT_EQ(saves, wipes);
}

TEST(Events, MetricsMirrorTheEventStream) {
  core::Platform platform;
  ASSERT_TRUE(platform.boot().is_ok());
  obs::Hub& hub = platform.machine().obs();
  hub.enable();
  ASSERT_TRUE(platform.load_task_source(kSecureSpinner, {.name = "sec"}).is_ok());
  platform.run_for(500'000);

  const obs::Histogram* save = hub.metrics().find_histogram("ctx_save.secure.cycles");
  ASSERT_NE(save, nullptr);
  EXPECT_GT(save->count(), 0u);
  EXPECT_DOUBLE_EQ(save->mean(), 95.0);
  const obs::Counter* dispatches = hub.metrics().find_counter("events.sched-dispatch");
  ASSERT_NE(dispatches, nullptr);
  EXPECT_GT(dispatches->value(), 0u);
  const std::string summary = obs::export_metrics_summary(hub);
  EXPECT_NE(summary.find("ctx_save.secure.cycles"), std::string::npos);
  EXPECT_NE(summary.find("sec"), std::string::npos);  // accounting table row
}

TEST(Events, TracingOffLeavesCycleCountsBitIdentical) {
  auto run = [](bool traced) {
    core::Platform platform;
    if (traced) {
      platform.machine().obs().enable();
    }
    EXPECT_TRUE(platform.boot().is_ok());
    EXPECT_TRUE(platform.load_task_source(kSecureSpinner, {.name = "sec"}).is_ok());
    EXPECT_TRUE(platform.load_task_source(kNormalSpinner, {.name = "norm"}).is_ok());
    platform.run_for(300'000);
    return platform.machine().cycles();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Export, ChromeTraceRoundTripsThroughTheReader) {
  core::Platform platform;
  platform.machine().obs().enable();
  ASSERT_TRUE(platform.boot().is_ok());
  ASSERT_TRUE(platform.load_task_source(kSecureSpinner, {.name = "sec"}).is_ok());
  platform.run_for(300'000);

  obs::EventBus& bus = platform.machine().obs().bus();
  const std::string json = obs::export_chrome_trace(bus);
  auto trace = obs::parse_chrome_trace(json);
  ASSERT_TRUE(trace.is_ok()) << trace.status().to_string();
  EXPECT_EQ(trace->events.size(), bus.snapshot().size());
  EXPECT_FALSE(trace->slices.empty());

  // Thread names: tid 1 = platform, the task's tid carries its name.
  EXPECT_EQ(trace->thread_names.at(1), "platform");
  bool named = false;
  for (const auto& [tid, name] : trace->thread_names) {
    named = named || name == "sec";
  }
  EXPECT_TRUE(named);

  // Payloads survive: find a secure ctx-save instant with a == 95.
  bool found = false;
  for (const obs::TraceInstant& ev : trace->events) {
    if (ev.name == "ctx-save" && ev.b == 1) {
      EXPECT_EQ(ev.a, 95u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Export, TimelineListsEventsInOrder) {
  std::uint64_t clock = 100;
  obs::EventBus bus;
  bus.set_clock(&clock);
  bus.enable();
  bus.set_task_name(0, "t0");
  bus.emit(obs::EventKind::kSchedDispatch, 0, 0, 3);
  const std::string timeline = obs::export_timeline(bus);
  EXPECT_NE(timeline.find("sched-dispatch"), std::string::npos);
  EXPECT_NE(timeline.find("[t0]"), std::string::npos);
  EXPECT_NE(timeline.find("100"), std::string::npos);
}

TEST(Export, ReaderRejectsGarbage) {
  EXPECT_FALSE(obs::parse_chrome_trace("not a trace").is_ok());
}

TEST(Export, MetricsSummarySurfacesEventBusDrops) {
  std::uint64_t clock = 0;
  obs::Hub hub(/*capacity=*/4);
  hub.set_clock(&clock);
  hub.enable();
  for (std::uint32_t i = 0; i < 10; ++i) {
    clock = i;
    hub.emit(obs::EventKind::kSchedTick, -1, i);
  }
  hub.flush();
  const std::string summary = obs::export_metrics_summary(hub);
  EXPECT_NE(summary.find("events recorded       4"), std::string::npos) << summary;
  EXPECT_NE(summary.find("events dropped        6"), std::string::npos) << summary;
  EXPECT_NE(summary.find("ring full"), std::string::npos) << summary;
}

TEST(Export, TraceMetadataCarriesDropCountsThroughTheReader) {
  std::uint64_t clock = 0;
  obs::EventBus bus(/*capacity=*/2);
  bus.set_clock(&clock);
  bus.enable();
  for (std::uint32_t i = 0; i < 5; ++i) {
    clock = i;
    bus.emit(obs::EventKind::kSchedTick, -1, i);
  }
  auto trace = obs::parse_chrome_trace(obs::export_chrome_trace(bus));
  ASSERT_TRUE(trace.is_ok()) << trace.status().to_string();
  EXPECT_EQ(trace->recorded_events, 2u);
  EXPECT_EQ(trace->dropped_events, 3u);
}

// Traces written by tytan-tools 9 and earlier may carry sampling-profiler
// "prof-sample" instants.  They are not bus events: the reader must keep them
// out of the event list so `stats` and `tasks` counts on old files hold.
TEST(Export, LegacyProfilerSamplesStayOutOfTheEvents) {
  std::uint64_t clock = 50;
  obs::EventBus bus;
  bus.set_clock(&clock);
  bus.enable();
  bus.emit(obs::EventKind::kSchedDispatch, 1);
  clock = 80;
  bus.emit(obs::EventKind::kSchedTick, -1, 7);
  const std::string json = obs::export_chrome_trace(bus);
  std::string legacy = json;
  const std::size_t tail = legacy.rfind("\n]}");
  ASSERT_NE(tail, std::string::npos);
  legacy.insert(tail, ",\n" R"({"ph":"i","pid":1,"tid":3,"name":"prof-sample","cat":"prof",)"
                      R"("s":"t","ts":1.250,"args":{"cycle":60,"pc":4100,"task":1,)"
                      R"("frame":"hot;main"}})");
  ASSERT_NE(legacy, json);

  auto fresh = obs::parse_chrome_trace(json);
  auto old = obs::parse_chrome_trace(legacy);
  ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
  ASSERT_TRUE(old.is_ok()) << old.status().to_string();
  ASSERT_EQ(old->events.size(), fresh->events.size());
  EXPECT_EQ(old->events.size(), 2u);
  for (std::size_t i = 0; i < fresh->events.size(); ++i) {
    EXPECT_EQ(old->events[i].name, fresh->events[i].name);
    EXPECT_EQ(old->events[i].cycle, fresh->events[i].cycle);
    EXPECT_EQ(old->events[i].task, fresh->events[i].task);
    EXPECT_EQ(old->events[i].a, fresh->events[i].a);
    EXPECT_EQ(old->events[i].b, fresh->events[i].b);
  }
  EXPECT_EQ(old->slices.size(), fresh->slices.size());
}

// ---------------------------------------------------------------------------
// Satellites: tracer attribution + pluggable log sink
// ---------------------------------------------------------------------------

TEST(Tracer, ZeroCapacityIsClampedInsteadOfUndefined) {
  sim::Tracer tracer(0);
  EXPECT_EQ(tracer.capacity(), 1u);
  tracer.record(1, 0x100, 0x42);
  tracer.record(2, 0x104, 0x43);  // would pop_front() an empty deque before
  const auto entries = tracer.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.front().cycle, 2u);
}

TEST(Tracer, EntriesCarryTaskAndMpuVerdict) {
  sim::Tracer tracer(8);
  tracer.record(10, 0x100, 0x42, "", 3, sim::Tracer::kVerdictAllowed);
  tracer.record(11, 0x104, 0x43, "", 3, sim::Tracer::kVerdictDenied);
  const std::string text = tracer.format();
  EXPECT_NE(text.find("[task 3]"), std::string::npos);
  EXPECT_NE(text.find("<exec denied>"), std::string::npos);
}

TEST(Log, SinkCapturesLinesAndRestores) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kInfo);
  std::vector<std::string> lines;
  LogSink previous = set_log_sink(
      [&](LogLevel level, std::string_view tag, std::string_view message) {
        lines.push_back(std::string(log_level_name(level)) + " " + std::string(tag) +
                        ": " + std::string(message));
      });
  log_line(LogLevel::kInfo, "obs", "hello");
  log_line(LogLevel::kDebug, "obs", "filtered");  // below threshold
  set_log_sink(std::move(previous));
  set_log_level(old_level);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "INFO obs: hello");
}
