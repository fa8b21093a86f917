// Fleet runner tests — the cross-thread determinism contract above all:
// a device's simulation is byte-identical whatever the worker-thread count,
// because Platforms share no mutable state and one thread drives a platform
// at a time.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "core/platform.h"
#include "fleet/thread_pool.h"
#include "fleet/verifier_workload.h"

namespace tytan::fleet {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossRounds) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ZeroThreadsCoercedToOne) {
  ThreadPool pool(0);
  std::atomic<int> total{0};
  pool.parallel_for(5, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 5);
}

// -------------------------------------------------------------------- Fleet

WorkloadConfig small_workload(std::size_t devices, std::size_t threads) {
  WorkloadConfig config;
  config.fleet.device_count = devices;
  config.fleet.threads = threads;
  config.cycles = 200'000;
  return config;
}

/// Canonical text form of a metrics registry, for byte-comparison.
std::string metrics_snapshot(const obs::MetricsRegistry& metrics) {
  std::ostringstream out;
  metrics.visit_counters([&](const std::string& name, const obs::Counter& c) {
    out << "c " << name << " " << c.value() << "\n";
  });
  metrics.visit_gauges([&](const std::string& name, const obs::Gauge& g) {
    out << "g " << name << " " << g.value() << "\n";
  });
  metrics.visit_histograms([&](const std::string& name, const obs::Histogram& h) {
    out << "h " << name << " " << h.count() << " " << h.sum() << "\n";
  });
  return out.str();
}

TEST(Fleet, VerifierWorkloadEndToEnd) {
  Fleet fleet(small_workload(4, 2).fleet);
  const WorkloadResult result = run_verifier_workload(fleet, small_workload(4, 2));
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.devices, 4u);
  EXPECT_EQ(result.attested, 4u);
  EXPECT_EQ(result.verified, 4u);
  EXPECT_TRUE(result.all_verified());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const FleetDevice& device = fleet.device(i);
    EXPECT_TRUE(device.attested());
    EXPECT_EQ(device.outcome().code, verifier::VerifyOutcome::Code::kVerified);
    EXPECT_TRUE(device.platform().booted());
    EXPECT_GE(device.platform().machine().cycles(), 200'000u);
  }
}

TEST(Fleet, DevicesHaveDistinctKeysNoncesAndReports) {
  Fleet fleet(small_workload(3, 2).fleet);
  const WorkloadResult result = run_verifier_workload(fleet, small_workload(3, 2));
  ASSERT_TRUE(result.all_verified());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (std::size_t j = i + 1; j < fleet.size(); ++j) {
      EXPECT_NE(fleet.device(i).nonce(), fleet.device(j).nonce());
      EXPECT_NE(fleet.device(i).report().serialize(),
                fleet.device(j).report().serialize());
      EXPECT_NE(fleet.device(i).platform().config().kp,
                fleet.device(j).platform().config().kp);
    }
  }
}

// The tentpole invariant: same fleet config, different thread counts =>
// byte-identical attestation reports, cycle counts, and metric snapshots.
TEST(Fleet, DeterministicAcrossThreadCounts) {
  constexpr std::size_t kDevices = 6;
  Fleet serial(small_workload(kDevices, 1).fleet);
  Fleet threaded(small_workload(kDevices, 4).fleet);
  const WorkloadResult r1 =
      run_verifier_workload(serial, small_workload(kDevices, 1));
  const WorkloadResult r4 =
      run_verifier_workload(threaded, small_workload(kDevices, 4));
  ASSERT_TRUE(r1.all_verified());
  ASSERT_TRUE(r4.all_verified());

  for (std::size_t i = 0; i < kDevices; ++i) {
    const FleetDevice& a = serial.device(i);
    const FleetDevice& b = threaded.device(i);
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.nonce(), b.nonce());
    EXPECT_EQ(a.report().serialize(), b.report().serialize());
    EXPECT_EQ(a.platform().machine().cycles(), b.platform().machine().cycles());
    EXPECT_EQ(a.platform().machine().instructions_executed(),
              b.platform().machine().instructions_executed());
    EXPECT_EQ(metrics_snapshot(a.platform().machine().obs().metrics()),
              metrics_snapshot(b.platform().machine().obs().metrics()));
  }
  EXPECT_EQ(metrics_snapshot(serial.metrics()), metrics_snapshot(threaded.metrics()));
  EXPECT_EQ(r1.totals.cycles, r4.totals.cycles);
  EXPECT_EQ(r1.totals.instructions, r4.totals.instructions);
}

// Regression: bring_up used to copy FleetConfig::base into the builder one
// field at a time and dropped base.dispatch, so an interpreter fleet ran
// cached.  Both modes must also agree on every simulated total.
TEST(Fleet, BaseDispatchReachesEveryDevice) {
  constexpr std::size_t kDevices = 3;
  WorkloadConfig interp_config = small_workload(kDevices, 2);
  interp_config.fleet.base.dispatch = sim::DispatchMode::kInterpreter;
  const WorkloadConfig cached_config = small_workload(kDevices, 2);
  Fleet interp(interp_config.fleet);
  Fleet cached(cached_config.fleet);
  const WorkloadResult ri = run_verifier_workload(interp, interp_config);
  const WorkloadResult rc = run_verifier_workload(cached, cached_config);
  ASSERT_TRUE(ri.all_verified());
  ASSERT_TRUE(rc.all_verified());
  for (std::size_t i = 0; i < kDevices; ++i) {
    const sim::Machine& machine = interp.device(i).platform().machine();
    EXPECT_EQ(machine.dispatch_mode(), sim::DispatchMode::kInterpreter) << "device " << i;
    EXPECT_EQ(machine.decode_cache().stats().builds, 0u) << "device " << i;
    EXPECT_EQ(cached.device(i).platform().machine().dispatch_mode(),
              sim::DispatchMode::kCached);
  }
  EXPECT_EQ(ri.totals.cycles, rc.totals.cycles);
  EXPECT_EQ(ri.totals.instructions, rc.totals.instructions);
  EXPECT_EQ(ri.totals.interrupts, rc.totals.interrupts);
  EXPECT_EQ(ri.totals.faults, rc.totals.faults);
  EXPECT_EQ(ri.totals.attested, rc.totals.attested);
  EXPECT_EQ(ri.totals.verified, rc.totals.verified);
  EXPECT_EQ(ri.totals.verified, kDevices);
}

// Regression: FleetConfig carried its own fault_plan next to
// base.fault_plan, and bring_up overwrote base.fault_plan on every device
// with it, so a plan set on base reached no device at all.
TEST(Fleet, BaseFaultPlanReachesOnlyTheChosenDevice) {
  FleetConfig config;
  config.device_count = 3;
  config.threads = 2;
  auto plan = fault::FaultPlan::parse("nonce-replay@attest#2");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  config.base.fault_plan = plan.take();
  config.fault_plan_device = 1;
  Fleet fleet(config);
  ASSERT_TRUE(fleet.bring_up().is_ok());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(fleet.device(i).platform().fault_engine() != nullptr, i == 1)
        << "device " << i;
  }
}

TEST(Fleet, SecondAttestSweepUsesFreshNonces) {
  Fleet fleet(small_workload(3, 2).fleet);
  const WorkloadConfig config = small_workload(3, 2);
  ASSERT_TRUE(run_verifier_workload(fleet, config).all_verified());
  std::vector<std::uint64_t> first_nonces;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    first_nonces.push_back(fleet.device(i).nonce());
  }
  EXPECT_EQ(fleet.attest_all(config.release_name), fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_NE(fleet.device(i).nonce(), first_nonces[i]);
    EXPECT_EQ(fleet.device(i).outcome().code,
              verifier::VerifyOutcome::Code::kVerified);
  }
}

TEST(Fleet, AggregatedMetricsMatchPerDeviceTotals) {
  Fleet fleet(small_workload(4, 2).fleet);
  ASSERT_TRUE(run_verifier_workload(fleet, small_workload(4, 2)).all_verified());
  std::uint64_t cycle_sum = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    cycle_sum += fleet.device(i).platform().machine().cycles();
  }
  EXPECT_EQ(fleet.metrics().counter("fleet.devices").value(), 4u);
  EXPECT_EQ(fleet.metrics().counter("fleet.cycles").value(), cycle_sum);
  EXPECT_EQ(fleet.metrics().counter("fleet.attestations").value(), 4u);
  EXPECT_EQ(fleet.metrics().counter("fleet.attestations_verified").value(), 4u);
  EXPECT_EQ(fleet.totals().cycles, cycle_sum);
}

// Per-device LogContexts keep fleet logging off the process-default context.
TEST(Fleet, LogIsolation) {
  std::vector<std::string> process_lines;
  LogSink previous = set_log_sink(
      [&](LogLevel, std::string_view, std::string_view msg) {
        process_lines.emplace_back(msg);
      });
  const LogLevel previous_level = log_level();
  set_log_level(LogLevel::kTrace);

  Fleet fleet(small_workload(2, 2).fleet);
  std::vector<std::string> device_lines[2];
  for (std::size_t i = 0; i < 2; ++i) {
    fleet.device(i).log_context().set_level(LogLevel::kTrace);
    fleet.device(i).log_context().set_sink(
        [&, i](LogLevel, std::string_view, std::string_view msg) {
          device_lines[i].emplace_back(msg);
        });
  }
  ASSERT_TRUE(run_verifier_workload(fleet, small_workload(2, 2)).all_verified());

  set_log_level(previous_level);
  set_log_sink(std::move(previous));
  // Everything the platforms logged landed in their own contexts.
  EXPECT_TRUE(process_lines.empty());
  // Identical devices log identical streams — and they logged something.
  EXPECT_FALSE(device_lines[0].empty());
  EXPECT_EQ(device_lines[0], device_lines[1]);
}

// Satellite: RngDevice seeds flow through Platform::Config.
TEST(Fleet, RngSeedConfigurablePerPlatform) {
  auto make_platform = [](std::uint64_t seed) {
    core::Platform::Config config;
    config.rng_seed = seed;
    return std::make_unique<core::Platform>(config);
  };
  auto a = make_platform(0x1111);
  auto b = make_platform(0x1111);
  auto c = make_platform(0x2222);
  EXPECT_EQ(a->rng().next64(), b->rng().next64());
  EXPECT_NE(a->rng().next64(), c->rng().next64());
  // Seed zero falls back to the device default rather than a dead RNG.
  auto d = make_platform(0);
  EXPECT_NE(d->rng().next64(), 0u);
}

// Satellite: two explicitly-threaded platforms behave exactly like the same
// two platforms run sequentially.
TEST(Fleet, TwoPlatformsOnTwoExplicitThreads) {
  auto make = [](std::uint8_t tag) {
    core::Platform::Config config;
    config.kp.fill(tag);
    config.rng_seed = 0x9000 + tag;
    return std::make_unique<core::Platform>(config);
  };
  auto run_one = [](core::Platform& platform, rtos::TaskHandle* handle) {
    ASSERT_TRUE(platform.boot().is_ok());
    auto task = platform.load_task_source(default_task_source(), {.name = "hb"});
    ASSERT_TRUE(task.is_ok());
    *handle = *task;
    platform.run_for(300'000);
  };

  auto s1 = make(1), s2 = make(2);   // sequential reference
  auto t1 = make(1), t2 = make(2);   // concurrent run
  rtos::TaskHandle hs1{}, hs2{}, ht1{}, ht2{};
  run_one(*s1, &hs1);
  run_one(*s2, &hs2);
  std::thread worker_a([&] { run_one(*t1, &ht1); });
  std::thread worker_b([&] { run_one(*t2, &ht2); });
  worker_a.join();
  worker_b.join();

  EXPECT_EQ(s1->machine().cycles(), t1->machine().cycles());
  EXPECT_EQ(s2->machine().cycles(), t2->machine().cycles());
  EXPECT_EQ(s1->machine().instructions_executed(),
            t1->machine().instructions_executed());
  EXPECT_EQ(s2->machine().instructions_executed(),
            t2->machine().instructions_executed());
  // Same task, same nonce, same per-device key => identical reports.
  auto report_of = [](core::Platform& p, rtos::TaskHandle handle) {
    auto report = p.remote_attest().attest_task(handle, 0xfeed);
    return report.is_ok() ? report->serialize() : ByteVec{};
  };
  EXPECT_EQ(report_of(*s1, hs1), report_of(*t1, ht1));
  EXPECT_EQ(report_of(*s2, hs2), report_of(*t2, ht2));
  EXPECT_NE(report_of(*s1, hs1), report_of(*s2, hs2));
}

TEST(Fleet, BringUpFailurePropagates) {
  FleetConfig config;
  config.device_count = 2;
  config.threads = 2;
  config.base.lint_mode = core::LintMode::kStrict;
  Fleet fleet(config);
  ASSERT_TRUE(fleet.bring_up().is_ok());
  // Deploying garbage fails on every device and surfaces the first error.
  EXPECT_FALSE(fleet.deploy("not peak-32 at all", "bad", 1).is_ok());
}

}  // namespace
}  // namespace tytan::fleet
