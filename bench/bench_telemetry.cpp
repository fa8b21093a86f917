// Telemetry & observatory overhead bench — the cost of observing a fleet.
//
// The observability contract is "free when off, cheap when on, and never a
// single simulated cycle either way".  This bench measures the host-side
// price of (a) fleet telemetry snapshots + anomaly rules, (b) attestation
// spans and (c) the execution observatory (block heat), and *asserts* the
// simulated-cycle invariant: the same workload must execute an identical
// number of simulated cycles with the feature on and off.  The paper has no
// telemetry numbers, so every row's paper value is 0.
#include <chrono>

#include "bench_util.h"
#include "core/platform.h"
#include "fleet/verifier_workload.h"

using namespace tytan;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_args(argc, argv);
  bench::JsonReport report("telemetry", options);

  const std::size_t devices = options.smoke ? 4 : 8;
  const std::uint64_t cycles = options.smoke ? 200'000 : 1'000'000;

  // ---- fleet telemetry: off vs on ---------------------------------------
  bench::Table fleet_table("Fleet telemetry overhead (" + bench::num(devices) +
                           " devices, " + bench::num(cycles) + " cycles each)");
  fleet_table.columns({"telemetry", "total s", "snapshots", "anomalies",
                       "sim cycles"});

  std::uint64_t fleet_cycles_off = 0;
  std::uint64_t fleet_cycles_on = 0;
  for (const bool enabled : {false, true}) {
    fleet::WorkloadConfig config;
    config.fleet.device_count = devices;
    config.fleet.threads = 2;
    config.fleet.telemetry.enabled = enabled;
    config.cycles = cycles;
    fleet::Fleet fleet(config.fleet);
    const fleet::WorkloadResult result = fleet::run_verifier_workload(fleet, config);
    if (!result.status.is_ok()) {
      std::fprintf(stderr, "bench_telemetry: workload failed: %s\n",
                   result.status.to_string().c_str());
      return 1;
    }
    (enabled ? fleet_cycles_on : fleet_cycles_off) = result.totals.cycles;
    const std::size_t snapshots = fleet.telemetry().snapshots().size();
    const std::size_t anomalies = fleet.telemetry().anomalies().size();
    fleet_table.row({enabled ? "on" : "off", bench::fixed(result.total_seconds, 3),
                     bench::num(snapshots), bench::num(anomalies),
                     bench::num(result.totals.cycles)});
    const std::string prefix = enabled ? "telemetry_on" : "telemetry_off";
    report.add(prefix + ".total_ms",
               static_cast<std::uint64_t>(result.total_seconds * 1000.0), 0);
    report.add(prefix + ".snapshots", snapshots, 0);
    report.add(prefix + ".sim_cycles", result.totals.cycles, 0);
  }
  fleet_table.print();

  if (fleet_cycles_off != fleet_cycles_on) {
    std::fprintf(stderr,
                 "bench_telemetry: telemetry changed simulated cycles "
                 "(%llu off vs %llu on) — cost invariant broken\n",
                 static_cast<unsigned long long>(fleet_cycles_off),
                 static_cast<unsigned long long>(fleet_cycles_on));
    return 1;
  }

  // ---- attestation spans: off vs on -------------------------------------
  // Same contract as telemetry: spans may cost host time, never a simulated
  // cycle.  The workload attests twice so retry/round logic is exercised.
  bench::Table span_table("Attestation span overhead (" + bench::num(devices) +
                          " devices, " + bench::num(cycles) + " cycles each)");
  span_table.columns({"spans", "total s", "spans recorded", "sim cycles"});

  std::uint64_t span_cycles_off = 0;
  std::uint64_t span_cycles_on = 0;
  double span_seconds_off = 0.0;
  double span_seconds_on = 0.0;
  for (const bool enabled : {false, true}) {
    fleet::WorkloadConfig config;
    config.fleet.device_count = devices;
    config.fleet.threads = 2;
    config.fleet.spans = enabled;
    config.cycles = cycles;
    config.attest_sweeps = 2;
    fleet::Fleet fleet(config.fleet);
    const fleet::WorkloadResult result = fleet::run_verifier_workload(fleet, config);
    if (!result.status.is_ok()) {
      std::fprintf(stderr, "bench_telemetry: span workload failed: %s\n",
                   result.status.to_string().c_str());
      return 1;
    }
    (enabled ? span_cycles_on : span_cycles_off) = result.totals.cycles;
    (enabled ? span_seconds_on : span_seconds_off) = result.total_seconds;
    std::size_t spans = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      spans += fleet.device(i).platform().machine().obs().spans().size();
    }
    span_table.row({enabled ? "on" : "off", bench::fixed(result.total_seconds, 3),
                    bench::num(spans), bench::num(result.totals.cycles)});
    const std::string prefix = enabled ? "spans_on" : "spans_off";
    report.add(prefix + ".total_ms",
               static_cast<std::uint64_t>(result.total_seconds * 1000.0), 0);
    report.add(prefix + ".spans", spans, 0);
    report.add(prefix + ".sim_cycles", result.totals.cycles, 0);
    if (enabled && spans == 0) {
      std::fprintf(stderr, "bench_telemetry: spans enabled but none recorded\n");
      return 1;
    }
  }
  span_table.print();

  if (span_cycles_off != span_cycles_on) {
    std::fprintf(stderr,
                 "bench_telemetry: spans changed simulated cycles "
                 "(%llu off vs %llu on) — cost invariant broken\n",
                 static_cast<unsigned long long>(span_cycles_off),
                 static_cast<unsigned long long>(span_cycles_on));
    return 1;
  }
  if (span_seconds_off > 0.0) {
    std::printf("span host-time overhead: %+.1f%%\n",
                100.0 * (span_seconds_on - span_seconds_off) / span_seconds_off);
  }

  // ---- execution observatory: off vs on ----------------------------------
  const std::uint64_t heat_cycles = options.smoke ? 500'000 : 4'000'000;
  bench::Table heat_table("Execution observatory overhead (" + bench::num(heat_cycles) +
                          " cycles, deterministic heat)");
  heat_table.columns({"heat", "host s", "heat blocks", "sim cycles", "instr"});

  std::uint64_t heat_cycles_off = 0;
  std::uint64_t heat_cycles_on = 0;
  for (const bool enabled : {false, true}) {
    core::Platform platform;
    if (enabled) {
      platform.machine().enable_heat(/*time_dispatch=*/false);
    }
    if (!platform.boot().is_ok()) {
      std::fprintf(stderr, "bench_telemetry: boot failed\n");
      return 1;
    }
    auto task = platform.load_task_source(fleet::default_task_source(),
                                          {.name = "heartbeat"});
    if (!task.is_ok()) {
      std::fprintf(stderr, "bench_telemetry: load failed: %s\n",
                   task.status().to_string().c_str());
      return 1;
    }
    const auto start = std::chrono::steady_clock::now();
    platform.run_for(heat_cycles);
    const double host_seconds = seconds_since(start);
    const std::uint64_t sim_cycles = platform.machine().cycles();
    (enabled ? heat_cycles_on : heat_cycles_off) = sim_cycles;
    std::uint64_t heat_blocks = 0;
    if (obs::HeatRecorder* heat = platform.machine().heat(); heat != nullptr) {
      heat->flush();
      heat_blocks = heat->profile().blocks.size();
    }
    heat_table.row({enabled ? "on" : "off", bench::fixed(host_seconds, 3),
                    bench::num(heat_blocks), bench::num(sim_cycles),
                    bench::num(platform.machine().instructions_executed())});
    const std::string prefix = enabled ? "heat_on" : "heat_off";
    report.add(prefix + ".host_ms",
               static_cast<std::uint64_t>(host_seconds * 1000.0), 0);
    report.add(prefix + ".heat_blocks", heat_blocks, 0);
    report.add(prefix + ".sim_cycles", sim_cycles, 0);
  }
  heat_table.print();

  if (heat_cycles_off != heat_cycles_on) {
    std::fprintf(stderr,
                 "bench_telemetry: heat changed simulated cycles "
                 "(%llu off vs %llu on) — cost invariant broken\n",
                 static_cast<unsigned long long>(heat_cycles_off),
                 static_cast<unsigned long long>(heat_cycles_on));
    return 1;
  }

  std::printf("\nsimulated work identical with observability on and off "
              "(fleet %llu cycles, single device %llu cycles)\n",
              static_cast<unsigned long long>(fleet_cycles_on),
              static_cast<unsigned long long>(heat_cycles_on));
  return 0;
}
