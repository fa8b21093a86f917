// tytan-fleet — drive a fleet of TyTAN devices through the remote-attestation
// verifier workload.
//
//   tytan-fleet [options]
//     --devices N     number of independent platforms (default 8)
//     --threads T     worker threads advancing the fleet (default 1)
//     --cycles C      simulated cycles per device (default 2,000,000)
//     --quantum Q     round-robin slice in cycles (default 100,000)
//     --task FILE     Peak-32 source to deploy (default: built-in heartbeat)
//     --json FILE     write fleet results + host timing as JSON
//     --metrics       print the aggregated fleet metrics registry
//     --telemetry-out FILE   enable fleet telemetry, write JSONL health
//                            snapshots + anomaly records (tytan-top reads it)
//     --telemetry-every N    snapshot cadence in round barriers (default 1)
//     --rogue-device I       swap device I's task for an unblessed binary
//                            (seeded attestation-failure anomaly)
//     --fault-device I       load an EA-MPU-tripping task on device I
//                            (seeded fault-spike anomaly)
//     --fault-plan SPEC      fault-injection plan (docs/FAULTS.md grammar),
//                            installed on --fault-plan-device (default 0)
//     --fault-plan-device I  device carrying the fault plan
//     --fault-seed N         RNG seed for seeded bit/drop choices
//     --attest-retries N     re-attest failed devices with exponential
//                            backoff (default 2 when --fault-plan is set,
//                            else 0)
//     --attest-backoff C     base backoff in simulated cycles (default 25000)
//
// stdout is deterministic for a given fleet config — the same devices, seeds,
// and cycles produce byte-identical reports whatever --threads is.  Host-side
// timing (wall clock, devices/sec, attestations/sec) goes to stderr and the
// JSON file only.  Exits 0 iff every device's report verified.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/json.h"
#include "fault/fault.h"

#include "fleet/verifier_workload.h"
#include "obs/export.h"
#include "tool_util.h"

using namespace tytan;

namespace {

constexpr const char kUsageText[] =
    "usage: tytan-fleet [--devices N] [--threads T] [--cycles C]\n"
    "                   [--quantum Q] [--task FILE] [--json FILE] [--metrics]\n"
    "                   [--telemetry-out FILE] [--telemetry-every N]\n"
    "                   [--spans-out FILE] [--attest-sweeps N]\n"
    "                   [--rogue-device I] [--fault-device I]\n"
    "                   [--fault-plan SPEC] [--fault-plan-device I]\n"
    "                   [--fault-seed N] [--attest-retries N]\n"
    "                   [--attest-backoff C]\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return 2;
}

void write_json(const std::string& path, const fleet::Fleet& fleet,
                const fleet::WorkloadConfig& config,
                const fleet::WorkloadResult& result) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"devices\": " << result.devices << ",\n";
  out << "  \"threads\": " << config.fleet.threads << ",\n";
  out << "  \"cycles\": " << config.cycles << ",\n";
  out << "  \"quantum\": " << config.fleet.quantum << ",\n";
  out << "  \"attested\": " << result.attested << ",\n";
  out << "  \"verified\": " << result.verified << ",\n";
  out << "  \"total_cycles\": " << result.totals.cycles << ",\n";
  out << "  \"total_instructions\": " << result.totals.instructions << ",\n";
  out << "  \"boot_seconds\": " << result.boot_seconds << ",\n";
  out << "  \"run_seconds\": " << result.run_seconds << ",\n";
  out << "  \"attest_seconds\": " << result.attest_seconds << ",\n";
  out << "  \"total_seconds\": " << result.total_seconds << ",\n";
  out << "  \"devices_per_sec\": " << result.devices_per_sec() << ",\n";
  out << "  \"attests_per_sec\": " << result.attests_per_sec() << ",\n";
  out << "  \"telemetry_snapshots\": " << fleet.telemetry().snapshots().size()
      << ",\n";
  out << "  \"telemetry_anomalies\": " << fleet.telemetry().anomalies().size()
      << ",\n";
  out << "  \"reports\": [\n";
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const fleet::FleetDevice& device = fleet.device(i);
    out << "    {\"device\": " << device.id() << ", \"outcome\": \""
        << verifier::verify_outcome_name(device.outcome().code)
        << "\", \"report\": \""
        << (device.attested() ? hex_encode(device.report().serialize()) : "")
        << "\"}" << (i + 1 < fleet.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::ofstream file(path);
  file << out.str();
}

}  // namespace

int main(int argc, char** argv) {
  tools::handle_version_help("tytan-fleet", argc, argv, kUsageText);
  fleet::WorkloadConfig config;
  config.fleet.device_count = 8;
  std::string json_path;
  std::string task_path;
  std::string telemetry_path;
  std::string spans_path;
  std::string fault_plan_spec;
  std::optional<std::uint64_t> fault_seed;
  bool attest_retries_set = false;
  bool metrics = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) {
      return tools::required_value("tytan-fleet", flag, argc, argv, &i);
    };
    if (arg == "--devices") {
      config.fleet.device_count =
          tools::parse_u64("tytan-fleet", "--devices", next("--devices"));
    } else if (arg == "--threads") {
      config.fleet.threads =
          tools::parse_u64("tytan-fleet", "--threads", next("--threads"));
    } else if (arg == "--cycles") {
      config.cycles = tools::parse_u64("tytan-fleet", "--cycles", next("--cycles"));
    } else if (arg == "--quantum") {
      config.fleet.quantum =
          tools::parse_u64("tytan-fleet", "--quantum", next("--quantum"));
    } else if (arg == "--task") {
      task_path = next("--task");
    } else if (arg == "--json") {
      json_path = next("--json");
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--telemetry-out") {
      telemetry_path = next("--telemetry-out");
    } else if (arg.rfind("--telemetry-out=", 0) == 0) {
      telemetry_path = arg.substr(std::strlen("--telemetry-out="));
    } else if (arg == "--spans-out") {
      spans_path = next("--spans-out");
    } else if (arg.rfind("--spans-out=", 0) == 0) {
      spans_path = arg.substr(std::strlen("--spans-out="));
    } else if (arg == "--attest-sweeps") {
      config.attest_sweeps = static_cast<unsigned>(tools::parse_u32(
          "tytan-fleet", "--attest-sweeps", next("--attest-sweeps")));
    } else if (arg.rfind("--attest-sweeps=", 0) == 0) {
      config.attest_sweeps = static_cast<unsigned>(
          tools::parse_u32("tytan-fleet", "--attest-sweeps",
                           arg.c_str() + std::strlen("--attest-sweeps=")));
    } else if (arg == "--telemetry-every") {
      config.fleet.telemetry.every_rounds = tools::parse_u64(
          "tytan-fleet", "--telemetry-every", next("--telemetry-every"));
    } else if (arg.rfind("--telemetry-every=", 0) == 0) {
      config.fleet.telemetry.every_rounds =
          tools::parse_u64("tytan-fleet", "--telemetry-every",
                           arg.c_str() + std::strlen("--telemetry-every="));
    } else if (arg == "--rogue-device") {
      config.rogue_device = static_cast<int>(tools::parse_i64(
          "tytan-fleet", "--rogue-device", next("--rogue-device")));
    } else if (arg.rfind("--rogue-device=", 0) == 0) {
      config.rogue_device = static_cast<int>(
          tools::parse_i64("tytan-fleet", "--rogue-device",
                           arg.c_str() + std::strlen("--rogue-device=")));
    } else if (arg == "--fault-device") {
      config.fault_device = static_cast<int>(tools::parse_i64(
          "tytan-fleet", "--fault-device", next("--fault-device")));
    } else if (arg.rfind("--fault-device=", 0) == 0) {
      config.fault_device = static_cast<int>(
          tools::parse_i64("tytan-fleet", "--fault-device",
                           arg.c_str() + std::strlen("--fault-device=")));
    } else if (arg == "--fault-plan") {
      fault_plan_spec = next("--fault-plan");
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      fault_plan_spec = arg.substr(std::strlen("--fault-plan="));
    } else if (arg == "--fault-plan-device") {
      config.fleet.fault_plan_device = tools::parse_u64(
          "tytan-fleet", "--fault-plan-device", next("--fault-plan-device"));
    } else if (arg == "--fault-seed") {
      fault_seed = tools::parse_u64("tytan-fleet", "--fault-seed", next("--fault-seed"));
    } else if (arg == "--attest-retries") {
      config.fleet.attest_retries = static_cast<unsigned>(tools::parse_u64(
          "tytan-fleet", "--attest-retries", next("--attest-retries")));
      attest_retries_set = true;
    } else if (arg == "--attest-backoff") {
      config.fleet.attest_backoff_cycles = tools::parse_u64(
          "tytan-fleet", "--attest-backoff", next("--attest-backoff"));
    } else {
      return usage();
    }
  }
  if (config.fleet.device_count == 0) {
    std::fprintf(stderr, "tytan-fleet: --devices must be at least 1\n");
    return 2;
  }
  if (!task_path.empty()) {
    auto source = json::read_text_file(task_path);
    if (!source.is_ok()) {
      std::fprintf(stderr, "tytan-fleet: %s\n", source.status().message().c_str());
      return 1;
    }
    config.task_source = source.take();
  }

  if (!telemetry_path.empty()) {
    config.fleet.telemetry.enabled = true;
  }
  if (!spans_path.empty()) {
    config.fleet.spans = true;
  }
  if (!fault_plan_spec.empty()) {
    auto plan = fault::FaultPlan::parse(fault_plan_spec);
    if (!plan.is_ok()) {
      std::fprintf(stderr, "tytan-fleet: %s\n", plan.status().to_string().c_str());
      return 2;
    }
    if (fault_seed.has_value()) {
      plan->seed = *fault_seed;
    }
    config.fleet.base.fault_plan = std::move(*plan);
    if (config.fleet.fault_plan_device >= config.fleet.device_count) {
      std::fprintf(stderr, "tytan-fleet: --fault-plan-device out of range\n");
      return 2;
    }
    if (!attest_retries_set) {
      config.fleet.attest_retries = 2;  // recovery on by default under faults
    }
  }

  fleet::Fleet fleet(config.fleet);
  const fleet::WorkloadResult result = fleet::run_verifier_workload(fleet, config);
  if (!result.status.is_ok()) {
    std::fprintf(stderr, "tytan-fleet: workload failed: %s\n",
                 result.status.to_string().c_str());
    return 1;
  }

  // Deterministic per-device results — stdout only.
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const fleet::FleetDevice& device = fleet.device(i);
    std::printf("device %3u  cycles=%llu  nonce=%016llx  %-9s  report=%s\n",
                device.id(),
                static_cast<unsigned long long>(device.platform().machine().cycles()),
                static_cast<unsigned long long>(device.nonce()),
                verifier::verify_outcome_name(device.outcome().code),
                device.attested() ? hex_encode(device.report().serialize()).c_str()
                                  : "-");
  }
  std::printf("fleet: %zu devices, %zu attested, %zu verified\n", result.devices,
              result.attested, result.verified);
  if (!config.fleet.base.fault_plan.empty()) {
    // Simulated-state fault summary — deterministic for a given config.
    fleet::FleetDevice& faulted = fleet.device(config.fleet.fault_plan_device);
    const fault::FaultEngine* engine = faulted.platform().fault_engine();
    std::printf("faults: device %u injected=%llu recovered=%llu quarantines=%llu "
                "attest-retries=%llu watchdog-restarts=%llu\n",
                faulted.id(),
                static_cast<unsigned long long>(
                    engine != nullptr ? engine->injected_total() : 0),
                static_cast<unsigned long long>(
                    engine != nullptr ? engine->recovered_total() : 0),
                static_cast<unsigned long long>(faulted.quarantines()),
                static_cast<unsigned long long>(faulted.attest_recoveries()),
                static_cast<unsigned long long>(
                    faulted.platform().kernel().watchdog_restarts()));
  }
  if (config.fleet.telemetry.enabled) {
    // Simulated-state summary only — deterministic for a given config.
    std::printf("telemetry: %zu snapshots, %zu anomalies\n",
                fleet.telemetry().snapshots().size(),
                fleet.telemetry().anomalies().size());
  }
  std::string spans_jsonl;
  if (config.fleet.spans) {
    spans_jsonl = fleet.spans_jsonl();
    // Span count and round p99 are simulated-state — deterministic.
    std::size_t span_count = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      span_count += fleet.device(i).platform().machine().obs().spans().size();
    }
    const obs::Histogram* rounds =
        fleet.metrics().find_histogram("span.attest-round.cycles");
    std::printf("spans: %zu spans, round p50=%llu p99=%llu cycles\n", span_count,
                static_cast<unsigned long long>(rounds != nullptr ? rounds->p50() : 0),
                static_cast<unsigned long long>(rounds != nullptr ? rounds->p99() : 0));
  }
  if (metrics) {
    std::printf("\n--- fleet metrics ---\n");
    fleet.metrics().visit_counters(
        [](const std::string& name, const obs::Counter& counter) {
          std::printf("  %-32s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(counter.value()));
        });
  }

  // Host-side timing — stderr, so stdout stays thread-count-invariant.
  std::fprintf(stderr,
               "timing: boot=%.3fs run=%.3fs attest=%.3fs total=%.3fs "
               "(%.1f devices/sec, %.1f attests/sec, %zu threads)\n",
               result.boot_seconds, result.run_seconds, result.attest_seconds,
               result.total_seconds, result.devices_per_sec(),
               result.attests_per_sec(), fleet.config().threads);

  if (!json_path.empty()) {
    write_json(json_path, fleet, config, result);
  }
  if (!telemetry_path.empty()) {
    std::ofstream out(telemetry_path);
    if (!out) {
      std::fprintf(stderr, "tytan-fleet: cannot write '%s'\n",
                   telemetry_path.c_str());
      return 1;
    }
    out << fleet.telemetry().to_jsonl();
  }
  if (!spans_path.empty()) {
    std::ofstream out(spans_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "tytan-fleet: cannot write '%s'\n", spans_path.c_str());
      return 1;
    }
    out << spans_jsonl;
  }
  return result.all_verified() ? 0 : 1;
}
