// tytan-top — fleet health at a glance, from a telemetry JSONL stream
// written by `tytan-fleet --telemetry-out=FILE`.
//
//   tytan-top FILE [--anomalies] [--spans FILE] [--heat FILE]
//             [--watch [SECONDS]]
//     --anomalies     list every anomaly record (default: summary count)
//     --spans FILE    also read a span file (tytan-fleet --spans-out) and
//                     append a per-phase p50/p95/p99 cycle table
//     --heat FILE     also read a heat profile (tytan-run --heat-out) and
//                     append hot-block / dispatch / MPU-check tables
//     --watch [S]     re-read and re-render the file every S seconds
//                     (default 2) — live view of a fleet writing telemetry
//
// The table shows the latest snapshot per device; rates are computed from
// the first and last snapshot of each device.  Reads the file only — never
// attaches to a live platform.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/heat.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "tool_util.h"

using namespace tytan;

namespace {

constexpr const char kUsageText[] =
    "usage: tytan-top <telemetry.jsonl> [--anomalies] [--spans FILE]"
    " [--heat FILE] [--watch [SECONDS]]\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return 2;
}

struct DeviceRow {
  obs::HealthSnapshot first{};
  obs::HealthSnapshot last{};
  std::uint64_t snapshots = 0;
  std::uint64_t anomalies = 0;
};

/// Per-phase span latency table from a `--spans FILE` span log.
int render_spans(const std::string& path) {
  auto spans = json::read_file(path, obs::parse_spans_jsonl);
  if (!spans.is_ok()) {
    std::fprintf(stderr, "tytan-top: %s: %s\n", path.c_str(),
                 spans.status().to_string().c_str());
    return 1;
  }
  if (spans->empty()) {
    std::fprintf(stderr,
                 "tytan-top: %s: no span records (empty or truncated span "
                 "file)\n",
                 path.c_str());
    return 1;
  }
  std::map<std::string_view, std::vector<std::uint64_t>> by_phase;
  for (const obs::Span& span : *spans) {
    by_phase[obs::span_phase_name(span.phase)].push_back(span.cycles());
  }
  std::printf("\n%-17s %8s %12s %12s %12s\n", "phase", "spans", "p50 cyc",
              "p95 cyc", "p99 cyc");
  for (auto& [phase, cycles] : by_phase) {
    std::sort(cycles.begin(), cycles.end());
    std::printf("%-17s %8zu %12llu %12llu %12llu\n", std::string(phase).c_str(),
                cycles.size(),
                static_cast<unsigned long long>(tools::percentile(cycles, 50)),
                static_cast<unsigned long long>(tools::percentile(cycles, 95)),
                static_cast<unsigned long long>(tools::percentile(cycles, 99)));
  }
  return 0;
}

/// Hot-block / dispatch / MPU tables from a `--heat FILE` profile.
int render_heat(const std::string& path) {
  auto log = json::read_file(path, obs::parse_heat_jsonl);
  if (!log.is_ok()) {
    std::fprintf(stderr, "tytan-top: %s: %s\n", path.c_str(),
                 log.status().to_string().c_str());
    return 1;
  }
  const obs::HeatLog& heat = *log;
  const obs::HeatProfile& profile = heat.profile;
  const std::uint64_t total = profile.total_instructions();
  if (total == 0) {
    std::fprintf(stderr, "tytan-top: %s: heat profile records no execution\n",
                 path.c_str());
    return 1;
  }

  // Hot blocks, descending by executed instructions, until >= 90% covered.
  std::printf("\nhot blocks (%llu instructions, %zu blocks, %zu regions):\n",
              static_cast<unsigned long long>(total), profile.blocks.size(),
              profile.regions.size());
  std::printf("%-20s %-19s %12s %12s %6s %6s\n", "region", "block", "insns",
              "entries", "%", "cum%");
  std::uint64_t cumulative = 0;
  for (const auto& [start, block] : profile.hot_blocks()) {
    if (block.instructions == 0) {
      break;
    }
    cumulative += block.instructions;
    char range[32];
    std::snprintf(range, sizeof range, "%08x-%08x", start, block.end);
    std::printf("%-20s %-19s %12llu %12llu %5.1f%% %5.1f%%\n",
                std::string(profile.region_name(start)).c_str(), range,
                static_cast<unsigned long long>(block.instructions),
                static_cast<unsigned long long>(block.entries),
                100.0 * block.instructions / total, 100.0 * cumulative / total);
    if (cumulative * 10 >= total * 9) {
      break;
    }
  }

  // Dispatch histogram: top opcodes with host-ns attribution when sampled.
  struct OpRow {
    std::uint8_t op;
    obs::HeatProfile::OpcodeStat stat;
  };
  std::vector<OpRow> ops;
  for (std::size_t i = 0; i < profile.opcodes.size(); ++i) {
    if (profile.opcodes[i].count != 0) {
      ops.push_back({static_cast<std::uint8_t>(i), profile.opcodes[i]});
    }
  }
  std::sort(ops.begin(), ops.end(), [](const OpRow& a, const OpRow& b) {
    return a.stat.count != b.stat.count ? a.stat.count > b.stat.count : a.op < b.op;
  });
  std::printf("\ndispatch histogram (top %zu of %zu opcodes):\n",
              std::min<std::size_t>(ops.size(), 10), ops.size());
  std::printf("%-8s %14s %6s %14s\n", "opcode", "count", "%", "host ns/insn");
  for (std::size_t i = 0; i < ops.size() && i < 10; ++i) {
    char ns[24] = "-";
    if (ops[i].stat.ns_samples != 0) {
      std::snprintf(ns, sizeof ns, "%llu",
                    static_cast<unsigned long long>(ops[i].stat.ns_total /
                                                    ops[i].stat.ns_samples));
    }
    std::printf("%-8s %14llu %5.1f%% %14s\n",
                heat.opcode_name(ops[i].op).c_str(),
                static_cast<unsigned long long>(ops[i].stat.count),
                100.0 * ops[i].stat.count / total, ns);
  }

  // EA-MPU check counters split by deciding rule.
  if (const std::uint64_t checks = profile.total_checks(); checks != 0) {
    std::printf("\nEA-MPU checks (%llu total):\n",
                static_cast<unsigned long long>(checks));
    std::printf("%-16s %14s %14s %14s\n", "rule", "read", "write", "execute");
    for (std::size_t bucket = 0; bucket < obs::HeatProfile::kMpuBuckets; ++bucket) {
      std::uint64_t row_total = 0;
      for (std::size_t kind = 0; kind < obs::HeatProfile::kMpuAccessKinds; ++kind) {
        row_total += profile.mpu[kind][bucket];
      }
      if (row_total == 0) {
        continue;
      }
      std::printf("%-16s %14llu %14llu %14llu\n",
                  obs::HeatProfile::bucket_name(bucket).c_str(),
                  static_cast<unsigned long long>(profile.mpu[0][bucket]),
                  static_cast<unsigned long long>(profile.mpu[1][bucket]),
                  static_cast<unsigned long long>(profile.mpu[2][bucket]));
    }
  }

  if (!profile.edges.empty()) {
    std::printf("\nindirect branches: %zu distinct site->target edges\n",
                profile.edges.size());
  }
  return 0;
}

int render(const std::string& path, bool list_anomalies) {
  const auto text = json::read_text_file(path);
  if (!text.is_ok()) {
    std::fprintf(stderr, "tytan-top: %s\n", text.status().message().c_str());
    return 1;
  }
  auto log = obs::parse_telemetry_jsonl(*text);
  if (!log.is_ok()) {
    std::fprintf(stderr, "tytan-top: %s: %s\n", path.c_str(),
                 log.status().to_string().c_str());
    return 1;
  }
  if (log->snapshots.empty() && log->anomalies.empty()) {
    std::fprintf(stderr,
                 "tytan-top: %s: no telemetry records (empty or truncated "
                 "file)\n",
                 path.c_str());
    return 1;
  }

  std::map<std::uint32_t, DeviceRow> rows;
  for (const obs::HealthSnapshot& s : log->snapshots) {
    DeviceRow& row = rows[s.device];
    if (row.snapshots == 0) {
      row.first = s;
    }
    row.last = s;
    ++row.snapshots;
  }
  for (const auto& a : log->anomalies) {
    ++rows[a.device].anomalies;
  }

  std::printf("%-7s %5s %12s %8s %7s %6s %9s %7s %7s %4s %9s %9s %6s\n", "device",
              "snaps", "cycles", "sim ms", "instr/c", "faults", "ipc", "attest",
              "inj/rec", "wdog", "rnd p99", "anomalies", "state");
  for (const auto& [device, row] : rows) {
    const obs::HealthSnapshot& s = row.last;
    const double ipc_rate =
        s.cycle == 0 ? 0.0
                     : static_cast<double>(s.instructions) / static_cast<double>(s.cycle);
    // attest column: verified/total, the fleet's health headline.
    char attest[32];
    std::snprintf(attest, sizeof attest, "%llu/%llu",
                  static_cast<unsigned long long>(s.attest_verified),
                  static_cast<unsigned long long>(s.attest_total));
    // injection column: faults injected / recoveries paired with them.
    char injected[32];
    std::snprintf(injected, sizeof injected, "%llu/%llu",
                  static_cast<unsigned long long>(s.faults_injected),
                  static_cast<unsigned long long>(s.fault_recoveries));
    std::printf("%-7u %5llu %12llu %8.2f %7.3f %6llu %9llu %7s %7s %4llu %9llu %9llu %6s\n",
                device, static_cast<unsigned long long>(row.snapshots),
                static_cast<unsigned long long>(s.cycle),
                static_cast<double>(s.cycle) * 1000.0 / 48'000'000.0, ipc_rate,
                static_cast<unsigned long long>(s.faults),
                static_cast<unsigned long long>(s.ipc_delivered), attest, injected,
                static_cast<unsigned long long>(s.watchdog_restarts),
                static_cast<unsigned long long>(s.attest_round_p99),
                static_cast<unsigned long long>(row.anomalies),
                s.halted ? "HALT" : "run");
  }
  std::printf("fleet: %zu devices, %zu snapshots, %zu anomalies\n", rows.size(),
              log->snapshots.size(), log->anomalies.size());

  if (list_anomalies && !log->anomalies.empty()) {
    std::printf("\n%-7s %10s %-20s %-8s %s\n", "device", "cycle", "rule", "flight",
                "message");
    for (const auto& a : log->anomalies) {
      std::printf("%-7u %10llu %-20s %-8zu %s\n", a.device,
                  static_cast<unsigned long long>(a.cycle), a.rule.c_str(),
                  a.flight.size(), a.message.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::handle_version_help("tytan-top", argc, argv, kUsageText);
  if (argc < 2 || argv[1][0] == '-') {
    return usage();
  }
  const std::string path = argv[1];
  std::string spans_path;
  std::string heat_path;
  bool list_anomalies = false;
  bool watch = false;
  double watch_seconds = 2.0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--anomalies") {
      list_anomalies = true;
    } else if (arg == "--spans") {
      spans_path = tools::required_value("tytan-top", "--spans", argc, argv, &i);
    } else if (arg.rfind("--spans=", 0) == 0) {
      spans_path = arg.substr(std::strlen("--spans="));
    } else if (arg == "--heat") {
      heat_path = tools::required_value("tytan-top", "--heat", argc, argv, &i);
    } else if (arg.rfind("--heat=", 0) == 0) {
      heat_path = arg.substr(std::strlen("--heat="));
    } else if (arg == "--watch") {
      watch = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        watch_seconds = std::strtod(argv[++i], nullptr);
      }
    } else {
      return usage();
    }
  }

  if (!watch) {
    if (int rc = render(path, list_anomalies); rc != 0) {
      return rc;
    }
    if (!spans_path.empty()) {
      if (int rc = render_spans(spans_path); rc != 0) {
        return rc;
      }
    }
    return heat_path.empty() ? 0 : render_heat(heat_path);
  }
  for (;;) {
    std::printf("\x1b[2J\x1b[H");  // clear + home, terminal-top style
    if (int rc = render(path, list_anomalies); rc != 0) {
      return rc;
    }
    if (!spans_path.empty()) {
      if (int rc = render_spans(spans_path); rc != 0) {
        return rc;
      }
    }
    if (!heat_path.empty()) {
      if (int rc = render_heat(heat_path); rc != 0) {
        return rc;
      }
    }
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(watch_seconds));
  }
}
