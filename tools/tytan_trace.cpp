// tytan-trace — inspect a Chrome/Perfetto trace written by
// `tytan-run --trace-out=FILE` (or obs::write_chrome_trace), or an
// attestation span file written by `--spans-out=FILE`.
//
//   tytan-trace stats  FILE [--json]     event counts per kind, cycle range,
//                                        context-switch cost summary (Table 2);
//                                        --json emits a machine-readable object
//   tytan-trace tasks  FILE              per-task run time from the derived
//                                        run slices
//   tytan-trace events FILE [filters]    dump events as a timeline
//     --kind=NAME     only events of this kind ("ctx-save", "sched-dispatch", ...)
//     --task=N        only events concerning task handle N
//     --limit=N       stop after N lines
//   tytan-trace spans  FILE [filters]    list attestation spans
//     --device=N --phase=NAME --outcome=NAME --min-cycles=N --limit=N --json
//   tytan-trace slo    FILE --p99-cycles=N
//                                        gate on the p99 attest-round
//                                        round-trip; exit 1 on breach
//   tytan-trace critpath FILE [--trace=N]
//                                        per-trace critical-path breakdown
//                                        into typed phases
//   tytan-trace replay SNAP [SNAP...] --to-cycle=N [--trace=K]
//                                        time-travel replay: restore the
//                                        nearest snapshot at or before cycle
//                                        N (tytan-run --snapshot-out) and
//                                        re-execute deterministically to N;
//                                        prints a state digest, and with
//                                        --trace=K the last K instructions
//
// Except for `replay`, everything here is computed from the trace file alone
// — no live platform — so the numbers double as a check that the exporter
// loses nothing.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/trace_reader.h"
#include "snap/snapshot.h"
#include "tool_util.h"

using namespace tytan;

namespace {

constexpr const char kUsageText[] =
    "usage: tytan-trace stats  <trace.json> [--json]\n"
    "       tytan-trace tasks  <trace.json>\n"
    "       tytan-trace events <trace.json> [--kind=NAME] [--task=N] "
    "[--limit=N]\n"
    "       tytan-trace spans  <spans.jsonl> [--device=N] [--phase=NAME]\n"
    "                          [--outcome=NAME] [--min-cycles=N] [--limit=N]"
    " [--json]\n"
    "       tytan-trace slo    <spans.jsonl> --p99-cycles=N\n"
    "       tytan-trace critpath <spans.jsonl> [--trace=N]\n"
    "       tytan-trace replay <snap.tysn> [more.tysn ...] --to-cycle=N"
    " [--trace=K]\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return 2;
}

std::string task_label(const obs::Trace& trace, std::int32_t task) {
  const auto it = trace.thread_names.find(obs::trace_tid(task));
  if (it != trace.thread_names.end()) {
    return it->second;
  }
  return task >= 0 ? "task " + std::to_string(task) : "platform";
}

/// Mean of the `a` payload over events matching kind + predicate on `b`.
struct CycleStat {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

int cmd_stats_json(const obs::Trace& trace) {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::map<std::string, std::uint64_t> by_kind;
  if (!trace.events.empty()) {
    first = last = trace.events.front().cycle;
  }
  for (const obs::TraceInstant& ev : trace.events) {
    first = std::min(first, ev.cycle);
    last = std::max(last, ev.cycle);
    ++by_kind[ev.name];
  }
  std::printf("{\n");
  std::printf("  \"events\": %zu,\n", trace.events.size());
  std::printf("  \"slices\": %zu,\n", trace.slices.size());
  std::printf("  \"recorded_events\": %llu,\n",
              static_cast<unsigned long long>(trace.recorded_events));
  std::printf("  \"dropped_events\": %llu,\n",
              static_cast<unsigned long long>(trace.dropped_events));
  std::printf("  \"first_cycle\": %llu,\n", static_cast<unsigned long long>(first));
  std::printf("  \"last_cycle\": %llu,\n", static_cast<unsigned long long>(last));
  std::printf("  \"kinds\": {");
  bool comma = false;
  for (const auto& [kind, count] : by_kind) {
    std::printf("%s\"%s\": %llu", comma ? ", " : "", kind.c_str(),
                static_cast<unsigned long long>(count));
    comma = true;
  }
  std::printf("}\n}\n");
  return 0;
}

int cmd_stats(const obs::Trace& trace) {
  if (trace.events.empty()) {
    std::fprintf(stderr,
                 "tytan-trace: trace has no events (empty or truncated file)\n");
    return 1;
  }
  std::uint64_t first = trace.events.front().cycle;
  std::uint64_t last = first;
  std::map<std::string, std::uint64_t> by_kind;
  CycleStat save_secure;
  CycleStat save_normal;
  CycleStat wipe;
  CycleStat restore_secure;
  for (const obs::TraceInstant& ev : trace.events) {
    first = std::min(first, ev.cycle);
    last = std::max(last, ev.cycle);
    ++by_kind[ev.name];
    if (ev.name == "ctx-save") {
      (ev.b != 0 ? save_secure : save_normal).count += 1;
      (ev.b != 0 ? save_secure : save_normal).sum += ev.a;
    } else if (ev.name == "ctx-wipe") {
      wipe.count += 1;
      wipe.sum += ev.a;
    } else if (ev.name == "ctx-restore" && ev.b == 0) {
      restore_secure.count += 1;
      restore_secure.sum += ev.a;
    }
  }
  std::printf("%zu events, cycles %llu..%llu (%.1f us at 48 MHz)\n",
              trace.events.size(), static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(last),
              obs::cycles_to_us(last - first));
  if (trace.dropped_events != 0) {
    std::printf("WARNING: %llu events were evicted from the ring before export "
                "— counts below undercount the run\n",
                static_cast<unsigned long long>(trace.dropped_events));
  }
  std::printf("\n");
  std::printf("%-16s %8s\n", "kind", "count");
  for (const auto& [kind, count] : by_kind) {
    std::printf("%-16s %8llu\n", kind.c_str(), static_cast<unsigned long long>(count));
  }
  if (save_secure.count != 0 || save_normal.count != 0) {
    std::printf("\ncontext save (Table 2):\n");
    if (save_secure.count != 0) {
      std::printf("  secure:  %llu saves, avg %.1f cycles (wipe avg %.1f)\n",
                  static_cast<unsigned long long>(save_secure.count),
                  save_secure.mean(), wipe.mean());
    }
    if (save_normal.count != 0) {
      std::printf("  normal:  %llu saves, avg %.1f cycles\n",
                  static_cast<unsigned long long>(save_normal.count),
                  save_normal.mean());
    }
    if (restore_secure.count != 0) {
      std::printf("  secure resume: %llu, avg %.1f cycles (Table 3)\n",
                  static_cast<unsigned long long>(restore_secure.count),
                  restore_secure.mean());
    }
  }
  return 0;
}

int cmd_tasks(const obs::Trace& trace) {
  struct Row {
    std::uint64_t slices = 0;
    std::uint64_t run_cycles = 0;
  };
  std::map<int, Row> rows;
  for (const obs::TraceSlice& slice : trace.slices) {
    Row& row = rows[slice.tid];
    ++row.slices;
    row.run_cycles += slice.dur_cycles;
  }
  std::printf("%-20s %8s %13s %12s\n", "task", "slices", "run cycles", "run us");
  for (const auto& [tid, row] : rows) {
    const auto it = trace.thread_names.find(tid);
    const std::string name =
        it != trace.thread_names.end() ? it->second : "tid " + std::to_string(tid);
    std::printf("%-20s %8llu %13llu %12.1f\n", name.c_str(),
                static_cast<unsigned long long>(row.slices),
                static_cast<unsigned long long>(row.run_cycles),
                obs::cycles_to_us(row.run_cycles));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Span-file commands (`tytan-run --spans-out` / `tytan-fleet --spans-out`)
// ---------------------------------------------------------------------------

struct SpanFilter {
  std::uint32_t device = 0;
  bool have_device = false;
  std::string phase;
  std::string outcome;
  std::uint64_t min_cycles = 0;
  std::uint64_t limit = 0;
};

bool span_matches(const obs::ParsedSpan& span, const SpanFilter& filter) {
  if (filter.have_device && span.device != filter.device) {
    return false;
  }
  if (!filter.phase.empty() && span.phase != filter.phase) {
    return false;
  }
  if (!filter.outcome.empty() && span.outcome != filter.outcome) {
    return false;
  }
  return span.cycles >= filter.min_cycles;
}

std::string notes_label(const obs::ParsedSpan& span) {
  std::string out;
  for (const std::string& kind : span.note_kinds) {
    if (!out.empty()) {
      out += ',';
    }
    out += kind;
  }
  return out;
}

int cmd_spans(const obs::SpanLog& log, const SpanFilter& filter, bool json) {
  std::uint64_t printed = 0;
  if (!json) {
    std::printf("%-6s %-10s %-6s %-6s %-17s %5s %12s %-8s %s\n", "device",
                "trace", "span", "parent", "phase", "task", "cycles", "outcome",
                "notes");
  }
  for (const obs::ParsedSpan& span : log.spans) {
    if (!span_matches(span, filter)) {
      continue;
    }
    if (json) {
      std::printf("{\"device\": %u, \"trace\": %llu, \"span\": %u, "
                  "\"parent\": %u, \"phase\": \"%s\", \"task\": %d, "
                  "\"cycles\": %llu, \"outcome\": \"%s\", \"notes\": \"%s\"}\n",
                  span.device, static_cast<unsigned long long>(span.trace),
                  span.span, span.parent, span.phase.c_str(), span.task,
                  static_cast<unsigned long long>(span.cycles),
                  span.outcome.c_str(), notes_label(span).c_str());
    } else {
      std::printf("%-6u %-10llu %-6u %-6u %-17s %5d %12llu %-8s %s\n",
                  span.device, static_cast<unsigned long long>(span.trace),
                  span.span, span.parent, span.phase.c_str(), span.task,
                  static_cast<unsigned long long>(span.cycles),
                  span.outcome.c_str(), notes_label(span).c_str());
    }
    if (filter.limit != 0 && ++printed >= filter.limit) {
      break;
    }
  }
  return 0;
}

/// Nearest-rank percentile over a sorted cycle list.
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, unsigned pct) {
  if (sorted.empty()) {
    return 0;
  }
  const std::size_t rank = (sorted.size() * pct + 99) / 100;
  return sorted[rank == 0 ? 0 : rank - 1];
}

int cmd_slo(const obs::SpanLog& log, std::uint64_t p99_cycles) {
  std::vector<std::uint64_t> rounds;
  for (const obs::ParsedSpan& span : log.spans) {
    if (span.phase == "attest-round") {
      rounds.push_back(span.cycles);
    }
  }
  if (rounds.empty()) {
    std::fprintf(stderr, "tytan-trace: no attest-round spans to gate on\n");
    return 1;
  }
  std::sort(rounds.begin(), rounds.end());
  const std::uint64_t p50 = percentile(rounds, 50);
  const std::uint64_t p99 = percentile(rounds, 99);
  const bool breach = p99 > p99_cycles;
  std::printf("%zu attest rounds: p50 %llu cycles, p99 %llu cycles "
              "(budget %llu) — %s\n",
              rounds.size(), static_cast<unsigned long long>(p50),
              static_cast<unsigned long long>(p99),
              static_cast<unsigned long long>(p99_cycles),
              breach ? "SLO BREACH" : "ok");
  return breach ? 1 : 0;
}

int cmd_critpath(const obs::SpanLog& log, std::uint64_t trace_filter,
                 bool have_trace) {
  struct TraceRow {
    std::uint32_t device = 0;
    std::uint64_t total = 0;  ///< root attest-round round-trip
    std::string outcome;
    std::map<std::string, std::uint64_t> by_phase;  ///< child phases only
  };
  std::map<std::uint64_t, TraceRow> traces;
  for (const obs::ParsedSpan& span : log.spans) {
    if (span.trace == 0 || (have_trace && span.trace != trace_filter)) {
      continue;  // trace 0: parentless spans (e.g. rtm-measure at load)
    }
    TraceRow& row = traces[span.trace];
    if (span.phase == "attest-round") {
      row.device = span.device;
      row.total = span.cycles;
      row.outcome = span.outcome;
    } else {
      row.by_phase[span.phase] += span.cycles;
    }
  }
  if (traces.empty()) {
    std::fprintf(stderr, "tytan-trace: no matching attestation traces\n");
    return 1;
  }
  for (const auto& [trace_id, row] : traces) {
    std::printf("trace %llu  device %u  %llu cycles round-trip  [%s]\n",
                static_cast<unsigned long long>(trace_id), row.device,
                static_cast<unsigned long long>(row.total), row.outcome.c_str());
    std::uint64_t attributed = 0;
    for (const auto& [phase, cycles] : row.by_phase) {
      attributed += cycles;
      const double pct = row.total == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(cycles) /
                                   static_cast<double>(row.total);
      std::printf("  %-17s %12llu cycles  %5.1f%%\n", phase.c_str(),
                  static_cast<unsigned long long>(cycles), pct);
    }
    if (row.total > attributed) {
      const std::uint64_t other = row.total - attributed;
      std::printf("  %-17s %12llu cycles  %5.1f%%\n", "(unattributed)",
                  static_cast<unsigned long long>(other),
                  100.0 * static_cast<double>(other) /
                      static_cast<double>(row.total));
    }
  }
  return 0;
}

int cmd_events(const obs::Trace& trace, const std::string& kind, std::int32_t task,
               bool have_task, std::uint64_t limit) {
  std::uint64_t printed = 0;
  for (const obs::TraceInstant& ev : trace.events) {
    if (!kind.empty() && ev.name != kind) {
      continue;
    }
    if (have_task && ev.task != task) {
      continue;
    }
    std::printf("cycle %10llu  [%s] %s a=%u b=%u\n",
                static_cast<unsigned long long>(ev.cycle),
                task_label(trace, ev.task).c_str(), ev.name.c_str(), ev.a, ev.b);
    if (limit != 0 && ++printed >= limit) {
      break;
    }
  }
  return 0;
}

/// Time-travel replay: pick the snapshot with the largest recorded cycle not
/// past --to-cycle, rebuild a compatible platform from its CONF section,
/// restore, and re-execute deterministically up to the target cycle.
int cmd_replay(const std::vector<std::string>& paths, std::uint64_t to_cycle,
               std::uint64_t trace_tail) {
  std::optional<snap::Snapshot> best;
  std::string best_path;
  std::uint64_t best_cycle = 0;
  for (const std::string& snap_path : paths) {
    auto snapshot = snap::Snapshot::read_file(snap_path);
    if (!snapshot.is_ok()) {
      std::fprintf(stderr, "tytan-trace: %s: %s\n", snap_path.c_str(),
                   snapshot.status().to_string().c_str());
      return 1;
    }
    auto cycle = core::Platform::snapshot_cycle(*snapshot);
    if (!cycle.is_ok()) {
      std::fprintf(stderr, "tytan-trace: %s: %s\n", snap_path.c_str(),
                   cycle.status().to_string().c_str());
      return 1;
    }
    if (*cycle <= to_cycle && (!best.has_value() || *cycle >= best_cycle)) {
      best = snapshot.take();
      best_path = snap_path;
      best_cycle = *cycle;
    }
  }
  if (!best.has_value()) {
    std::fprintf(stderr,
                 "tytan-trace: no snapshot at or before cycle %llu (replay "
                 "cannot run backwards from a later snapshot)\n",
                 static_cast<unsigned long long>(to_cycle));
    return 1;
  }

  auto config = core::Platform::config_from_snapshot(*best);
  if (!config.is_ok()) {
    std::fprintf(stderr, "tytan-trace: %s: %s\n", best_path.c_str(),
                 config.status().to_string().c_str());
    return 1;
  }
  core::Platform platform(*config);
  if (Status s = platform.restore(*best); !s.is_ok()) {
    std::fprintf(stderr, "tytan-trace: %s: %s\n", best_path.c_str(),
                 s.to_string().c_str());
    return 1;
  }
  if (trace_tail != 0) {
    platform.machine().enable_trace(static_cast<std::size_t>(trace_tail));
  }
  std::printf("replaying %s from cycle %llu to cycle %llu\n", best_path.c_str(),
              static_cast<unsigned long long>(best_cycle),
              static_cast<unsigned long long>(to_cycle));
  if (to_cycle > platform.machine().cycles()) {
    platform.run_for(to_cycle - platform.machine().cycles());
  }
  std::printf("replayed to cycle %llu (%llu instructions executed)\n",
              static_cast<unsigned long long>(platform.machine().cycles()),
              static_cast<unsigned long long>(platform.machine().instructions_executed()));
  if (trace_tail != 0 && platform.machine().tracer() != nullptr) {
    std::fputs(platform.machine().tracer()->format().c_str(), stdout);
  }
  if (!platform.serial().output().empty()) {
    std::printf("--- serial ---\n%s\n--------------\n",
                platform.serial().output().c_str());
  }
  auto state = platform.save();
  if (state.is_ok()) {
    const ByteVec bytes = state->serialize();
    std::printf("state-digest: %016llx\n",
                static_cast<unsigned long long>(snap::fnv1a64(bytes)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::handle_version_help("tytan-trace", argc, argv, kUsageText);
  if (argc < 3) {
    return usage();
  }
  const std::string command = argv[1];
  const std::string path = argv[2];

  std::string kind;
  std::int32_t task = -1;
  bool have_task = false;
  bool json = false;
  std::uint64_t limit = 0;
  SpanFilter filter;
  std::uint64_t p99_cycles = 0;
  bool have_p99 = false;
  std::uint64_t trace_filter = 0;
  bool have_trace_filter = false;
  std::uint64_t to_cycle = 0;
  bool have_to_cycle = false;
  std::vector<std::string> snapshot_paths = {path};
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--kind=", 0) == 0) {
      kind = arg.substr(std::strlen("--kind="));
    } else if (arg.rfind("--task=", 0) == 0) {
      task = static_cast<std::int32_t>(tools::parse_i64(
          "tytan-trace", "--task", arg.c_str() + std::strlen("--task=")));
      have_task = true;
    } else if (arg.rfind("--limit=", 0) == 0) {
      limit = tools::parse_u64("tytan-trace", "--limit",
                               arg.c_str() + std::strlen("--limit="));
      filter.limit = limit;
    } else if (arg.rfind("--device=", 0) == 0) {
      filter.device = tools::parse_u32("tytan-trace", "--device",
                                       arg.c_str() + std::strlen("--device="));
      filter.have_device = true;
    } else if (arg.rfind("--phase=", 0) == 0) {
      filter.phase = arg.substr(std::strlen("--phase="));
    } else if (arg.rfind("--outcome=", 0) == 0) {
      filter.outcome = arg.substr(std::strlen("--outcome="));
    } else if (arg.rfind("--min-cycles=", 0) == 0) {
      filter.min_cycles = tools::parse_u64(
          "tytan-trace", "--min-cycles", arg.c_str() + std::strlen("--min-cycles="));
    } else if (arg.rfind("--p99-cycles=", 0) == 0) {
      p99_cycles = tools::parse_u64(
          "tytan-trace", "--p99-cycles", arg.c_str() + std::strlen("--p99-cycles="));
      have_p99 = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_filter = tools::parse_u64("tytan-trace", "--trace",
                                      arg.c_str() + std::strlen("--trace="));
      have_trace_filter = true;
    } else if (arg.rfind("--to-cycle=", 0) == 0) {
      to_cycle = tools::parse_u64("tytan-trace", "--to-cycle",
                                  arg.c_str() + std::strlen("--to-cycle="));
      have_to_cycle = true;
    } else if (command == "replay" && !arg.empty() && arg[0] != '-') {
      snapshot_paths.push_back(arg);
    } else {
      return usage();
    }
  }

  if (command == "replay") {
    if (!have_to_cycle) {
      std::fprintf(stderr, "tytan-trace: replay needs --to-cycle=N\n");
      return 2;
    }
    return cmd_replay(snapshot_paths, to_cycle,
                      have_trace_filter ? trace_filter : 0);
  }

  if (command == "spans" || command == "slo" || command == "critpath") {
    auto log = obs::read_spans_file(path);
    if (!log.is_ok()) {
      std::fprintf(stderr, "tytan-trace: %s: %s\n", path.c_str(),
                   log.status().to_string().c_str());
      return 1;
    }
    if (log->spans.empty()) {
      std::fprintf(stderr,
                   "tytan-trace: %s: no span records (empty or truncated span "
                   "file)\n",
                   path.c_str());
      return 1;
    }
    if (command == "spans") {
      return cmd_spans(*log, filter, json);
    }
    if (command == "slo") {
      if (!have_p99) {
        std::fprintf(stderr, "tytan-trace: slo needs --p99-cycles=N\n");
        return 2;
      }
      return cmd_slo(*log, p99_cycles);
    }
    return cmd_critpath(*log, trace_filter, have_trace_filter);
  }

  auto trace = obs::read_chrome_trace_file(path);
  if (!trace.is_ok()) {
    std::fprintf(stderr, "tytan-trace: %s: %s\n", path.c_str(),
                 trace.status().to_string().c_str());
    return 1;
  }
  if (command == "stats") {
    return json ? cmd_stats_json(*trace) : cmd_stats(*trace);
  }
  if (command == "tasks") {
    return cmd_tasks(*trace);
  }
  if (command == "events") {
    return cmd_events(*trace, kind, task, have_task, limit);
  }
  return usage();
}
