// The Chrome trace-event file written by obs/export.h, as a value: the
// Trace model, its writer and its reader.
//
// The file is the "JSON Array Format" Perfetto and chrome://tracing load,
// laid out one record per line between a fixed head and a closing `]}`.
// Each record type — the "M" metadata lines (process name, event-bus
// counts, thread names), "X" run slices, "i" event instants and the "b"/"e"
// async span pairs — has one field walk (trace_reader.cc) that
// chrome_trace_json() and parse_chrome_trace() both run, so a parsed trace
// re-serializes to the bytes it was read from.  The reader returns the
// writers' own types (Event, Span); a line that is not one complete record
// of a known type is kCorrupt with its line number, except the
// sampling-profiler "prof-sample" instants of tytan-tools 9 and earlier,
// which are skipped.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/events.h"
#include "obs/span.h"

namespace tytan::obs {

/// A derived run slice ("X"): a task's track from dispatch to switch-out.
struct TraceSlice {
  int tid = 0;
  std::string name;              ///< the task's label
  std::uint64_t cycle = 0;       ///< start cycle
  std::uint64_t dur_cycles = 0;
};

struct Trace {
  std::uint64_t recorded_events = 0;        ///< bus ring size at export
  std::uint64_t dropped_events = 0;         ///< bus evictions before export
  std::map<int, std::string> thread_names;  ///< tid -> display name
  std::vector<TraceSlice> slices;           ///< derived run slices
  std::vector<Event> events;                ///< instants in file order
  /// Async span pairs: ids, phase, task, cycles and outcome (no notes).
  std::vector<Span> spans;
};

/// Serialize `trace` as Chrome trace-event JSON.
[[nodiscard]] std::string chrome_trace_json(const Trace& trace);

/// Parse a trace previously produced by chrome_trace_json().
Result<Trace> parse_chrome_trace(std::string_view text);

}  // namespace tytan::obs
