// Minimal reader for the Chrome trace-event JSON written by obs/export.h.
//
// Not a general JSON parser: it relies on the writer's one-object-per-line
// layout and fixed key order inside `args`.  Good enough for the tytan-trace
// CLI and for round-trip tests; real analysis UIs (Perfetto) consume the file
// directly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace tytan::obs {

struct TraceInstant {
  std::string name;        ///< event kind name ("ctx-save", ...)
  std::uint64_t cycle = 0;
  std::int32_t task = -1;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

struct TraceSlice {
  int tid = 0;
  std::uint64_t cycle = 0;       ///< start cycle
  std::uint64_t dur_cycles = 0;
};

struct Trace {
  std::vector<TraceInstant> events;       ///< instants in file order
  std::vector<TraceSlice> slices;         ///< derived run slices
  std::map<int, std::string> thread_names;  ///< tid -> display name
  std::uint64_t recorded_events = 0;      ///< bus ring size at export
  std::uint64_t dropped_events = 0;       ///< bus evictions before export
};

/// Parse a trace previously produced by export_chrome_trace().
Result<Trace> parse_chrome_trace(std::string_view text);

/// Read + parse a trace file.
Result<Trace> read_chrome_trace_file(const std::string& path);

}  // namespace tytan::obs
