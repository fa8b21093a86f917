// Trace and metrics exporters.
//
// Chrome trace-event JSON (the "JSON Array Format" understood by Perfetto and
// chrome://tracing): one metadata/slice/instant object per line so the
// minimal reader in obs/trace_reader.h can re-parse it without a JSON
// library.  Timestamps are microseconds at the paper's 48 MHz clock; the raw
// cycle values ride along in `args` so no precision is lost.
//
// Layout in the trace viewer: pid 1 is the platform; tid 1 is the "platform"
// track (boot, scheduler, idle attribution); each task gets tid = handle + 2
// named after the task.  Run slices ("X") are derived from the
// dispatch/irq-enter/destroy event sequence; every raw event also appears as
// an instant ("i") on its task's track carrying {cycle, task, a, b}.
#pragma once

#include <string>

#include "common/status.h"
#include "obs/accounting.h"
#include "obs/event_bus.h"
#include "obs/hub.h"
#include "obs/span.h"

namespace tytan::obs {

/// Microseconds at the modeled 48 MHz clock (sim::kClockHz).
inline double cycles_to_us(std::uint64_t cycles) {
  return static_cast<double>(cycles) / 48.0;
}

/// Trace-viewer tid for a task handle (tid 1 = platform track).
inline int trace_tid(std::int32_t task) { return task >= 0 ? task + 2 : 1; }

/// Serialize the bus contents as Chrome trace-event JSON.  A metadata line
/// carries the bus's dropped-event count so readers can flag eviction.  When
/// a span recorder is supplied, every span appears as an async "b"/"e" pair
/// keyed by its trace id, so rounds render as nested timelines in Perfetto.
[[nodiscard]] std::string export_chrome_trace(const EventBus& bus,
                                              const SpanRecorder* spans = nullptr);

/// Write export_chrome_trace(bus, spans) to `path`.
Status write_chrome_trace(const std::string& path, const EventBus& bus,
                          const SpanRecorder* spans = nullptr);

/// Plain-text timeline, one event per line:
///   "cycle 123456  [t0] sched-dispatch a=0 b=3"
[[nodiscard]] std::string export_timeline(const EventBus& bus);

/// Per-task accounting table + metrics summary (for --metrics).
[[nodiscard]] std::string format_accounting(const TaskAccounting& accounting,
                                            const EventBus& bus);
[[nodiscard]] std::string export_metrics_summary(const Hub& hub);

}  // namespace tytan::obs
