#include "obs/trace_reader.h"

#include <cstdio>

#include "common/json.h"
#include "obs/export.h"

namespace tytan::obs {

namespace {

constexpr std::string_view kHead = R"({"displayTimeUnit":"ms","traceEvents":[)";
constexpr std::string_view kTail = "]}";

/// A trace timestamp: microseconds at 48 MHz, four decimals.
std::string us(std::uint64_t cycles) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", cycles_to_us(cycles));
  return buf;
}

// One walk per record type: the key lists of the trace file.

void walk_process(json::Io& io) {
  io.tag("ph", "M");
  io.derived("pid", 1);
  io.tag("name", "process_name");
  io.object("args", [](json::Io& args) { args.tag("name", "tytan"); });
}

void walk_bus(json::Io& io, std::uint64_t& recorded, std::uint64_t& dropped) {
  io.tag("ph", "M");
  io.derived("pid", 1);
  io.tag("name", "tytan_event_bus");
  io.object("args", [&](json::Io& args) {
    args.u64("recorded", recorded);
    args.u64("dropped", dropped);
  });
}

void walk_thread(json::Io& io, std::int32_t& tid, std::string& name) {
  io.tag("ph", "M");
  io.derived("pid", 1);
  io.i32("tid", tid);
  io.tag("name", "thread_name");
  io.object("args", [&](json::Io& args) { args.str("name", name); });
}

void walk_slice(json::Io& io, TraceSlice& slice) {
  io.tag("ph", "X");
  io.derived("pid", 1);
  io.i32("tid", slice.tid);
  io.str("name", slice.name);
  io.tag("cat", "run");
  io.derived("ts", us(slice.cycle));
  io.derived("dur", us(slice.dur_cycles));
  io.object("args", [&](json::Io& args) {
    args.u64("cycle", slice.cycle);
    args.u64("dur_cycles", slice.dur_cycles);
  });
}

void walk_instant(json::Io& io, Event& event) {
  io.tag("ph", "i");
  io.derived("pid", 1);
  io.derived("tid", trace_tid(event.task));
  io.name("name", event.kind, kNumEventKinds, kind_name);
  io.tag("cat", "event");
  io.tag("s", "t");
  io.derived("ts", us(event.cycle));
  io.object("args", [&](json::Io& args) {
    args.u64("cycle", event.cycle);
    args.i32("task", event.task);
    args.u32("a", event.a);
    args.u32("b", event.b);
  });
}

/// A span's "b" (begin) or "e" (end) record; the task rides in the tid.
void walk_span_mark(json::Io& io, Span& span, bool end) {
  io.tag("ph", end ? "e" : "b");
  io.tag("cat", "span");
  io.u64("id", span.trace_id);
  io.derived("pid", 1);
  std::int32_t tid = trace_tid(span.task);
  io.i32("tid", tid);
  span.task = tid >= 2 ? tid - 2 : -1;
  io.name("name", span.phase, kNumSpanPhases, span_phase_name);
  io.derived("ts", us(end ? span.end_cycle : span.begin_cycle));
  io.object("args", [&](json::Io& args) {
    if (end) {
      args.u64("cycle", span.end_cycle);
      args.name("outcome", span.outcome, kNumSpanOutcomes, span_outcome_name);
    } else {
      args.u64("cycle", span.begin_cycle);
      args.u32("span", span.span_id);
      args.u32("parent", span.parent_id);
    }
  });
}

/// Read one record line (without its trailing comma) into `trace`.
bool read_record(std::string_view line, Trace& trace) {
  const std::string ph = json::find_str(line, "ph");
  const std::string name = json::find_str(line, "name");
  if (ph == "M" && name == "process_name") {
    return json::read_object(line, walk_process);
  }
  if (ph == "M" && name == "tytan_event_bus") {
    return json::read_object(line, walk_bus, trace.recorded_events, trace.dropped_events);
  }
  if (ph == "M" && name == "thread_name") {
    std::int32_t tid = 0;
    std::string thread;
    const bool ok = json::read_object(line, walk_thread, tid, thread);
    trace.thread_names[tid] = std::move(thread);
    return ok;
  }
  if (ph == "X") {
    return json::read_object(line, walk_slice, trace.slices.emplace_back());
  }
  if (ph == "i") {
    // Traces from tytan-tools 9 and earlier may carry sampling-profiler
    // "prof-sample" instants; they are not bus events, so skip them.
    return name == "prof-sample" ||
           json::read_object(line, walk_instant, trace.events.emplace_back());
  }
  if (ph == "b") {
    return json::read_object(line, walk_span_mark, trace.spans.emplace_back(), false);
  }
  // An "e" closes the span its "b" opened on the line before.
  return ph == "e" && !trace.spans.empty() &&
         json::read_object(line, walk_span_mark, trace.spans.back(), true);
}

}  // namespace

std::string chrome_trace_json(const Trace& trace) {
  std::string out(kHead);
  out += '\n';
  bool first = true;
  const auto record = [&](const auto& walk, auto&&... fields) {
    out += first ? "" : ",\n";
    first = false;
    json::write_object(out, walk, fields...);
  };
  record(walk_process);
  std::uint64_t recorded = trace.recorded_events;
  std::uint64_t dropped = trace.dropped_events;
  record(walk_bus, recorded, dropped);
  for (std::pair<std::int32_t, std::string> thread : trace.thread_names) {
    record(walk_thread, thread.first, thread.second);
  }
  for (TraceSlice slice : trace.slices) {
    record(walk_slice, slice);
  }
  for (Event event : trace.events) {
    record(walk_instant, event);
  }
  for (Span span : trace.spans) {
    record(walk_span_mark, span, false);
    record(walk_span_mark, span, true);
  }
  out += '\n';
  out += kTail;
  out += '\n';
  return out;
}

Result<Trace> parse_chrome_trace(std::string_view text) {
  json::Lines lines(text);
  std::string_view line;
  if (!lines.next(line) || line != kHead) {
    return make_error(Err::kCorrupt, "not a Chrome trace-event file");
  }
  Trace trace;
  bool closed = false;
  while (lines.next(line)) {
    if (!closed && line == kTail) {
      closed = true;
      continue;
    }
    if (line.back() == ',') {
      line.remove_suffix(1);
    }
    if (closed || !read_record(line, trace)) {
      return lines.corrupt("trace");
    }
  }
  if (!closed) {
    return lines.corrupt("trace");  // cut short before its closing ]}
  }
  return trace;
}

}  // namespace tytan::obs
