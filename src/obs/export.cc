#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace_reader.h"

namespace tytan::obs {

namespace {

std::string task_label(const EventBus& bus, std::int32_t task) {
  if (task < 0) {
    return "platform";
  }
  const std::string_view name = bus.task_name(task);
  return name.empty() ? "task " + std::to_string(task) : std::string(name);
}

}  // namespace

std::string export_chrome_trace(const EventBus& bus, const SpanRecorder* spans) {
  Trace trace;
  trace.recorded_events = bus.size();
  trace.dropped_events = bus.dropped();
  trace.thread_names[trace_tid(-1)] = "platform";
  for (const auto& [task, name] : bus.task_names()) {
    trace.thread_names[trace_tid(task)] = name;
  }
  trace.events = bus.snapshot();

  // Run slices: a dispatch opens a slice on the task's track; the next
  // dispatch, irq entry, or destruction of that task closes it.
  std::int32_t open_task = -1;
  std::uint64_t open_cycle = 0;
  auto close_slice = [&](std::uint64_t end_cycle) {
    if (open_task >= 0 && end_cycle > open_cycle) {
      trace.slices.push_back({trace_tid(open_task), task_label(bus, open_task), open_cycle,
                              end_cycle - open_cycle});
    }
    open_task = -1;
  };
  for (const Event& event : trace.events) {
    switch (event.kind) {
      case EventKind::kSchedDispatch:
        close_slice(event.cycle);
        open_task = event.task;
        open_cycle = event.cycle;
        break;
      case EventKind::kIrqEnter:
        close_slice(event.cycle);
        break;
      case EventKind::kTaskDestroy:
        if (event.task == open_task) {
          close_slice(event.cycle);
        }
        break;
      default:
        break;
    }
  }
  if (!trace.events.empty()) {
    close_slice(trace.events.back().cycle);
  }

  if (spans != nullptr) {
    // Async begin/end pairs keyed by trace id, so every phase of a round
    // nests under the same async track.
    trace.spans = spans->spans();
  }
  return chrome_trace_json(trace);
}

Status write_chrome_trace(const std::string& path, const EventBus& bus,
                          const SpanRecorder* spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return make_error(Err::kUnavailable, "cannot open trace output '" + path + "'");
  }
  out << export_chrome_trace(bus, spans);
  if (!out.good()) {
    return make_error(Err::kInternal, "short write to '" + path + "'");
  }
  return Status::ok();
}

std::string format_accounting(const TaskAccounting& accounting, const EventBus& bus) {
  std::ostringstream os;
  os << "  task                    run cycles     irq cycles   faults\n";
  std::uint64_t total = accounting.platform_cycles();
  for (const auto& [task, cycles] : accounting.tasks()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %-20s %13llu  %13llu  %7llu\n",
                  task_label(bus, task).c_str(),
                  static_cast<unsigned long long>(cycles.run),
                  static_cast<unsigned long long>(cycles.irq),
                  static_cast<unsigned long long>(cycles.faults));
    os << buf;
    total += cycles.run + cycles.irq;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  %-20s %13llu\n  %-20s %13llu\n", "platform",
                static_cast<unsigned long long>(accounting.platform_cycles()), "total",
                static_cast<unsigned long long>(total));
  os << buf;
  return os.str();
}

std::string export_metrics_summary(const Hub& hub) {
  std::ostringstream os;
  os << "--- per-task cycle accounting ---\n"
     << format_accounting(hub.accounting(), hub.bus()) << "--- event bus ---\n"
     << "  events recorded       " << hub.bus().size() << "\n"
     << "  events dropped        " << hub.bus().dropped()
     << (hub.bus().dropped() != 0 ? "   (ring full — oldest events evicted)" : "")
     << "\n--- metrics ---\n"
     << hub.metrics().format_table();
  return os.str();
}

}  // namespace tytan::obs
