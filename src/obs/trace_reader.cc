#include "obs/trace_reader.h"

#include <sstream>

#include "common/json.h"

namespace tytan::obs {

Result<Trace> parse_chrome_trace(std::string_view text) {
  if (text.find("\"traceEvents\"") == std::string_view::npos) {
    return make_error(Err::kCorrupt, "not a Chrome trace-event file");
  }
  Trace trace;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = json::find_str(line, "ph");
    if (ph == "M") {
      const std::string name = json::find_str(line, "name");
      if (name == "thread_name") {
        trace.thread_names[static_cast<int>(json::find_int(line, "tid", 0))] =
            json::find_str(line, "args\":{\"name");
      } else if (name == "tytan_event_bus") {
        trace.recorded_events = json::find_u64(line, "recorded");
        trace.dropped_events = json::find_u64(line, "dropped");
      }
    } else if (ph == "X") {
      trace.slices.push_back({static_cast<int>(json::find_int(line, "tid", 0)),
                              json::find_u64(line, "cycle"),
                              json::find_u64(line, "dur_cycles")});
    } else if (ph == "i") {
      std::string name = json::find_str(line, "name");
      // Traces from tytan-tools 9 and earlier may carry sampling-profiler
      // "prof-sample" instants; they are not bus events, so skip them.
      if (name != "prof-sample") {
        trace.events.push_back(
            {std::move(name), json::find_u64(line, "cycle"),
             static_cast<std::int32_t>(json::find_int(line, "task", -1)),
             static_cast<std::uint32_t>(json::find_u64(line, "a")),
             static_cast<std::uint32_t>(json::find_u64(line, "b"))});
      }
    }
  }
  return trace;
}

Result<Trace> read_chrome_trace_file(const std::string& path) {
  auto text = json::read_text_file(path);
  if (!text.is_ok()) {
    return text.status();
  }
  return parse_chrome_trace(*text);
}

}  // namespace tytan::obs
