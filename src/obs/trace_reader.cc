#include "obs/trace_reader.h"

#include <charconv>
#include <fstream>
#include <sstream>

namespace tytan::obs {

namespace {

/// Value of `"key":<number>` in `line`, or `fallback` when absent.
std::int64_t find_int(std::string_view line, std::string_view key, std::int64_t fallback) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) {
    return fallback;
  }
  std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  while (end < line.size() &&
         (line[end] == '-' || (line[end] >= '0' && line[end] <= '9'))) {
    ++end;
  }
  std::int64_t value = fallback;
  std::from_chars(line.data() + begin, line.data() + end, value);
  return value;
}

/// Value of `"key":"<string>"` in `line` (no unescaping — the writer only
/// escapes characters that task names cannot contain in practice).
std::string find_str(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) {
    return {};
  }
  const std::size_t begin = pos + needle.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string_view::npos ? std::string{}
                                       : std::string(line.substr(begin, end - begin));
}

}  // namespace

Result<Trace> parse_chrome_trace(std::string_view json) {
  if (json.find("\"traceEvents\"") == std::string_view::npos) {
    return make_error(Err::kCorrupt, "not a Chrome trace-event file");
  }
  Trace trace;
  std::istringstream in{std::string(json)};
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = find_str(line, "ph");
    if (ph == "M") {
      const std::string name = find_str(line, "name");
      if (name == "thread_name") {
        trace.thread_names[static_cast<int>(find_int(line, "tid", 0))] =
            find_str(line, "args\":{\"name");
      } else if (name == "tytan_event_bus") {
        trace.recorded_events = static_cast<std::uint64_t>(find_int(line, "recorded", 0));
        trace.dropped_events = static_cast<std::uint64_t>(find_int(line, "dropped", 0));
      }
    } else if (ph == "X") {
      trace.slices.push_back({static_cast<int>(find_int(line, "tid", 0)),
                              static_cast<std::uint64_t>(find_int(line, "cycle", 0)),
                              static_cast<std::uint64_t>(find_int(line, "dur_cycles", 0))});
    } else if (ph == "i") {
      std::string name = find_str(line, "name");
      // Traces from tytan-tools 9 and earlier may carry sampling-profiler
      // "prof-sample" instants; they are not bus events, so skip them.
      if (name != "prof-sample") {
        trace.events.push_back({std::move(name),
                                static_cast<std::uint64_t>(find_int(line, "cycle", 0)),
                                static_cast<std::int32_t>(find_int(line, "task", -1)),
                                static_cast<std::uint32_t>(find_int(line, "a", 0)),
                                static_cast<std::uint32_t>(find_int(line, "b", 0))});
      }
    }
  }
  return trace;
}

Result<Trace> read_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(Err::kNotFound, "cannot open trace '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_chrome_trace(buffer.str());
}

}  // namespace tytan::obs
