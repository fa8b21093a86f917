#include "common/log.h"

#include <cstdio>
#include <utility>

namespace tytan {

const char* log_level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

LogSink LogContext::set_sink(LogSink sink) {
  LogSink previous = std::move(sink_);
  sink_ = std::move(sink);
  return previous;
}

void LogContext::line(LogLevel level, std::string_view tag,
                      std::string_view message) const {
  if (!enabled(level)) {
    return;
  }
  if (sink_) {
    sink_(level, tag, message);
    return;
  }
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", log_level_name(level),
               static_cast<int>(tag.size()), tag.data(),
               static_cast<int>(message.size()), message.data());
}

LogContext& process_log_context() {
  static LogContext context;
  return context;
}

}  // namespace tytan
