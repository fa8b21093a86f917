// Tiny leveled logger.  Off by default, so tests, benches and examples stay
// quiet unless they raise a context's level.
//
// Log state lives in a LogContext so that N simulated platforms in one
// process (the fleet runner) can each have their own level and sink without
// sharing any mutable state — a LogContext is only ever driven by the thread
// that drives its platform.  CLIs and tests that care about one platform use
// process_log_context().
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace tytan {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Destination for log lines that pass the threshold.  The default sink
/// prints "[LEVEL] tag: message" to stderr.
using LogSink = std::function<void(LogLevel, std::string_view tag, std::string_view message)>;

/// Per-platform log state: a threshold plus an optional sink.  Not
/// internally synchronized — the thread-safety invariant is the platform's
/// (one thread drives a platform, and therefore its LogContext, at a time).
class LogContext {
 public:
  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  /// Replace the sink (tests capture output this way); pass an empty
  /// function to restore the stderr default.  Returns the previous sink.
  LogSink set_sink(LogSink sink);

  [[nodiscard]] bool enabled(LogLevel level) const {
    return level >= level_ && level_ != LogLevel::kOff;
  }

  /// Emit one line at `level` with a subsystem tag.
  void line(LogLevel level, std::string_view tag, std::string_view message) const;

 private:
  LogLevel level_ = LogLevel::kOff;
  LogSink sink_;  // empty => stderr default
};

/// The process-default context used by CLIs and by code with no platform in
/// scope.  Platform-owned components log through their machine's context.
LogContext& process_log_context();

const char* log_level_name(LogLevel level);

namespace detail {
class LogStream {
 public:
  LogStream(const LogContext& context, LogLevel level, std::string_view tag)
      : context_(context), level_(level), tag_(tag) {}
  ~LogStream() { context_.line(level_, tag_, os_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  const LogContext& context_;
  LogLevel level_;
  std::string tag_;
  std::ostringstream os_;
};
}  // namespace detail

/// Stream into an explicit LogContext (platform-owned components).
#define TYTAN_CLOG(context, level, tag) ::tytan::detail::LogStream(context, level, tag)

}  // namespace tytan
