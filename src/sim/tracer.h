// Execution tracer: a ring buffer of the last N executed instructions with
// cycle stamps and disassembly.  Off by default; Machine::enable_trace puts
// one in the machine's Observer (sim/machine.h), whose fetch and firmware
// hooks record every step.  Examples and debugging sessions enable it to
// print what guest code did before a fault.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "snap/snapshot.h"

namespace tytan::sim {

class Tracer {
 public:
  /// EA-MPU execute verdict for the recorded fetch.
  static constexpr int kVerdictNone = -1;     ///< no policy armed / firmware entry
  static constexpr int kVerdictDenied = 0;
  static constexpr int kVerdictAllowed = 1;

  struct Entry {
    std::uint64_t cycle = 0;
    std::uint32_t eip = 0;
    std::uint32_t word = 0;     ///< raw instruction word (0 for firmware entries)
    std::string note;           ///< firmware name or empty
    std::int32_t task = -1;     ///< running rtos task handle (-1 unknown)
    int verdict = kVerdictNone; ///< EA-MPU execute verdict at this EIP
  };

  /// A zero capacity is clamped to 1: a Tracer always records *something*
  /// (callers that want tracing off use Machine::enable_trace(0), which
  /// doesn't construct one).
  explicit Tracer(std::size_t capacity = 64) : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(std::uint64_t cycle, std::uint32_t eip, std::uint32_t word,
              std::string note = {}, std::int32_t task = -1, int verdict = kVerdictNone) {
    if (entries_.size() == capacity_) {
      entries_.pop_front();
    }
    entries_.push_back({cycle, eip, word, std::move(note), task, verdict});
  }

  [[nodiscard]] std::vector<Entry> snapshot() const {
    return {entries_.begin(), entries_.end()};
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Walk the capacity and the entries (snap::Io, the TRCE section).
  /// Loading refuses a zero capacity or more entries than it (kCorrupt).
  Status state(snap::Io& io);

  /// Multi-line human-readable dump ("cycle 1234  0x40010  ldw r1, [r2+4]").
  [[nodiscard]] std::string format() const;

 private:
  std::size_t capacity_;
  std::deque<Entry> entries_;
};

}  // namespace tytan::sim
