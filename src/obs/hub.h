// The observability hub: one EventBus + MetricsRegistry + TaskAccounting,
// wired together.  sim::Machine owns a Hub and points its clock at the cycle
// counter; every instrumented component emits through machine.obs().
//
// Disabled by default.  While disabled, emit() is a single branch and the
// metrics/accounting stay untouched — enabling observability never changes a
// simulated cycle count (the layer has no access to Machine::charge at all).
#pragma once

#include <cstdint>

#include "obs/accounting.h"
#include "obs/event_bus.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace tytan::obs {

class Hub {
 public:
  explicit Hub(std::size_t capacity = EventBus::kDefaultCapacity) : bus_(capacity) {
    spans_.set_on_end([this](const Span& span) { update_span_metrics(span); });
  }
  // The span callback captures `this`: a Hub stays put.
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;
  Hub(Hub&&) = delete;
  Hub& operator=(Hub&&) = delete;

  void set_clock(const std::uint64_t* clock) {
    clock_ = clock;
    bus_.set_clock(clock);
    spans_.set_clock(clock);
  }

  /// Start recording events, metrics, and per-task accounting.
  void enable() {
    bus_.enable();
    accounting_.enable(now());
  }
  void disable() {
    accounting_.disable(now());
    bus_.disable();
  }
  [[nodiscard]] bool enabled() const { return bus_.enabled(); }

  /// Every emitter goes through here, so each event drives metrics and
  /// accounting exactly once, whatever the ring evicts.
  void emit(EventKind kind, std::int32_t task = -1, std::uint32_t a = 0,
            std::uint32_t b = 0) {
    if (const Event* event = bus_.emit(kind, task, a, b); event != nullptr) {
      observe(*event);
    }
  }

  /// Close the open accounting span (call before reading totals/exporting).
  void flush() { accounting_.flush(now()); }

  [[nodiscard]] EventBus& bus() { return bus_; }
  [[nodiscard]] const EventBus& bus() const { return bus_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] TaskAccounting& accounting() { return accounting_; }
  [[nodiscard]] const TaskAccounting& accounting() const { return accounting_; }
  /// Attestation-span recorder (obs/span.h).  Separately enabled from the
  /// bus so spans stay free when dormant; completed spans fold into
  /// span.<phase>.cycles histograms, and fault-engine events annotate the
  /// innermost open span (observe()).
  [[nodiscard]] SpanRecorder& spans() { return spans_; }
  [[nodiscard]] const SpanRecorder& spans() const { return spans_; }

  /// Task currently charged by the accounting tracker (-1 = platform).
  [[nodiscard]] std::int32_t current_task() const { return accounting_.current_task(); }

 private:
  [[nodiscard]] std::uint64_t now() const { return clock_ != nullptr ? *clock_ : 0; }
  /// Fold one recorded event into accounting and metrics.  Fault events also
  /// annotate the current attestation span, covering every injection site.
  void observe(const Event& event);
  void update_span_metrics(const Span& span);

  EventBus bus_;
  MetricsRegistry metrics_;
  TaskAccounting accounting_;
  SpanRecorder spans_;
  const std::uint64_t* clock_ = nullptr;
  /// Receiver handle -> cycle of the in-flight kIpcSend, for the
  /// ipc.send_to_deliver.cycles latency histogram.
  std::map<std::int32_t, std::uint64_t> ipc_send_cycle_;
};

}  // namespace tytan::obs
