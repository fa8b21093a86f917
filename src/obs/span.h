// Span-based causal tracing of the attestation protocol.
//
// A span is one typed phase of an attestation round (nonce-gen,
// challenge-deliver, rtm-measure, hmac-compute, report-return, verify,
// retry-backoff) under an attest-round root, stamped with begin/end
// simulated cycles plus host wall-time, and linked by a trace id (one per
// round, shared challenger<->prover) and a parent span id.  Fault-engine
// injections and recoveries annotate the innermost open span, so a faulted
// round is self-explaining from the span file alone.
//
// Zero simulated cost, same contract as the EventBus: the recorder never
// touches Machine::charge, and while disabled begin()/end()/annotate() are a
// single branch — enabling spans never changes a cycle count (pinned by
// bench_telemetry's on/off invariant).
//
// Determinism: one recorder per device, driven by one thread at a time (the
// fleet invariant); span ids are a per-recorder counter and the JSONL
// serialization carries no host-side field, so fleet span files are
// byte-identical whatever the worker-thread count.  Host wall-time is kept
// in memory only.
//
// File format: one {"type":"span",...} line per span, its keys listed once
// in the span walk (span.cc) that both append_span_json and
// parse_spans_jsonl run; the reader returns Span values, notes included.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/events.h"

namespace tytan::obs {

enum class SpanPhase : std::uint8_t {
  kAttestRound = 0,   ///< root: one challenge->verify round incl. retries
  kNonceGen,          ///< challenger draws the single-use nonce
  kChallengeDeliver,  ///< nonce handed to the device (host-side, 0 cycles)
  kRtmMeasure,        ///< RTM measurement of the task image (at load time)
  kHmacCompute,       ///< device MACs (nonce | id_t) under Ka
  kReportReturn,      ///< report travels back to the challenger
  kVerify,            ///< golden-database + nonce-ledger verdict
  kRetryBackoff,      ///< exponential backoff before a re-attempt
};
inline constexpr std::size_t kNumSpanPhases = 8;

[[nodiscard]] std::string_view span_phase_name(SpanPhase phase);

enum class SpanOutcome : std::uint8_t {
  kOpen = 0,  ///< still open (only ever serialized on abnormal teardown)
  kOk,
  kFailed,
  kRetried,  ///< verified, but only after at least one retry
};
inline constexpr std::size_t kNumSpanOutcomes = 4;

[[nodiscard]] std::string_view span_outcome_name(SpanOutcome outcome);

/// A fault-engine event attached to the span it happened inside.
struct SpanNote {
  std::uint64_t cycle = 0;
  EventKind kind = EventKind::kFaultInject;  ///< kFaultInject | kFaultRecover
  std::uint32_t a = 0;                       ///< FaultClass / RecoveryKind
  std::uint32_t b = 0;                       ///< clause detail (site, attempt)

  bool operator==(const SpanNote&) const = default;
};

struct Span {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;    ///< 1-based, per recorder; 0 is "no span"
  std::uint32_t parent_id = 0;  ///< 0 = root
  SpanPhase phase = SpanPhase::kAttestRound;
  std::int32_t task = -1;
  std::uint64_t begin_cycle = 0;
  std::uint64_t end_cycle = 0;
  // Host wall-time (steady-clock ns since the recorder was enabled).  Kept
  // in memory for live inspection; deliberately NOT serialized, so span
  // files stay byte-identical across thread counts.
  std::int64_t begin_host_ns = 0;
  std::int64_t end_host_ns = 0;
  SpanOutcome outcome = SpanOutcome::kOpen;
  std::uint32_t device = 0;  ///< the recorder's device id
  std::vector<SpanNote> notes;

  [[nodiscard]] std::uint64_t cycles() const { return end_cycle - begin_cycle; }
  bool operator==(const Span&) const = default;
};

/// Per-device span recorder.  Disabled by default; while disabled every
/// entry point is one branch and begin() returns the null SpanId 0, which
/// end()/annotate() ignore.
class SpanRecorder {
 public:
  using SpanId = std::uint32_t;

  void set_clock(const std::uint64_t* clock) { clock_ = clock; }
  void set_device(std::uint32_t device) { device_ = device; }
  [[nodiscard]] std::uint32_t device() const { return device_; }

  void enable() {
    enabled_ = true;
    epoch_ = std::chrono::steady_clock::now();
  }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a root span for a new trace (one per attestation round).
  SpanId begin_trace(std::uint64_t trace_id, SpanPhase phase, std::int32_t task = -1);
  /// Open a child of the innermost open span, inheriting its trace id
  /// (trace 0 / parent 0 when nothing is open — e.g. rtm-measure at load).
  SpanId begin(SpanPhase phase, std::int32_t task = -1);
  /// Close `id`, stamping end cycle/host time.  No-op for SpanId 0.
  void end(SpanId id, SpanOutcome outcome);
  /// Attach a fault event to the innermost open span (no-op when none).
  void annotate(const Event& event);
  /// Innermost open span, 0 when none.
  [[nodiscard]] SpanId current() const { return open_.empty() ? 0 : open_.back(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Called with every completed span (the Hub folds them into metrics).
  void set_on_end(std::function<void(const Span&)> on_end) {
    on_end_ = std::move(on_end);
  }

  /// Serialize every span as JSONL, in begin order, fixed key order, no
  /// host-side fields (see file comment on determinism).
  [[nodiscard]] std::string to_jsonl() const;

 private:
  [[nodiscard]] std::uint64_t now_cycles() const {
    return clock_ != nullptr ? *clock_ : 0;
  }
  [[nodiscard]] std::int64_t now_host_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_ = false;
  const std::uint64_t* clock_ = nullptr;
  std::uint32_t device_ = 0;
  std::vector<Span> spans_;   ///< span_id == index + 1
  std::vector<SpanId> open_;  ///< open-span stack, innermost at the back
  std::function<void(const Span&)> on_end_;
  std::chrono::steady_clock::time_point epoch_{};
};

/// Append one span as a JSON line (shared by SpanRecorder::to_jsonl and the
/// fleet's per-device concatenation).
void append_span_json(std::string& out, const Span& span);

/// Parse a span JSONL stream back into the recorder's spans, notes included.
/// Empty input parses to no spans; a line that is not one complete
/// {"type":"span",...} record is kCorrupt, naming the line.
Result<std::vector<Span>> parse_spans_jsonl(std::string_view text);

}  // namespace tytan::obs
