#include "obs/span.h"

#include <array>

#include "common/json.h"

namespace tytan::obs {

namespace {

constexpr std::array<std::string_view, kNumSpanPhases> kPhaseNames = {
    "attest-round", "nonce-gen",     "challenge-deliver", "rtm-measure",
    "hmac-compute", "report-return", "verify",            "retry-backoff",
};

constexpr std::array<std::string_view, kNumSpanOutcomes> kOutcomeNames = {
    "open",
    "ok",
    "failed",
    "retried",
};

void walk_note(json::Io& io, SpanNote& note) {
  io.u64("cycle", note.cycle);
  io.name("kind", note.kind, kNumEventKinds, kind_name);
  io.u32("a", note.a);
  io.u32("b", note.b);
}

/// The one key list of a span line.
void walk_span(json::Io& io, Span& span) {
  io.tag("type", "span");
  io.u32("device", span.device);
  io.u64("trace", span.trace_id);
  io.u32("span", span.span_id);
  io.u32("parent", span.parent_id);
  io.name("phase", span.phase, kNumSpanPhases, span_phase_name);
  io.i32("task", span.task);
  io.u64("begin", span.begin_cycle);
  io.u64("end", span.end_cycle);
  io.derived("cycles", span.cycles());
  io.name("outcome", span.outcome, kNumSpanOutcomes, span_outcome_name);
  io.array("notes", span.notes, walk_note);
}

}  // namespace

std::string_view span_phase_name(SpanPhase phase) {
  const auto index = static_cast<std::size_t>(phase);
  return index < kPhaseNames.size() ? kPhaseNames[index] : "?";
}

std::string_view span_outcome_name(SpanOutcome outcome) {
  const auto index = static_cast<std::size_t>(outcome);
  return index < kOutcomeNames.size() ? kOutcomeNames[index] : "?";
}

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

SpanRecorder::SpanId SpanRecorder::begin_trace(std::uint64_t trace_id, SpanPhase phase,
                                               std::int32_t task) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.trace_id = trace_id;
  span.span_id = static_cast<SpanId>(spans_.size() + 1);
  span.parent_id = current();
  span.phase = phase;
  span.device = device_;
  span.task = task;
  span.begin_cycle = now_cycles();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().span_id);
  return spans_.back().span_id;
}

SpanRecorder::SpanId SpanRecorder::begin(SpanPhase phase, std::int32_t task) {
  if (!enabled_) {
    return 0;
  }
  const SpanId parent = current();
  const std::uint64_t trace = parent != 0 ? spans_[parent - 1].trace_id : 0;
  return begin_trace(trace, phase, task);
}

void SpanRecorder::end(SpanId id, SpanOutcome outcome) {
  if (!enabled_ || id == 0 || id > spans_.size()) {
    return;
  }
  Span& span = spans_[id - 1];
  if (span.outcome != SpanOutcome::kOpen) {
    return;  // already closed
  }
  span.end_cycle = now_cycles();
  span.outcome = outcome;
  // Usually the innermost open span; search from the back so an out-of-order
  // close (a task restart mid-measurement) still unwinds correctly.
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i] == id) {
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (on_end_) {
    on_end_(span);
  }
}

void SpanRecorder::annotate(const Event& event) {
  if (!enabled_ || open_.empty()) {
    return;
  }
  Span& span = spans_[open_.back() - 1];
  span.notes.push_back(SpanNote{event.cycle, event.kind, event.a, event.b});
}

void append_span_json(std::string& out, const Span& span) {
  Span copy = span;
  json::write_object(out, walk_span, copy);
  out += '\n';
}

std::string SpanRecorder::to_jsonl() const {
  std::string out;
  for (const Span& span : spans_) {
    append_span_json(out, span);
  }
  return out;
}

Result<std::vector<Span>> parse_spans_jsonl(std::string_view text) {
  std::vector<Span> spans;
  json::Lines lines(text);
  for (std::string_view line; lines.next(line);) {
    if (json::find_str(line, "type") != "span" ||
        !json::read_object(line, walk_span, spans.emplace_back())) {
      return lines.corrupt("span");
    }
  }
  return spans;
}

}  // namespace tytan::obs
