#include "obs/hub.h"

#include <string>

namespace tytan::obs {

void Hub::observe(const Event& event) {
  accounting_.on_event(event);
  if (event.kind == EventKind::kFaultInject || event.kind == EventKind::kFaultRecover) {
    spans_.annotate(event);
  }
  metrics_.counter("events." + std::string(kind_name(event.kind))).inc();
  switch (event.kind) {
    case EventKind::kCtxSave:
      metrics_.histogram(event.b != 0 ? "ctx_save.secure.cycles" : "ctx_save.normal.cycles")
          .observe(event.a);
      break;
    case EventKind::kCtxWipe:
      metrics_.histogram("ctx_save.wipe.cycles").observe(event.a);
      break;
    case EventKind::kCtxRestore:
      metrics_.histogram("ctx_restore.cycles").observe(event.a);
      break;
    case EventKind::kMpuConfig:
      metrics_.histogram("eampu.configure.cycles").observe(event.b);
      break;
    case EventKind::kRtmDone:
      metrics_.histogram("rtm.measure.cycles").observe(event.a);
      break;
    case EventKind::kLoadDone:
      metrics_.histogram("loader.total.cycles").observe(event.a);
      break;
    case EventKind::kSealStore:
    case EventKind::kSealUnseal:
      metrics_.histogram("storage.blob.bytes").observe(event.a);
      break;
    case EventKind::kSchedTick:
      metrics_.gauge("sched.tick").set(static_cast<std::int64_t>(event.a));
      break;
    case EventKind::kAttest:
      metrics_.histogram("attest.roundtrip.cycles").observe(event.a);
      break;
    case EventKind::kIpcSend:
      // `a` is the receiver handle: remember when the message left so the
      // matching deliver can record the send->deliver latency.
      ipc_send_cycle_[static_cast<std::int32_t>(event.a)] = event.cycle;
      break;
    case EventKind::kIpcDeliver: {
      const auto it = ipc_send_cycle_.find(event.task);
      if (it != ipc_send_cycle_.end()) {
        metrics_.histogram("ipc.send_to_deliver.cycles").observe(event.cycle - it->second);
        ipc_send_cycle_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

void Hub::update_span_metrics(const Span& span) {
  metrics_.counter("spans.recorded").inc();
  metrics_.histogram("span." + std::string(span_phase_name(span.phase)) + ".cycles")
      .observe(span.end_cycle - span.begin_cycle);
}

}  // namespace tytan::obs
