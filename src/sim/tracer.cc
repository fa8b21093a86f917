#include "sim/tracer.h"

#include <sstream>

#include "isa/disasm.h"

namespace tytan::sim {

std::string Tracer::format() const {
  std::ostringstream os;
  for (const Entry& entry : entries_) {
    os << "cycle " << entry.cycle << "  0x" << std::hex << entry.eip << std::dec << "  ";
    if (entry.task >= 0) {
      os << "[task " << entry.task << "] ";
    }
    if (!entry.note.empty()) {
      os << "[firmware: " << entry.note << "]";
    } else {
      os << isa::disassemble_word(entry.word, entry.eip);
      if (entry.verdict == kVerdictDenied) {
        os << "  <exec denied>";
      }
    }
    os << '\n';
  }
  return os.str();
}

Status Tracer::state(snap::Io& io) {
  io.usize(capacity_);
  io.sequence(entries_, [&io](Entry& entry) {
    io.u64(entry.cycle);
    io.u32(entry.eip);
    io.u32(entry.word);
    io.str(entry.note);
    io.i32(entry.task);
    io.i32(entry.verdict);
  });
  if (io.loading() && (capacity_ == 0 || entries_.size() > capacity_)) {
    return make_error(Err::kCorrupt, "trace ring of capacity " + std::to_string(capacity_) +
                                         " holds " + std::to_string(entries_.size()) +
                                         " entries");
  }
  return Status::ok();
}

}  // namespace tytan::sim
