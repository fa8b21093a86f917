// Generators for synthetic task binaries with controlled image size and
// relocation count (the independent variables of Tables 4, 5, and 7).
#pragma once

#include <sstream>
#include <string>

#include "common/status.h"
#include "isa/assembler.h"

namespace tytan::bench {

/// Assemble a task whose *image* is exactly `image_bytes` long (rounded up to
/// the next word multiple — the assembler always emits word-aligned images)
/// and contains exactly `abs32_relocs` relocation records (ABS32 via
/// `.word label`).  `secure` controls the `.secure` attribute (and hence the
/// auto-injected entry routine).  The body parks in a yield loop.
inline isa::ObjectFile make_task(std::uint32_t image_bytes, unsigned abs32_relocs,
                                 bool secure) {
  image_bytes = (image_bytes + 3u) & ~3u;
  auto build = [&](std::uint32_t pad) {
    std::ostringstream os;
    if (secure) {
      os << "    .secure\n";
    }
    os << "    .stack 256\n    .entry main\nmain:\n";
    os << "park:\n    movi r0, 1\n    int 0x21\n    jmp park\n";
    os << "anchor:\n    nop\n";
    for (unsigned i = 0; i < abs32_relocs; ++i) {
      os << "    .word anchor\n";
    }
    os << "    .space " << pad << "\n";
    auto object = isa::assemble(os.str());
    TYTAN_CHECK(object.is_ok(), object.status().to_string());
    return object.take();
  };
  const isa::ObjectFile probe = build(0);
  TYTAN_CHECK(probe.image.size() <= image_bytes,
              "requested image smaller than the task skeleton");
  isa::ObjectFile object =
      build(image_bytes - static_cast<std::uint32_t>(probe.image.size()));
  TYTAN_CHECK(object.image.size() == image_bytes, "generator size mismatch");
  TYTAN_CHECK(object.relocs.size() == abs32_relocs, "generator reloc mismatch");
  return object;
}

/// A task with `sites` serial jump-table dispatches of `cases` targets each:
/// every case jumps to the next site, so each site is reachable only through
/// the resolved edges of the one before it.  `cases` must be a power of two:
/// the index is an `andi` mask over an unknown value, so the dataflow pass
/// must enumerate the whole table.
inline isa::ObjectFile make_dispatch_task(unsigned sites, unsigned cases) {
  std::ostringstream os;
  os << "    .stack 256\n    .entry main\nmain:\n";
  for (unsigned s = 0; s < sites; ++s) {
    os << "    rdcyc r1\n";
    os << "    andi r1, " << (cases - 1) << "\n";
    os << "    shli r1, 2\n";
    os << "    li   r2, table" << s << "\n";
    os << "    add  r2, r1\n";
    os << "    ldw  r2, [r2]\n";
    os << "    jmpr r2\n";
    for (unsigned c = 0; c < cases; ++c) {
      os << "s" << s << "c" << c << ":\n    movi r4, " << c << "\n"
         << "    jmp  join" << s << "\n";
    }
    os << "join" << s << ":\n";
  }
  os << "park:\n    movi r0, 1\n    int 0x21\n    jmp park\n";
  for (unsigned s = 0; s < sites; ++s) {
    os << "table" << s << ":\n";
    for (unsigned c = 0; c < cases; ++c) {
      os << "    .word s" << s << "c" << c << "\n";
    }
  }
  auto object = isa::assemble(os.str());
  TYTAN_CHECK(object.is_ok(), object.status().to_string());
  return object.take();
}

}  // namespace tytan::bench
