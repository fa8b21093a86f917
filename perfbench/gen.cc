#include "gen.h"

#include <cstdarg>
#include <cstdio>

namespace perfbench::gen {

namespace {

constexpr int kCases = 16;      // jump-table fan-out (power of two)
constexpr int kFunctions = 6;   // call/ret chain targets
constexpr int kYieldMask = 31;  // kSysYield every 32 loop iterations

void emit(std::string& out, const char* format, ...) {
  char buf[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  out += buf;
  out += '\n';
}

/// `count` straight-line ALU ops over r1..r<regs>.
void alu(Rng& rng, std::string& out, int count, std::uint32_t regs) {
  for (int i = 0; i < count; ++i) {
    const unsigned rd = 1 + rng.below(regs);
    const unsigned ra = 1 + rng.below(regs);
    switch (rng.below(10)) {
      case 0: emit(out, "    addi r%u, %u", rd, rng.range(1, 99)); break;
      case 1: emit(out, "    xor  r%u, r%u", rd, ra); break;
      case 2: emit(out, "    shli r%u, %u", rd, rng.range(1, 3)); break;
      case 3: emit(out, "    ori  r%u, %u", rd, rng.range(1, 255)); break;
      case 4: emit(out, "    add  r%u, r%u", rd, ra); break;
      case 5: emit(out, "    andi r%u, %u", rd, rng.range(255, 65535)); break;
      case 6: emit(out, "    sub  r%u, r%u", rd, ra); break;
      case 7: emit(out, "    shri r%u, %u", rd, rng.range(1, 3)); break;
      case 8: emit(out, "    mul  r%u, r%u", rd, ra); break;
      default: emit(out, "    subi r%u, %u", rd, rng.range(1, 99)); break;
    }
  }
}

/// Read-modify-write of data[(r5 + k) mod words]; r6 holds the array base.
/// The mask bounds the index, so the analyzer can place every access
/// inside the task's own region.
void mem(Rng& rng, std::string& out, std::uint32_t words) {
  static const char* const kOps[] = {"add ", "xor ", "sub "};
  emit(out, "    mov  r3, r5");
  emit(out, "    addi r3, %u", rng.below(words));
  emit(out, "    andi r3, %u", words - 1);
  emit(out, "    shli r3, 2");
  emit(out, "    mov  r4, r6");
  emit(out, "    add  r4, r3");
  emit(out, "    ldw  r1, [r4]");
  emit(out, "    %s r1, r2", kOps[rng.below(3)]);
  emit(out, "    stw  r1, [r4]");
}

}  // namespace

std::string guest_program(std::uint64_t seed, int index) {
  Rng rng = stream(seed, 0x1000 + static_cast<std::uint64_t>(index));
  const std::uint32_t words = 16u << rng.below(5);  // 16..256 words per task
  std::string s;
  emit(s, "    .secure");
  emit(s, "    .stack 256");
  emit(s, "    .entry main");
  emit(s, "main:");
  emit(s, "    li   r6, data");
  emit(s, "    movi r5, 0");
  emit(s, "loop:");
  emit(s, "    mov  r1, r5");
  emit(s, "    andi r1, %d", kCases - 1);
  emit(s, "    shli r1, 2");
  emit(s, "    li   r2, table");
  emit(s, "    add  r2, r1");
  emit(s, "    ldw  r2, [r2]");
  emit(s, "    jmpr r2");
  for (int c = 0; c < kCases; ++c) {
    emit(s, "case_%d:", c);
    alu(rng, s, static_cast<int>(rng.range(6, 10)), 4);
    mem(rng, s, words);
    if (c % 2 == 0) {
      emit(s, "    call fn_%d", (c / 2) % kFunctions);
    } else {
      emit(s, "    cmpi r3, %u", rng.range(0, 999));
      emit(s, "    jlt  skip_%d", c);
      alu(rng, s, 3, 4);
      emit(s, "skip_%d:", c);
    }
    alu(rng, s, static_cast<int>(rng.range(2, 4)), 4);
    emit(s, "    jmp  next");
  }
  emit(s, "next:");
  emit(s, "    addi r5, 1");
  emit(s, "    mov  r1, r5");
  emit(s, "    andi r1, %d", kYieldMask);
  emit(s, "    cmpi r1, 0");
  emit(s, "    jnz  loop");
  emit(s, "    movi r0, 1");  // kSysYield
  emit(s, "    int  0x21");
  emit(s, "    jmp  loop");
  for (int f = 0; f < kFunctions; ++f) {
    emit(s, "fn_%d:", f);
    emit(s, "    push r4");
    alu(rng, s, static_cast<int>(rng.range(4, 8)), 4);
    // Chains of at most three calls keep the stack lint's bound small.
    if (f % 3 != 2 && f + 1 < kFunctions) {
      emit(s, "    call fn_%d", f + 1);
    }
    emit(s, "    pop  r4");
    emit(s, "    ret");
  }
  emit(s, "data:");
  emit(s, "    .space %u", words * 4);
  emit(s, "table:");
  std::string table = "    .word ";
  for (int c = 0; c < kCases; ++c) {
    table += (c == 0 ? "case_" : ", case_") + std::to_string(c);
  }
  s += table + "\n";
  return s;
}

std::string release_program(std::uint64_t seed, int index) {
  Rng rng = stream(seed, 0x2000 + static_cast<std::uint64_t>(index));
  const std::uint32_t words = 16u << rng.below(3);  // 16..64 words
  std::string s;
  emit(s, "    .secure");
  emit(s, "    .stack 256");
  emit(s, "    .entry main");
  emit(s, "main:");
  emit(s, "    li   r6, data");
  emit(s, "loop:");
  emit(s, "    movi r4, 32");
  emit(s, "burst:");
  alu(rng, s, static_cast<int>(rng.range(10, 12)), 2);
  emit(s, "    mov  r3, r4");
  emit(s, "    andi r3, %u", words - 1);
  emit(s, "    shli r3, 2");
  emit(s, "    mov  r5, r6");
  emit(s, "    add  r5, r3");
  emit(s, "    ldw  r3, [r5]");
  emit(s, "    add  r3, r1");
  emit(s, "    stw  r3, [r5]");
  emit(s, "    subi r4, 1");
  emit(s, "    cmpi r4, 0");
  emit(s, "    jnz  burst");
  emit(s, "    movi r0, 2");  // kSysDelay
  emit(s, "    movi r1, 1");  // one tick
  emit(s, "    int  0x21");
  emit(s, "    jmp  loop");
  emit(s, "data:");
  emit(s, "    .space %u", words * 4);
  return s;
}

}  // namespace perfbench::gen
