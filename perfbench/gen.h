// Seeded input generators.  The seed is the only thing that varies inputs:
// the same seed gives byte-identical programs.  Shapes (task count, case
// count, segment mix) are fixed and only details are drawn from the seed, so
// different seeds give the same kind of work and host throughput stays
// comparable across seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::gen {

/// Seed named for checking claims on inputs not used while tuning a change.
inline constexpr std::uint64_t kHeldOutSeed = 7;

/// splitmix64: deterministic and independent of the C++ library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e37'79b9'7f4a'7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58'476d'1ce4'e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d0'49bb'1331'11ebull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) { return static_cast<std::uint32_t>(next() % n); }
  std::uint32_t range(std::uint32_t lo, std::uint32_t hi) { return lo + below(hi - lo + 1); }

 private:
  std::uint64_t state_;
};

/// Stream `stream` of `seed`: independent generators per task, cohort, exec.
inline Rng stream(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed * 0x2545'f491'4f6c'dd1dull ^ stream);
  return Rng(mix.next() ^ stream);
}

/// One secure task: a main loop dispatching through a 16-entry jump table
/// into cases mixing straight-line ALU blocks, load/store over a per-task
/// data array, call/ret chains and short forward branches, yielding every 32
/// iterations.
std::string guest_program(std::uint64_t seed, int index);

/// A duty-cycled fleet release: a short compute burst over a data array,
/// then kSysDelay for one tick.
std::string release_program(std::uint64_t seed, int index);

}  // namespace perfbench::gen
