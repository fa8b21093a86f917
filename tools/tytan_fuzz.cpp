// tytan-fuzz — fork-based loader fuzzing against a live booted platform.
//
//   tytan-fuzz [options]
//     --execs N         number of inputs to run (default 500)
//     --seed N          mutation RNG seed (default 1)
//     --budget-cycles N guest cycles granted per input (default 200,000)
//     --mode fork|reboot  fork (default): boot once, restore the post-boot
//                       snapshot before every input; reboot: construct and
//                       boot a fresh platform per input (the slow baseline
//                       bench_snapshot compares against)
//     --corpus-out DIR  write inputs that crash or break an invariant to
//                       DIR/crash-N.tbf
//     --stats-json F    machine-readable run summary
//
// Each input is a mutated TBF image fed through the full trust path the
// paper's loader implements: tbf::read -> static lint -> RamArena -> EA-MPU
// configure -> RTM measure -> schedule -> run.  The platform must survive
// every input: loads may fail cleanly, guest code may fault and be killed,
// but the trusted state must stay intact — any C++ exception or invariant
// breach is a finding.  All randomness is seeded: a run reproduces exactly.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/platform.h"
#include "isa/assembler.h"
#include "tbf/tbf.h"
#include "tool_util.h"

using namespace tytan;

namespace {

constexpr const char kUsageText[] =
    "usage: tytan-fuzz [--execs N] [--seed N] [--budget-cycles N]\n"
    "                  [--mode fork|reboot] [--corpus-out DIR]\n"
    "                  [--stats-json FILE]\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return 2;
}

/// xorshift64: deterministic, fast, and independent of libc rand.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Seed corpus: well-formed programs covering the loader's interesting
/// shapes (relocations, secure tasks, data tables, calls).
const char* const kSeedPrograms[] = {
    R"(
        .stack 256
        .entry main
    main:
        li r1, data
        ldw r2, [r1]
        addi r2, 1
        stw r2, [r1]
        hlt
    data:
        .word 7
    )",
    R"(
        .secure
        .stack 256
        .entry main
    main:
        li   r2, counter
        ldw  r3, [r2]
        addi r3, 1
        stw  r3, [r2]
        movi r0, 1
        int  0x21
        jmp  main
    counter:
        .word 0
    )",
    R"(
        .stack 128
        .entry start
    start:
        call helper
        hlt
    helper:
        push r3
        movi r3, 5
    loop:
        subi r3, 1
        cmpi r3, 0
        jnz  loop
        pop  r3
        ret
    )",
};

struct Options {
  std::uint64_t execs = 500;
  std::uint64_t seed = 1;
  std::uint64_t budget_cycles = 200'000;
  bool fork_mode = true;
  std::string corpus_out;
  std::string stats_json;
};

}  // namespace

int main(int argc, char** argv) {
  tools::handle_version_help("tytan-fuzz", argc, argv, kUsageText);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) {
      return tools::required_value("tytan-fuzz", flag, argc, argv, &i);
    };
    if (arg == "--execs") {
      opt.execs = tools::parse_u64("tytan-fuzz", "--execs", next("--execs"));
    } else if (arg.rfind("--execs=", 0) == 0) {
      opt.execs = tools::parse_u64("tytan-fuzz", "--execs",
                                   arg.c_str() + std::strlen("--execs="));
    } else if (arg == "--seed") {
      opt.seed = tools::parse_u64("tytan-fuzz", "--seed", next("--seed"));
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = tools::parse_u64("tytan-fuzz", "--seed",
                                  arg.c_str() + std::strlen("--seed="));
    } else if (arg == "--budget-cycles") {
      opt.budget_cycles =
          tools::parse_u64("tytan-fuzz", "--budget-cycles", next("--budget-cycles"));
    } else if (arg.rfind("--budget-cycles=", 0) == 0) {
      opt.budget_cycles = tools::parse_u64(
          "tytan-fuzz", "--budget-cycles", arg.c_str() + std::strlen("--budget-cycles="));
    } else if (arg == "--mode") {
      const std::string mode = next("--mode");
      if (mode != "fork" && mode != "reboot") {
        std::fprintf(stderr, "tytan-fuzz: --mode must be fork or reboot\n");
        return 2;
      }
      opt.fork_mode = mode == "fork";
    } else if (arg.rfind("--mode=", 0) == 0) {
      const std::string mode = arg.substr(std::strlen("--mode="));
      if (mode != "fork" && mode != "reboot") {
        std::fprintf(stderr, "tytan-fuzz: --mode must be fork or reboot\n");
        return 2;
      }
      opt.fork_mode = mode == "fork";
    } else if (arg == "--corpus-out") {
      opt.corpus_out = next("--corpus-out");
    } else if (arg.rfind("--corpus-out=", 0) == 0) {
      opt.corpus_out = arg.substr(std::strlen("--corpus-out="));
    } else if (arg == "--stats-json") {
      opt.stats_json = next("--stats-json");
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      opt.stats_json = arg.substr(std::strlen("--stats-json="));
    } else {
      return usage();
    }
  }

  // Assemble the seed corpus into TBF wire images once.
  std::vector<ByteVec> corpus;
  for (const char* source : kSeedPrograms) {
    auto object = isa::assemble(source);
    if (!object.is_ok()) {
      std::fprintf(stderr, "tytan-fuzz: internal seed program rejected: %s\n",
                   object.status().to_string().c_str());
      return 1;
    }
    corpus.push_back(tbf::write(*object));
  }

  if (!opt.corpus_out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.corpus_out, ec);
    if (ec) {
      std::fprintf(stderr, "tytan-fuzz: cannot create '%s': %s\n",
                   opt.corpus_out.c_str(), ec.message().c_str());
      return 1;
    }
  }

  // Fork mode: one boot, one pristine snapshot, restore per input.
  core::Platform platform;
  snap::Snapshot pristine;
  if (opt.fork_mode) {
    auto boot = platform.boot();
    if (!boot.is_ok()) {
      std::fprintf(stderr, "tytan-fuzz: secure boot failed: %s\n",
                   boot.status().to_string().c_str());
      return 1;
    }
    auto snapshot = platform.save();
    if (!snapshot.is_ok()) {
      std::fprintf(stderr, "tytan-fuzz: snapshot failed: %s\n",
                   snapshot.status().to_string().c_str());
      return 1;
    }
    pristine = snapshot.take();
  }

  Rng rng{opt.seed ^ 0x9e37'79b9'7f4a'7c15ull};
  std::uint64_t loads_ok = 0;
  std::uint64_t loads_rejected = 0;
  std::uint64_t guest_faults = 0;
  std::uint64_t crashes = 0;
  for (std::uint64_t exec = 0; exec < opt.execs; ++exec) {
    // Mutate a seed-corpus image: a few byte stores, occasionally a
    // truncation or an extension (header/section-table shapes included).
    ByteVec input = corpus[rng.next() % corpus.size()];
    const std::uint64_t mutations = 1 + rng.next() % 8;
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (rng.next() % 8) {
        case 0:
          if (input.size() > 8) {
            input.resize(8 + rng.next() % (input.size() - 8));
          }
          break;
        case 1:
          input.push_back(static_cast<std::uint8_t>(rng.next()));
          break;
        default:
          input[rng.next() % input.size()] = static_cast<std::uint8_t>(rng.next());
          break;
      }
    }

    bool crashed = false;
    std::string what;
    try {
      core::Platform* target = &platform;
      core::Platform rebooted;
      if (opt.fork_mode) {
        if (Status s = platform.restore(pristine); !s.is_ok()) {
          std::fprintf(stderr, "tytan-fuzz: exec %llu: restore failed: %s\n",
                       static_cast<unsigned long long>(exec), s.to_string().c_str());
          return 1;
        }
      } else {
        if (!rebooted.boot().is_ok()) {
          std::fprintf(stderr, "tytan-fuzz: reboot failed\n");
          return 1;
        }
        target = &rebooted;
      }

      auto object = tbf::read(input);
      if (object.is_ok()) {
        auto task = target->load_task(object.take(), {.name = "fuzz"});
        if (task.is_ok()) {
          ++loads_ok;
          target->run_for(opt.budget_cycles);
        } else {
          ++loads_rejected;
        }
      } else {
        ++loads_rejected;
      }
      if (target->machine().fault_count() != 0) {
        ++guest_faults;
      }
      // Invariants the trusted state must hold after ANY input.
      if (target->machine().halted() ||
          !target->mpu().port_locked()) {
        crashed = true;
        what = "trusted-state invariant broken";
      }
    } catch (const std::exception& e) {
      crashed = true;
      what = e.what();
    } catch (...) {
      crashed = true;
      what = "non-standard exception";
    }

    if (crashed) {
      ++crashes;
      std::fprintf(stderr, "tytan-fuzz: exec %llu: CRASH: %s\n",
                   static_cast<unsigned long long>(exec), what.c_str());
      if (!opt.corpus_out.empty()) {
        const std::string path = opt.corpus_out + "/crash-" +
                                 std::to_string(crashes) + ".tbf";
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char*>(input.data()),
                  static_cast<std::streamsize>(input.size()));
        std::fprintf(stderr, "tytan-fuzz: input written to %s\n", path.c_str());
      }
    }
  }

  std::printf("tytan-fuzz: %llu execs (%s mode): %llu loaded, %llu rejected, "
              "%llu guest faults, %llu crashes\n",
              static_cast<unsigned long long>(opt.execs),
              opt.fork_mode ? "fork" : "reboot",
              static_cast<unsigned long long>(loads_ok),
              static_cast<unsigned long long>(loads_rejected),
              static_cast<unsigned long long>(guest_faults),
              static_cast<unsigned long long>(crashes));
  if (!opt.stats_json.empty()) {
    std::ofstream out(opt.stats_json);
    out << "{\"execs\":" << opt.execs << ",\"mode\":\""
        << (opt.fork_mode ? "fork" : "reboot") << "\",\"loaded\":" << loads_ok
        << ",\"rejected\":" << loads_rejected << ",\"guest_faults\":" << guest_faults
        << ",\"crashes\":" << crashes << ",\"seed\":" << opt.seed << "}\n";
  }
  return crashes == 0 ? 0 : 1;
}
