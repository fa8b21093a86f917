// Static-verifier throughput.
//
// Unlike the table benches, the analyzer runs on the *host* at load time — it
// charges zero simulated cycles (see LoaderGate.VerifierChargesNoMachineCycles)
// — so this bench reports host wall-clock throughput instead of cycle counts:
// how much binary the lint gate can verify per second, and how the value-set
// dataflow cost scales with jump-table fan-out and site count.
//
// CI runs `--smoke --json=BENCH_analysis.json` and publishes the report
// (`paper` is 0 throughout: the source paper has no host-side numbers).
#include <algorithm>
#include <chrono>

#include "analysis/analyzer.h"
#include "bench_util.h"
#include "task_gen.h"

using namespace tytan;

namespace {

/// Median-of-reps wall-clock time for one analyze() call, in microseconds.
double time_us(const isa::ObjectFile& object, int reps) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const analysis::Report report = analysis::analyze(object);
    const auto t1 = std::chrono::steady_clock::now();
    TYTAN_CHECK(report.errors() == 0, "generated task must verify clean");
    samples.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::string mb_per_s(std::uint32_t bytes, double us) {
  return bench::fixed(bytes / us, 1);  // bytes/us == MB/s
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_args(argc, argv);
  bench::JsonReport json("analysis", options);
  const int reps = options.smoke ? 3 : 7;
  const auto record = [&](std::string row, double us) {
    json.add(std::move(row), static_cast<std::uint64_t>(us + 0.5), /*paper=*/0);
  };

  bench::Table scaling("Static verifier throughput vs. image size");
  scaling.columns({"image", "relocs", "analyze (us)", "MB/s"});
  for (const std::uint32_t kib : {1u, 4u, 16u, 64u}) {
    if (options.smoke && kib > 16) {
      continue;
    }
    const std::uint32_t bytes = kib * 1'024;
    // Keep reloc density constant: one ABS32 record per 64 image bytes.
    const unsigned relocs = bytes / 64;
    const isa::ObjectFile object = bench::make_task(bytes, relocs, /*secure=*/false);
    const double us = time_us(object, reps);
    scaling.row({std::to_string(kib) + " KiB", bench::num(relocs),
                 bench::fixed(us, 1), mb_per_s(bytes, us)});
    record("image." + std::to_string(kib) + "KiB.us", us);
  }
  scaling.print();

  bench::Table relocs("Relocation-pass sensitivity (16 KiB image)");
  relocs.columns({"relocs", "analyze (us)"});
  for (const unsigned n : {0u, 16u, 64u, 256u}) {
    const isa::ObjectFile object = bench::make_task(16'384, n, /*secure=*/false);
    const double us = time_us(object, reps);
    relocs.row({bench::num(n), bench::fixed(us, 1)});
    record("relocs." + std::to_string(n) + ".us", us);
  }
  relocs.print();

  // Dataflow cost vs. indirect fan-out and chain length: every site must
  // enumerate its whole table (masked unknown index), and each site is
  // reachable only through the resolved edges of the one before it, so this
  // scales both the value-set widths and the number of splices one fixpoint
  // pass makes.  A pass restarts only after a ban, so `passes` stays 1 here.
  bench::Table dataflow("Dataflow pass vs. jump-table shape");
  dataflow.columns({"sites x cases", "analyze (us)", "us/site", "passes", "resolved"});
  for (const auto& [sites, cases] : std::vector<std::pair<unsigned, unsigned>>{
           {1, 4}, {1, 16}, {1, 64}, {4, 8}, {8, 8}, {16, 8}, {32, 8}}) {
    const isa::ObjectFile task = bench::make_dispatch_task(sites, cases);
    const analysis::Analysis full = analysis::analyze_full(task);
    TYTAN_CHECK(full.report.errors() == 0, "dispatch task must verify clean");
    TYTAN_CHECK(full.dataflow.resolved.size() == sites,
                "every dispatch site must resolve");
    const double us = time_us(task, reps);
    const std::string shape =
        std::to_string(sites) + " x " + std::to_string(cases);
    dataflow.row({shape, bench::fixed(us, 1), bench::fixed(us / sites, 1),
                  bench::num(static_cast<unsigned>(full.dataflow.passes)),
                  bench::num(full.dataflow.resolved.size())});
    record("dataflow." + std::to_string(sites) + "x" + std::to_string(cases) +
               ".us",
           us);
  }
  dataflow.print();
  return 0;
}
