// Trace formats: one recorded run, two on-disk encodings.
//
//   1. record a sample trace by running sumv (master-thread allocation,
//      so the trace is worth re-analyzing later),
//   2. save it two ways — CSV v2 and binary v4 — and show what lands on
//      disk,
//   3. load both back and verify they are the *same trace*.
//
// Why bother with formats?  CSV is greppable.  A binary v4 sample record is
// the 32-byte MemorySample itself, so a clean binary load copies no sample:
// the trace's samples are read straight from the mapped file (perfbench/
// measures both loaders per sample on million-sample traces:
// pebs.decode_binary_ns_per_sample vs pebs.decode_csv_ns_per_sample).
// Either way a trace is one checksummed file, written atomically.
//
// Build & run:  ./examples/trace_formats
#include <cstddef>
#include <filesystem>
#include <iostream>

#include "drbw/drbw.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/workloads/mini.hpp"

using namespace drbw;

namespace {

// CSV prints latency as decimal text (6 significant digits), so a CSV
// round trip is equal only to that precision; binary stores the raw f32
// bits and round-trips exactly.
bool same_trace(const pebs::Trace& a, const pebs::Trace& b,
                bool exact_latency) {
  if (a.events.size() != b.events.size() ||
      a.samples.size() != b.samples.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& x = a.events[i];
    const auto& y = b.events[i];
    if (x.kind != y.kind || x.site.label != y.site.label ||
        x.base != y.base || x.size_bytes != y.size_bytes) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    if (x.address != y.address || x.cpu != y.cpu || x.tid != y.tid ||
        x.level != y.level || x.is_write != y.is_write || x.cycle != y.cycle ||
        x.home != y.home) {
      return false;
    }
    const float tolerance =
        exact_latency ? 0.0f : 1e-5f * (1.0f + x.latency_cycles);
    const float delta = x.latency_cycles - y.latency_cycles;
    if (delta > tolerance || -delta > tolerance) return false;
  }
  return true;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "drbw_trace_formats";
  fs::create_directories(dir);

  // --- 1. record: run the workload once, keep its events + samples ---
  const topology::Machine machine = topology::Machine::xeon_e5_4650();
  mem::AddressSpace space(machine);
  const workloads::ProxyBenchmark bench(
      workloads::sumv_spec(256ull << 20, /*master_alloc=*/true));
  const auto built = bench.build(space, machine, workloads::RunConfig{16, 4},
                                 workloads::PlacementMode::kOriginal, 0);
  const sim::RunResult run = workloads::execute(machine, space, built, {});
  const pebs::Trace trace{run.alloc_events, run.samples};
  std::cout << "recorded " << trace.samples.size() << " samples, "
            << trace.events.size() << " allocation events\n\n";

  // --- 2. save two ways ---
  const std::string csv_path = (dir / "run.csv").string();
  const std::string bin_path = (dir / "run.bin").string();

  pebs::save_trace(csv_path, trace);  // CSV v2 is the default

  pebs::SaveOptions binary;
  binary.format = pebs::TraceFormat::kBinary;
  pebs::save_trace(bin_path, trace, binary);

  for (const std::string& path : {csv_path, bin_path}) {
    std::cout << fs::path(path).filename().string() << "  "
              << fs::file_size(path) << " bytes\n";
  }

  // --- 3. load back: the same trace from either format ---
  const bool all_equal =
      same_trace(trace, pebs::load_trace(csv_path), /*exact_latency=*/false) &&
      same_trace(trace, pebs::load_trace(bin_path), /*exact_latency=*/true);
  std::cout << "\nround trips " << (all_equal ? "agree" : "DIVERGED")
            << " across csv / binary\n"
            << "(binary is bit-exact; CSV rounds latency to 6 significant "
               "digits)\n";

  std::cout
      << "\nPicking a format: CSV stays greppable; `drbw record --format "
         "binary`\nwrites v4, whose samples load without a copy. `drbw "
         "convert`\nmoves a trace between formats (and a v3 binary trace to "
         "v4) after\nthe fact, and `drbw analyze --expect-trace-version` "
         "pins what a\ndeployment accepts (exit 69 on skew).\n";

  fs::remove_all(dir);
  return all_equal ? 0 : 1;
}
