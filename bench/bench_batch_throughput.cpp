// Word-vs-single-cell programming throughput (perf claim of the SoA kernel).
//
// Programs N cells — SET then terminated RESET across the 16-level IrefR bank
// — as a serial loop of FastCell operations (one-lane batches), then as
// N-lane oxram::CellBatch runs (lockstep lanes, termination masking +
// retirement) on the portable pack and on the dispatched engine. The serial
// loop runs on the dispatched engine too. Reports cells/s for N in
// {16, 256, 4096}: `batch_vs_per_cell` is what batching N lanes gains over
// programming cell by cell on the same engine, `dispatched_vs_portable` what
// the dispatched pack (AVX2 where cpuid reports AVX2 + FMA) adds over the
// portable pack at the same width (1.0 on a host without AVX2).
//
// Writes batch_throughput.csv (+ the standard telemetry sidecar) and a
// BENCH_batch.json summary consumed by the bench-smoke CI assertions.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mlc/levels.hpp"
#include "numeric/simd.hpp"
#include "obs/registry.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/fast_cell.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct Sweep {
  std::size_t lanes = 0;
  double per_cell_cps = 0.0;  // serial per-cell loop, dispatched engine
  double portable_cps = 0.0;  // N-lane batch forced to the portable pack
  double batch_cps = 0.0;     // N-lane batch, dispatched engine
  double batch_vs_per_cell = 0.0;
  double dispatched_vs_portable = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace oxmlc;

  std::size_t max_lanes = 4096;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--max-lanes") {
      max_lanes = static_cast<std::size_t>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }

  bench::print_header(
      "Batch throughput", "SoA batch kernel vs serial per-cell programming",
      "(implementation claim: whole-word/array programming through the "
      "lockstep pack kernel beats cell-by-cell programming, identical physics)");

  const auto allocation =
      mlc::LevelAllocation::iso_delta_i(4, mlc::kPaperIrefMin, mlc::kPaperIrefMax);
  const oxram::OxramParams nominal;
  const oxram::OxramVariability variability;
  const oxram::StackConfig stack;
  const oxram::SetOperation set_op;
  oxram::ResetOperation reset_template;
  // Plateau sized like the QLC flow so the deepest reference always
  // terminates instead of timing out.
  reset_template.pulse.width = 12e-6;

  const auto make_cells = [&](std::size_t n) {
    Rng seeder(0xBEEFCAFEull);
    std::vector<oxram::FastCell> cells;
    cells.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Rng rng = seeder.split();
      const oxram::OxramParams device = sample_device(nominal, variability, rng);
      cells.push_back(oxram::FastCell::formed_lrs(device, stack));
    }
    return cells;
  };
  const auto reset_for = [&](std::size_t i) {
    oxram::ResetOperation reset = reset_template;
    reset.iref = allocation.levels[i % allocation.count()].iref;
    return reset;
  };

  const std::uint64_t retired_before =
      obs::registry().counter("batch.lanes_retired").value();

  std::vector<Sweep> sweeps;
  for (const std::size_t n : {std::size_t{16}, std::size_t{256}, std::size_t{4096}}) {
    if (n > max_lanes) continue;
    Sweep sweep;
    sweep.lanes = n;

    const auto run_batch = [&](num::simd::Backend backend) {
      std::vector<oxram::FastCell> cells = make_cells(n);
      const num::simd::Backend previous = num::simd::set_backend_override(backend);
      const auto start = bench::now();
      oxram::CellBatch batch;
      for (std::size_t i = 0; i < n; ++i) batch.add_set(cells[i], set_op);
      batch.run();
      batch.clear();
      for (std::size_t i = 0; i < n; ++i) batch.add_reset(cells[i], reset_for(i));
      batch.run();
      const double cps = static_cast<double>(n) / bench::seconds_since(start);
      num::simd::set_backend_override(previous);
      return cps;
    };

    {
      std::vector<oxram::FastCell> cells = make_cells(n);
      const auto start = bench::now();
      for (std::size_t i = 0; i < n; ++i) {
        cells[i].apply_set(set_op);
        cells[i].apply_reset(reset_for(i));
      }
      sweep.per_cell_cps = static_cast<double>(n) / bench::seconds_since(start);
    }
    sweep.portable_cps = run_batch(num::simd::Backend::kScalar);
    sweep.batch_cps = run_batch(num::simd::Backend::kAuto);
    sweep.batch_vs_per_cell = sweep.batch_cps / sweep.per_cell_cps;
    sweep.dispatched_vs_portable = sweep.batch_cps / sweep.portable_cps;
    sweeps.push_back(sweep);
  }

  const std::uint64_t lanes_retired =
      obs::registry().counter("batch.lanes_retired").value() - retired_before;

  Table table({"cells", "per-cell (cells/s)", "batch portable (cells/s)",
               "batch dispatched (cells/s)", "vs per-cell", "vs portable"});
  for (const Sweep& sweep : sweeps) {
    table.add_row({std::to_string(sweep.lanes), format_scaled(sweep.per_cell_cps, 1.0, 0),
                   format_scaled(sweep.portable_cps, 1.0, 0),
                   format_scaled(sweep.batch_cps, 1.0, 0),
                   format_scaled(sweep.batch_vs_per_cell, 1.0, 2) + "x",
                   format_scaled(sweep.dispatched_vs_portable, 1.0, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\n  dispatched engine: "
            << num::simd::backend_name(num::simd::active_backend())
            << "\n  lanes retired through termination masking: " << lanes_retired
            << "\n";

  Table csv({"cells", "per_cell_cells_per_s", "portable_batch_cells_per_s",
             "batch_cells_per_s", "batch_vs_per_cell", "dispatched_vs_portable"});
  for (const Sweep& sweep : sweeps) {
    csv.add_row({std::to_string(sweep.lanes), std::to_string(sweep.per_cell_cps),
                 std::to_string(sweep.portable_cps), std::to_string(sweep.batch_cps),
                 std::to_string(sweep.batch_vs_per_cell),
                 std::to_string(sweep.dispatched_vs_portable)});
  }
  bench::save_csv(csv, "batch_throughput.csv");

  // Machine-readable summary for the CI throughput assertions and the
  // compare_bench.py perf gate.
  const std::string json_path = bench::csv_path("BENCH_batch.json");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"batch_throughput\",\n"
       << bench::provenance_field() << ",\n  \"engine\": \""
       << num::simd::backend_name(num::simd::active_backend())
       << "\",\n  \"lanes_retired\": " << lanes_retired << ",\n  \"sweeps\": [\n";
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    json << "    {\"lanes\": " << sweeps[k].lanes
         << ", \"per_cell_cells_per_s\": " << sweeps[k].per_cell_cps
         << ", \"portable_batch_cells_per_s\": " << sweeps[k].portable_cps
         << ", \"batch_cells_per_s\": " << sweeps[k].batch_cps
         << ", \"batch_vs_per_cell\": " << sweeps[k].batch_vs_per_cell
         << ", \"dispatched_vs_portable\": " << sweeps[k].dispatched_vs_portable << "}"
         << (k + 1 < sweeps.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::cout << " [json written: " << json_path << "]\n";
  return 0;
}
