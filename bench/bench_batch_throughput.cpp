// Word-vs-single-cell programming throughput (perf claim of the SoA kernel).
//
// Programs N cells — SET then terminated RESET across the 16-level IrefR bank
// — as a serial loop of FastCell operations on the scalar reference engine
// (one-lane batches, Backend::kReference), then as N-lane oxram::CellBatch
// runs on the reference engine and on the dispatched pack engine (lockstep
// lanes, termination masking + retirement). Reports cells/s for N in
// {16, 256, 4096}: `speedup` is what the dispatched batch engine gains over
// programming cell by cell on the reference engine, `vector_speedup` what
// the pack engine adds over a reference-engine batch of the same width.
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
  double scalar_cps = 0.0;     // serial per-cell loop, reference engine
  double reference_cps = 0.0;  // batch engine forced to the scalar reference
  double batch_cps = 0.0;      // dispatched engine (SIMD when available)
  double speedup = 0.0;        // batch vs the serial reference-engine loop
  double vector_speedup = 0.0;  // batch vs reference-engine batch
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
      "Batch throughput", "SoA batch kernel vs serial per-cell reference engine",
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

    const auto run_batch = [&](oxmlc::num::simd::Backend engine) {
      std::vector<oxram::FastCell> cells = make_cells(n);
      oxram::BatchRunOptions options;
      options.engine = engine;
      const auto start = bench::now();
      oxram::CellBatch batch;
      for (std::size_t i = 0; i < n; ++i) batch.add_set(cells[i], set_op);
      batch.run(options);
      batch.clear();
      for (std::size_t i = 0; i < n; ++i) batch.add_reset(cells[i], reset_for(i));
      batch.run(options);
      return static_cast<double>(n) / bench::seconds_since(start);
    };

    {
      std::vector<oxram::FastCell> cells = make_cells(n);
      const oxmlc::num::simd::Backend previous =
          oxmlc::num::simd::set_backend_override(oxmlc::num::simd::Backend::kReference);
      const auto start = bench::now();
      for (std::size_t i = 0; i < n; ++i) {
        cells[i].apply_set(set_op);
        cells[i].apply_reset(reset_for(i));
      }
      sweep.scalar_cps = static_cast<double>(n) / bench::seconds_since(start);
      oxmlc::num::simd::set_backend_override(previous);
    }
    sweep.reference_cps = run_batch(oxmlc::num::simd::Backend::kReference);
    sweep.batch_cps = run_batch(oxmlc::num::simd::Backend::kAuto);
    sweep.speedup = sweep.batch_cps / sweep.scalar_cps;
    sweep.vector_speedup = sweep.batch_cps / sweep.reference_cps;
    sweeps.push_back(sweep);
  }

  const std::uint64_t lanes_retired =
      obs::registry().counter("batch.lanes_retired").value() - retired_before;

  Table table({"cells", "per-cell ref (cells/s)", "batch ref (cells/s)",
               "batch simd (cells/s)", "vs per-cell", "vs ref"});
  for (const Sweep& sweep : sweeps) {
    table.add_row({std::to_string(sweep.lanes), format_scaled(sweep.scalar_cps, 1.0, 0),
                   format_scaled(sweep.reference_cps, 1.0, 0),
                   format_scaled(sweep.batch_cps, 1.0, 0),
                   format_scaled(sweep.speedup, 1.0, 2) + "x",
                   format_scaled(sweep.vector_speedup, 1.0, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\n  dispatched engine: "
            << oxmlc::num::simd::backend_name(oxmlc::num::simd::active_backend())
            << "\n  lanes retired through termination masking: " << lanes_retired
            << "\n";

  Table csv({"cells", "scalar_cells_per_s", "batch_reference_cells_per_s",
             "batch_cells_per_s", "speedup", "vector_speedup"});
  for (const Sweep& sweep : sweeps) {
    csv.add_row({std::to_string(sweep.lanes), std::to_string(sweep.scalar_cps),
                 std::to_string(sweep.reference_cps), std::to_string(sweep.batch_cps),
                 std::to_string(sweep.speedup), std::to_string(sweep.vector_speedup)});
  }
  bench::save_csv(csv, "batch_throughput.csv");

  // Machine-readable summary for the CI throughput assertions and the
  // compare_bench.py perf gate.
  const std::string json_path = bench::csv_path("BENCH_batch.json");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"batch_throughput\",\n"
       << bench::provenance_field() << ",\n  \"engine\": \""
       << oxmlc::num::simd::backend_name(oxmlc::num::simd::active_backend())
       << "\",\n  \"lanes_retired\": " << lanes_retired << ",\n  \"sweeps\": [\n";
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    json << "    {\"lanes\": " << sweeps[k].lanes
         << ", \"scalar_cells_per_s\": " << sweeps[k].scalar_cps
         << ", \"batch_reference_cells_per_s\": " << sweeps[k].reference_cps
         << ", \"batch_cells_per_s\": " << sweeps[k].batch_cps
         << ", \"speedup\": " << sweeps[k].speedup
         << ", \"vector_speedup\": " << sweeps[k].vector_speedup << "}"
         << (k + 1 < sweeps.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::cout << " [json written: " << json_path << "]\n";
  return 0;
}
