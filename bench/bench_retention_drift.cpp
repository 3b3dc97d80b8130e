// EXT-RET: retention drift kernel throughput + margin-closure sweep.
//
// Not a paper figure — the paper freezes each state at termination. This
// harness measures the reliability subsystem built on top of it:
//   (a) throughput of the batched SoA drift kernel (drifted_gap_batch)
//       against the scalar reference loop it mirrors, across lane counts —
//       the kernel advances whole arrays inside ReliabilityEngine::advance;
//   (b) a small Monte-Carlo retention sweep (verify-off vs relaxation-aware
//       verify) showing the worst-case window closing over decades and the
//       fraction the verify buys back.
// CSV + telemetry sidecar land in bench_results/ like every other harness;
// the CI retention smoke asserts on the CLI's BENCH_retention.json artifact.
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "mlc/retention.hpp"
#include "oxram/drift.hpp"
#include "util/rng.hpp"

using oxmlc::bench::seconds_since;

int main(int argc, char** argv) {
  using namespace oxmlc;

  bench::print_header(
      "EXT-RET", "retention drift kernel + relaxation-aware verify",
      "n/a (extension): log-time drift after arXiv:1810.10528, verify after arXiv:2301.08516");

  // (a) kernel throughput: scalar reference loop vs batched SoA kernel.
  oxram::DriftParams params;
  params.t_operating = 330.0;
  struct Sweep {
    std::size_t lanes = 0;
    double scalar_cps = 0.0;
    double batch_cps = 0.0;
    double speedup = 0.0;
  };
  std::vector<Sweep> sweeps;
  for (std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 12, std::size_t{1} << 14,
                        std::size_t{1} << 16}) {
    std::vector<double> anchor(n), g_min(n), relax(n), drift(n), t(n), out(n);
    Rng rng(0xD21F7 + n);
    for (std::size_t i = 0; i < n; ++i) {
      g_min[i] = 0.25e-9;
      anchor[i] = rng.uniform(0.3e-9, 2.9e-9);
      relax[i] = oxram::sample_relaxation_amplitude(params, rng);
      drift[i] = oxram::sample_drift_amplitude(params, rng);
      t[i] = std::pow(10.0, rng.uniform(-6.0, 7.0));
    }
    const std::size_t reps = (std::size_t{1} << 22) / n;  // ~4M lane-updates each

    Sweep sweep;
    sweep.lanes = n;
    {
      const auto start = oxmlc::bench::now();
      double sink = 0.0;
      for (std::size_t r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          sink += oxram::drifted_gap(params, anchor[i], g_min[i], relax[i], drift[i], t[i]);
        }
      }
      sweep.scalar_cps = static_cast<double>(n * reps) / seconds_since(start);
      if (sink == 0.0) std::cout << "";  // keep the scalar loop observable
    }
    {
      const auto start = oxmlc::bench::now();
      for (std::size_t r = 0; r < reps; ++r) {
        oxram::drifted_gap_batch(params, anchor, g_min, relax, drift, t, out);
      }
      sweep.batch_cps = static_cast<double>(n * reps) / seconds_since(start);
    }
    sweep.speedup = sweep.batch_cps / sweep.scalar_cps;
    sweeps.push_back(sweep);
  }

  Table kernel({"lanes", "scalar (lanes/s)", "batch (lanes/s)", "speedup"});
  for (const Sweep& sweep : sweeps) {
    kernel.add_row({std::to_string(sweep.lanes), format_scaled(sweep.scalar_cps, 1.0, 0),
                    format_scaled(sweep.batch_cps, 1.0, 0),
                    format_scaled(sweep.speedup, 1.0, 2) + "x"});
  }
  kernel.print(std::cout);

  // (b) retention sweep: margin closure + verify recovery.
  const std::size_t trials = bench::trials_from_args(argc, argv, 24);
  std::cout << "\nretention sweep (4 bits/cell, " << trials << " trials/level):\n";
  mlc::RetentionConfig config = mlc::RetentionConfig::paper_default(4, trials);
  config.verify.max_passes = 3;
  const mlc::RetentionComparison comparison = mlc::run_retention_comparison(config);
  const mlc::RetentionReport& off = comparison.verify_off;
  const mlc::RetentionReport& on = comparison.verify_on;

  Table sweep_table({"t (s)", "window off (kOhm)", "BER off", "window on (kOhm)", "BER on"});
  for (std::size_t k = 0; k < off.points.size(); ++k) {
    sweep_table.add_row(
        {format_si(off.points[k].t, "s", 3),
         format_scaled(off.points[k].margins.worst_case_margin, 1e3, 3),
         format_scaled(off.points[k].ber.ber, 1.0, 4),
         format_scaled(on.points[k].margins.worst_case_margin, 1e3, 3),
         format_scaled(on.points[k].ber.ber, 1.0, 4)});
  }
  sweep_table.print(std::cout);
  // Quote recovery where the fast relaxation dominates the loss; the slow
  // per-cell activation is not filterable, so late decades converge again.
  std::size_t fast_idx = off.points.size() - 1;
  for (std::size_t k = 0; k < off.points.size(); ++k) {
    if (off.points[k].t <= 1.0 + 1e-12) fast_idx = k;
  }
  std::cout << "verify re-programmed " << on.verify_reprogrammed
            << " cells; recovered fraction at " << format_si(off.points[fast_idx].t, "s", 3)
            << ": " << format_scaled(mlc::recovered_window_fraction(comparison, fast_idx), 1.0, 3)
            << "\n";

  Table csv({"kind", "x", "scalar_or_off", "batch_or_on", "ratio"});
  for (const Sweep& sweep : sweeps) {
    csv.add_row({"kernel_lanes_per_s", std::to_string(sweep.lanes),
                 std::to_string(sweep.scalar_cps), std::to_string(sweep.batch_cps),
                 std::to_string(sweep.speedup)});
  }
  for (std::size_t k = 0; k < off.points.size(); ++k) {
    const double w_off = off.points[k].margins.worst_case_margin;
    const double w_on = on.points[k].margins.worst_case_margin;
    csv.add_row({"window_ohm", std::to_string(off.points[k].t), std::to_string(w_off),
                 std::to_string(w_on), std::to_string(w_off == 0.0 ? 0.0 : w_on / w_off)});
  }
  bench::save_csv(csv, "retention_drift.csv");
  return 0;
}
