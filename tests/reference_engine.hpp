// Test oracles: the scalar reference formulations of the pack kernels.
//
// ReferenceEngine runs a CellBatch to completion with the scalar stepper the
// pack engine replaced: per lane and step, the warm-started current-Newton
// stack solve (solve_stack_warm) and the model's scalar recommended_dt /
// advance_gap. Everything else — drive waveform, energy and termination
// bookkeeping, step policy, corner snapping, finalization — is the batch's
// own code, reached through the friend declaration in oxram/batch_kernel.hpp.
// A comparison against the pack engine therefore isolates the stack-solver
// formulation (v_cell-primal masked Newton vs current Newton). Both converge
// to kStackSolveRelTol, and the equivalence suites pin their agreement at
// 1e-9.
//
// reference_drifted_gap_batch is the scalar-libm SoA drift loop the pack
// drift kernel (drifted_gap_batch) is pinned against at 1e-12.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "oxram/batch_kernel.hpp"
#include "oxram/drift.hpp"
#include "oxram/fast_cell.hpp"
#include "oxram/model.hpp"
#include "util/error.hpp"

namespace oxmlc::oxram {

struct ReferenceEngine {
  // Same contract as CellBatch::run(): advances every lane to completion,
  // writes the final gap/virgin state back to the cells and returns the
  // per-lane results by lane id. Lanes are independent, so each runs to
  // completion in turn.
  static std::vector<OperationResult> run(CellBatch& batch) {
    batch.results_.assign(batch.size(), OperationResult{});
    for (std::size_t lane = 0; lane < batch.size(); ++lane) {
      batch.results_[lane].final_gap = batch.gap_[lane];
      while (step_lane(batch, lane)) {
      }
    }
    return std::move(batch.results_);
  }

 private:
  // Advances one lane by one time step; false when the lane's pulse is
  // complete (the lane is finalized and its cell state written back).
  static bool step_lane(CellBatch& b, std::size_t lane) {
    CellBatch::LaneControl& c = b.control_[lane];

    if (!(c.t < c.t_end - 1e-15)) {
      b.finalize_lane(lane);
      return false;
    }

    const OxramParams& p = b.params_[lane];
    const double v_d = b.drive_value(c, c.t);
    const StackOperatingPoint sp = solve_stack_warm(
        p, b.gap_[lane], b.stacks_[lane], c.polarity, v_d, c.v_wl, b.warm_i_[lane]);
    b.warm_i_[lane] = sp.current;
    const double sign = c.polarity == Polarity::kReset ? -1.0 : 1.0;
    const double v_cell_signed = sign * sp.v_cell;

    b.update_sample(lane, v_d, sp.current, sp.v_cell);

    const CellBatch::StepPolicy policy = b.step_policy(c, b.results_[lane], sp.current);
    double dt = std::min(policy.dt_cap,
                         recommended_dt(p, v_cell_signed, b.gap_[lane], c.virgin,
                                        b.rate_factor_[lane], policy.gap_fraction));
    dt = b.apply_corners(c, dt);

    b.gap_[lane] = advance_gap(p, v_cell_signed, b.gap_[lane], c.virgin, dt,
                               b.rate_factor_[lane]);
    if (c.virgin && b.gap_[lane] < p.g_max * 0.98) c.virgin = false;
    c.t += dt;
    return true;
  }
};

// One-lane reference-engine counterparts of FastCell::apply_reset /
// apply_set / apply_forming.
inline OperationResult reference_apply(FastCell& cell, const ResetOperation& op) {
  CellBatch batch;
  batch.add_reset(cell, op);
  return ReferenceEngine::run(batch).front();
}

inline OperationResult reference_apply(FastCell& cell, const SetOperation& op) {
  CellBatch batch;
  batch.add_set(cell, op);
  return ReferenceEngine::run(batch).front();
}

inline OperationResult reference_apply(FastCell& cell, const FormingOperation& op) {
  CellBatch batch;
  batch.add_forming(cell, op);
  return ReferenceEngine::run(batch).front();
}

// The scalar-libm SoA drift loop: the same contract as drifted_gap_batch,
// evaluating phi = 1 - (1 + t/tau)^-nu as exp(-nu*log1p(t/tau)) with libm.
inline void reference_drifted_gap_batch(
    const DriftParams& p, std::span<const double> g_anchor, std::span<const double> g_min,
    std::span<const double> relax_amp, std::span<const double> drift_amp,
    std::span<const double> t, std::span<double> out) {
  const std::size_t n = g_anchor.size();
  OXMLC_CHECK(g_min.size() == n && relax_amp.size() == n && drift_amp.size() == n &&
                  t.size() == n && out.size() == n,
              "reference_drifted_gap_batch: span length mismatch");
  if (!p.enabled) {
    std::copy(g_anchor.begin(), g_anchor.end(), out.begin());
    return;
  }
  const double accel = drift_acceleration(p);
  const double inv_tau_fast = 1.0 / p.tau_fast;
  const double inv_tau_slow = accel / p.tau_slow;
  for (std::size_t i = 0; i < n; ++i) {
    const double ti = t[i];
    if (ti <= 0.0) {
      out[i] = g_anchor[i];
      continue;
    }
    const double phi_fast = 1.0 - std::exp(-p.nu_fast * std::log1p(ti * inv_tau_fast));
    const double phi_slow = 1.0 - std::exp(-p.nu_slow * std::log1p(ti * inv_tau_slow));
    const double depth = std::max(g_anchor[i] - g_min[i], 0.0);
    const double loss = relax_amp[i] * phi_fast + drift_amp[i] * phi_slow;
    out[i] = g_anchor[i] - depth * std::min(loss, 1.0);
  }
}

}  // namespace oxmlc::oxram
