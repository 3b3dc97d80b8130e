// Batched structure-of-arrays fast path: N cells advanced in lockstep
// through the quasi-static stack solve and gap ODE.
//
// This is the one pulse engine of the fast tier. A single-cell operation
// (FastCell::apply_*) is a one-lane batch; array-scale workloads — a 16-cell
// word RESET, a 16-level Monte-Carlo trial, a full array image — add one lane
// per cell. The kernel holds the hot per-lane state (gap, warm-start current,
// C2C rate factor, sampled device parameters) in contiguous arrays and
// advances every active lane one time step per round:
//
//   while lanes remain active:
//     for each active lane: solve stack (warm-start Newton), advance gap ODE
//     compact: lanes whose pulse completed retire and stop being visited
//
// Per-lane termination masking is the SoA analogue of the per-bit-line stop
// in array/bank_write_path.hpp: a lane whose cell current reaches its IrefR
// enters its commanded ramp-down and retires, while neighbouring lanes keep
// programming to their own (deeper) references.
//
// Every lane follows one control flow — trapezoidal waveform, linear
// interpolation of the termination crossing, near-crossing step refinement,
// waveform-corner snapping, the model's gap integrator — and advances through
// the pack engine (batch_simd.cpp, pack_kernels.hpp): a v_cell-primal masked
// Newton stack solve four lanes at a time, on the AVX2 pack when cpuid
// reports AVX2 + FMA and on the portable pack otherwise (bitwise identical).
// The scalar current-Newton stepper it replaced is kept in the tests
// (tests/reference_engine.hpp) as the oracle the pack engine is pinned
// against at 1e-9 (tests/batch_kernel_test.cpp,
// tests/simd_equivalence_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oxram/fast_cell.hpp"
#include "spice/waveform.hpp"

namespace oxmlc::oxram {

// Execution knobs for CellBatch::run(). None may change results: lanes are
// independent, so sharding them across threads is bit-identical to the
// serial sweep.
struct BatchRunOptions {
  // Lane shards claimed through util::parallel_for; 0 = CPUs available.
  std::size_t threads = 1;
};

class CellBatch {
 public:
  CellBatch() = default;

  // Adds one lane programming `cell` with the given operation. The cell's
  // parameters, stack, gap, virgin flag and rate factor are snapshotted at
  // add time; run() writes the final gap/virgin state back. Returns the lane
  // id (index into run()'s result vector). A cell must appear in at most one
  // lane per run, and must not be read or mutated while run() is executing.
  std::size_t add_reset(FastCell& cell, const ResetOperation& op);
  std::size_t add_set(FastCell& cell, const SetOperation& op);
  std::size_t add_forming(FastCell& cell, const FormingOperation& op);

  std::size_t size() const { return gap_.size(); }
  bool empty() const { return gap_.empty(); }

  // Advances every lane to completion and returns per-lane results indexed
  // by lane id. One-shot: call clear() before reusing the batch (capacity is
  // retained across clear()).
  std::vector<OperationResult> run() { return run(BatchRunOptions{}); }
  std::vector<OperationResult> run(const BatchRunOptions& options);

  void clear();

 private:
  // Cold per-lane state: the operation spec and the pulse's stepping
  // variables, kept per lane so a lane can be advanced one step at a time.
  struct LaneControl {
    PulseShape pulse;
    spice::PulseWaveform natural{spice::PulseSpec{}};
    Polarity polarity = Polarity::kSet;
    double v_wl = 0.0;
    double dt_max = 0.0;
    double iref = -1.0;  // < 0: no termination (SET / forming / untimed RESET)
    double termination_delay = 0.0;
    double natural_end = 0.0;
    double t = 0.0;
    double t_end = 0.0;
    double ramp_start = -1.0;
    double ramp_from = 0.0;
    double prev_i = 0.0;
    double prev_p_src = 0.0;
    double prev_p_cell = 0.0;
    double prev_t = 0.0;
    bool first_sample = true;
    bool virgin = false;
  };

  std::size_t add_lane(FastCell& cell, const PulseShape& pulse, Polarity polarity,
                       double v_wl, bool through_mirror, double iref,
                       double termination_delay, double dt_max);

  double drive_value(const LaneControl& lane, double t) const;

  // Pieces of the per-step control flow shared verbatim between the pack
  // engine (batch_simd.cpp) and the test oracle: result finalization, the
  // energy/termination sample bookkeeping, the near-termination step
  // refinement, and the waveform-corner snapping.
  void finalize_lane(std::size_t lane);
  void update_sample(std::size_t lane, double v_d, double current, double v_cell);
  struct StepPolicy {
    double gap_fraction;
    double dt_cap;
  };
  StepPolicy step_policy(const LaneControl& c, const OperationResult& result,
                         double current) const;
  double apply_corners(const LaneControl& c, double dt) const;

  // Advances lanes[0, count) one step; count <= kPackWidth. One
  // instantiation per pack type; active_pack_step() (batch_simd.cpp) picks
  // the one num::simd::active_backend() names, once per run().
  using PackStep = void (CellBatch::*)(const std::size_t* lanes, std::size_t count);
  static PackStep active_pack_step();

  // Runs one shard of lanes [begin, end) to completion with its own
  // active-lane compaction loop, the surviving lanes of each round advanced
  // `step` four at a time; returns the total steps taken. Every lane update
  // is masked element-wise, so results are bitwise independent of how lanes
  // group into packs — and therefore of sharding.
  std::uint64_t run_span(std::size_t begin, std::size_t end, PackStep step);

  // One lane's pack-engine record: the sampled cell and stack parameters
  // (filled once per run() by prepare_scratch) and the values one pack step
  // exchanges between the pack kernel and the scalar helpers below. Plain
  // doubles, no initializers: the kernel is compiled once per ISA
  // (pack_kernels.hpp) and must call no inline code outside its pack.
  struct PackLane {
    double i0, g0, v0, r_leak, g_min, g_max, g_ref, k0, ea_ox, ea_red, dea_form, axi,
        bxi, t_ambient, r_th, t_max_rise, g_upper_virgin, rate_factor, r_series, v_wl,
        acc_vt0, acc_beta, acc_lambda, mir_vt0, mir_beta, is_reset, is_mirror, sign;
    double gap, warm_v, v_drive, fallback;  // step inputs (load_pack)
    double v_cell, current;                 // vector stack solve (kernel)
    double v_signed, virgin;                // settled operating point (settle_pack)
    double rate, dt, gap_next;              // step size and integrated gap
  };
  // A PackStep, instantiated per pack type in the ISA-isolated pack TUs
  // (pack_scalar.cpp, pack_avx2.cpp).
  template <typename Pack>
  void step_pack(const std::size_t* lanes, std::size_t count);
  // The scalar phases of step_pack, out of line in batch_simd.cpp. Each fills
  // the pack's tail records (k >= count) with copies of the last real lane.
  void load_pack(const std::size_t* lanes, std::size_t count, PackLane* pack) const;
  void settle_pack(const std::size_t* lanes, std::size_t count, PackLane* pack);
  void size_pack(const std::size_t* lanes, std::size_t count, PackLane* pack) const;
  void commit_pack(const std::size_t* lanes, std::size_t count, const PackLane* pack);
  void prepare_scratch();

  // Hot SoA state, indexed by lane id. gap_, warm_i_ and warm_v_ are read and
  // written every step; params_/stacks_/rate_factor_ are read-only during
  // run(). warm_v_ is the previous step's cell voltage — the SIMD engine's
  // Newton seed; <= 0 means "no warm point" (cold lane or zero-op last step)
  // and routes the lane through the scalar solver for that step.
  std::vector<double> gap_;
  std::vector<double> warm_i_;
  std::vector<double> warm_v_;
  std::vector<double> rate_factor_;
  std::vector<OxramParams> params_;
  std::vector<StackConfig> stacks_;
  std::vector<PackLane> scratch_;

  std::vector<LaneControl> control_;
  std::vector<FastCell*> cells_;
  std::vector<OperationResult> results_;

  // The scalar reference stepper of the tests (tests/reference_engine.hpp).
  friend struct ReferenceEngine;
};

}  // namespace oxmlc::oxram
