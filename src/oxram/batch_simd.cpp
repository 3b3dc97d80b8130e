// SIMD engine of CellBatch, generic half: the backend dispatch, the per-run
// parameter records and the scalar phases of each pack step. The pack kernel
// itself (CellBatch::step_pack) lives in pack_kernels.hpp and is instantiated
// per pack type in pack_scalar.cpp and the ISA-isolated pack_avx2.cpp; this
// TU only names the instantiations.
#include <algorithm>

#include "numeric/simd.hpp"
#include "obs/registry.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/model.hpp"
#include "oxram/stack_solver.hpp"

namespace oxmlc::oxram {
namespace {

struct SimdMetrics {
  obs::Counter& fallback_solves = obs::registry().counter("batch.simd_fallback_solves");

  static SimdMetrics& get() {
    static SimdMetrics metrics;
    return metrics;
  }
};

// Tail records of a pack replicate its last real lane: pack arithmetic is
// element-wise, so padding cannot perturb real lanes, and the scalar side
// effects loop over the real count only.
template <typename Record>
void pad_tail(std::size_t count, Record* pack) {
  for (std::size_t k = count; k < num::simd::kPackWidth; ++k) pack[k] = pack[count - 1];
}

}  // namespace

CellBatch::PackStep CellBatch::active_pack_step() {
  // active_backend() reports kAvx2 only where cpuid confirmed AVX2 + FMA;
  // anything else runs the portable pack, which is bitwise identical.
#if OXMLC_SIMD_HAS_AVX2
  if (num::simd::active_backend() == num::simd::Backend::kAvx2) {
    return &CellBatch::step_pack<num::simd::PackAvx>;
  }
#endif
  return &CellBatch::step_pack<num::simd::PackScalar>;
}

void CellBatch::prepare_scratch() {
  scratch_.resize(size());
  for (std::size_t l = 0; l < size(); ++l) {
    const OxramParams& p = params_[l];
    const StackConfig& st = stacks_[l];
    const LaneControl& c = control_[l];
    PackLane& s = scratch_[l];
    s.i0 = p.i0;
    s.g0 = p.g0;
    s.v0 = p.v0;
    s.r_leak = p.r_leak;
    s.g_min = p.g_min;
    s.g_max = p.g_max;
    s.g_ref = p.g_ref;
    s.k0 = p.k0;
    s.ea_ox = p.ea_ox;
    s.ea_red = p.ea_red;
    s.dea_form = p.dea_form;
    s.axi = p.alpha * p.xi;
    s.bxi = (1.0 - p.alpha) * p.xi;
    s.t_ambient = p.t_ambient;
    s.r_th = p.r_th;
    s.t_max_rise = p.t_max_rise;
    s.g_upper_virgin = std::max(p.g_virgin, p.g_max);
    s.rate_factor = rate_factor_[l];
    s.r_series = st.r_series;
    s.v_wl = c.v_wl;
    s.acc_vt0 = st.access.vt0;
    s.acc_beta = st.access.beta();
    s.acc_lambda = st.access.lambda;
    s.mir_vt0 = st.mirror.vt0;
    s.mir_beta = st.mirror.beta();
    const bool reset = c.polarity == Polarity::kReset;
    s.is_reset = reset ? 1.0 : 0.0;
    s.is_mirror = (st.bl_through_mirror && reset) ? 1.0 : 0.0;
    s.sign = reset ? -1.0 : 1.0;
  }
}

void CellBatch::load_pack(const std::size_t* lanes, std::size_t count,
                          PackLane* pack) const {
  // Per-lane drive value and vector-solver eligibility. A lane without a
  // usable warm voltage (cold start, zero-op last step, voltage cap) or
  // without positive drive goes to the scalar solver for this step.
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lane = lanes[k];
    PackLane& r = pack[k];
    r = scratch_[lane];
    r.gap = gap_[lane];
    r.warm_v = warm_v_[lane];
    r.v_drive = drive_value(control_[lane], control_[lane].t);
    const bool fb = r.v_drive <= 0.0 || r.warm_v <= 0.0 ||
                    r.warm_v >= detail::kStackVcellCap;
    r.fallback = fb ? 1.0 : 0.0;
  }
  pad_tail(count, pack);
}

void CellBatch::settle_pack(const std::size_t* lanes, std::size_t count,
                            PackLane* pack) {
  std::uint64_t fallbacks = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lane = lanes[k];
    LaneControl& c = control_[lane];
    PackLane& r = pack[k];
    if (r.fallback > 0.5) {
      const StackOperatingPoint sp =
          solve_stack_warm(params_[lane], gap_[lane], stacks_[lane], c.polarity,
                           r.v_drive, c.v_wl, warm_i_[lane]);
      r.current = sp.current;
      r.v_cell = sp.v_cell;
      ++fallbacks;
    }
    warm_i_[lane] = r.current;
    warm_v_[lane] = r.current > 0.0 ? r.v_cell : 0.0;
    r.v_signed = r.sign * r.v_cell;
    r.virgin = c.virgin ? 1.0 : 0.0;
    update_sample(lane, r.v_drive, r.current, r.v_cell);
  }
  pad_tail(count, pack);
  if (fallbacks > 0) SimdMetrics::get().fallback_solves.add(fallbacks);
}

void CellBatch::size_pack(const std::size_t* lanes, std::size_t count,
                          PackLane* pack) const {
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lane = lanes[k];
    const LaneControl& c = control_[lane];
    PackLane& r = pack[k];
    const StepPolicy policy = step_policy(c, results_[lane], r.current);
    const double dt_rec = recommended_dt_given_rate(params_[lane], gap_[lane], c.virgin,
                                                    r.rate, policy.gap_fraction);
    r.dt = apply_corners(c, std::min(policy.dt_cap, dt_rec));
  }
  pad_tail(count, pack);
}

void CellBatch::commit_pack(const std::size_t* lanes, std::size_t count,
                            const PackLane* pack) {
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lane = lanes[k];
    LaneControl& c = control_[lane];
    gap_[lane] = pack[k].gap_next;
    if (c.virgin && gap_[lane] < params_[lane].g_max * 0.98) c.virgin = false;
    c.t += pack[k].dt;
  }
}

}  // namespace oxmlc::oxram
