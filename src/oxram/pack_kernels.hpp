// The pack kernels: one source, instantiated once per pack type.
//
// Internal header. Exactly two translation units include it: pack_scalar.cpp
// instantiates PackScalar, pack_avx2.cpp instantiates PackAvx and is the only
// TU built with -mavx2 -mfma. Both build with -ffp-contract=off (see
// src/oxram/CMakeLists.txt): the portable pack lowers through plain C++
// arithmetic while the AVX2 pack uses explicit intrinsics, and letting the
// compiler fuse a*b+c into FMA on one side but not the other would break the
// bitwise PackScalar == PackAvx guarantee the dispatch safety tests pin.
//
// ISA isolation: everything here runs on pack types, raw arrays and plain
// structs, and calls the scalar per-lane work (stack fallback solves, energy
// and termination bookkeeping, step policy) out of line in the generic TUs.
// No inline function outside the PackAvx instantiation is ever emitted by the
// AVX2 TU, at any optimisation level, so the linker cannot pick an
// AVX-encoded copy of generic code (scripts/check_isa_isolation.py).
//
// CellBatch::step_pack — why v_cell-primal: the scalar solvers iterate on
// the stack current I and pay an *inner* Newton inversion
// (voltage_for_current) for every residual evaluation. Rooting the
// equivalent residual
//
//   G(x) = Ids_access(Vgs(x), Vds(x)) - I_cell(x),   x = cell voltage
//
// evaluates the cell conduction law *directly* (one exp for the tunneling
// prefactor per solve, one exp per iteration for sinh/cosh), eliminating the
// inner inversion entirely. G is strictly decreasing (G' <= -g_cell < 0), so
// the same safeguarded-bisection bracket logic applies, and the acceptance
// bound |G(x)| <= max(relTol * I, absTol) implies the same current-space
// error bound the scalar solver guarantees (|I - root| <= |G|, since
// |dG/dI| >= 1 along the curve). The batch equivalence suite pins the
// engines against each other at 1e-9.
//
// Determinism contract: every pack update is element-wise and masked per
// lane — a lane's arithmetic sequence depends only on its own state, never on
// which lanes share its pack or how many loop rounds its neighbours need.
// Results are therefore bitwise independent of pack grouping, and hence of
// lane sharding across threads. Lanes the vector solver cannot own (cold
// start, no conduction, voltage cap, non-convergence) fall back to the scalar
// solve_stack_warm for that step, which owns those edges by construction.
#pragma once

#include <cstddef>

#include "numeric/simd.hpp"
#include "oxram/batch_kernel.hpp"
#include "oxram/drift.hpp"
#include "oxram/stack_solver.hpp"
#include "util/units.hpp"

namespace oxmlc::oxram::detail {

// Per-pack gathered cell parameters (one Vec per OxramParams field the
// kernels touch; axi/bxi are the premultiplied barrier-lowering products).
template <typename P>
struct PackCell {
  using V = typename P::Vec;
  V i0, g0, v0, r_leak, g_min, g_max, g_ref, k0, ea_ox, ea_red, dea_form, axi, bxi,
      t_ambient, r_th, t_max_rise, g_upper_virgin, rate_factor;
};

// Per-pack gathered stack parameters and topology masks.
template <typename P>
struct PackStack {
  using V = typename P::Vec;
  V r_series, v_wl, acc_vt0, acc_beta, acc_lambda, mir_vt0, mir_beta;
  typename P::Mask reset, mirror;
};

// gap_rate() on a pack: same statement sequence as the scalar model with
// sinh folded into the one exp the clamp already bounds. Four exps serve
// four lanes where the scalar path spends ~4 libm calls per lane.
template <typename P>
typename P::Vec gap_rate_pack(const PackCell<P>& c, typename P::Vec v,
                              typename P::Vec g, typename P::Mask virgin) {
  using V = typename P::Vec;
  const V zero = V::broadcast(0.0);
  const V half = V::broadcast(0.5);
  const V one = V::broadcast(1.0);

  // cell_current(v, g); sinh(clamp(v/v0)) via e - 1/e.
  const V arg = P::min(P::max(v / c.v0, V::broadcast(-60.0)), V::broadcast(60.0));
  const V e = num::simd::exp<P>(arg);
  const V sh = (e - one / e) * half;
  const V i = c.i0 * num::simd::exp<P>(zero - g / c.g0) * sh + v / c.r_leak;

  // local_temperature + kT in eV.
  const V t_loc = c.t_ambient + P::min(c.r_th * P::abs(v * i), c.t_max_rise);
  const V kt =
      V::broadcast(phys::kBoltzmann) * t_loc / V::broadcast(phys::kElementaryCharge);

  // Oxidation: RESET polarity drives it, self-limited through the field term.
  const V field = P::min(V::broadcast(2.0),
                         P::sqrt(c.g_ref / P::max(g, V::broadcast(0.25) * c.g_ref)));
  const V v_reset = P::max(zero, zero - v);
  const V ox_exponent = P::min(zero, (zero - (c.ea_ox - c.axi * v_reset * field)) / kt);
  const V ox = c.k0 * (one - g / c.g_max) * num::simd::exp<P>(ox_exponent);

  // Reduction: SET polarity; virgin lanes carry the forming barrier.
  const V ea_red = c.ea_red + P::select(virgin, c.dea_form, zero);
  const V v_set = P::max(zero, v);
  const V red_exponent = P::min(zero, (zero - (ea_red - c.bxi * v_set)) / kt);
  const V red = c.k0 * (g / c.g_max) * num::simd::exp<P>(red_exponent);

  return c.rate_factor * (ox - red);
}

// advance_gap() on a pack: masked RK2 sub-stepping. Finished lanes freeze
// (their gap/remaining stop updating), so each lane executes exactly the
// scalar loop's arithmetic regardless of its pack neighbours.
template <typename P>
typename P::Vec advance_gap_pack(const PackCell<P>& c, typename P::Vec v,
                                 typename P::Vec g, typename P::Mask virgin,
                                 typename P::Vec dt) {
  using V = typename P::Vec;
  using M = typename P::Mask;
  const V zero = V::broadcast(0.0);
  const V half = V::broadcast(0.5);
  const V g_upper = P::select(virgin, c.g_upper_virgin, c.g_max);
  const V g_lower = c.g_min;
  const V max_move = V::broadcast(0.05) * c.g0;

  V gap = g;
  V remaining = dt;
  M active = P::gt(remaining, zero);
  for (int guard = 0; guard < 100000 && active.any(); ++guard) {
    const V rate = gap_rate_pack<P>(c, v, gap, virgin);
    // rate == 0 lanes stop before stepping (mirrors the scalar break).
    active = active & !(P::le(rate, zero) & P::ge(rate, zero));
    const V h = P::min(remaining, max_move / P::abs(rate));
    const V g_half = P::min(P::max(gap + half * h * rate, g_lower), g_upper);
    const V rate_half = gap_rate_pack<P>(c, v, g_half, virgin);
    const V g_next = P::min(P::max(gap + h * rate_half, g_lower), g_upper);
    const V rem_next = remaining - h;
    gap = P::select(active, g_next, gap);
    remaining = P::select(active, rem_next, remaining);
    const M pinned = (P::le(gap, g_lower) & P::lt(rate_half, zero)) |
                     (P::ge(gap, g_upper) & P::gt(rate_half, zero));
    active = active & !pinned & P::gt(remaining, zero);
  }
  return gap;
}

// The drift trajectory of drifted_gap_batch with the pack transcendentals, 4
// lanes per round. Every multiply-add is spelled with P::fma so the compiler
// cannot contract the portable pack differently from the AVX2 one.
template <typename P>
void drifted_gap_batch_pack(const DriftParams& p, const double* g_anchor,
                            const double* g_min, const double* relax_amp,
                            const double* drift_amp, const double* t, double* out,
                            std::size_t n) {
  namespace simd = num::simd;
  using V = typename P::Vec;
  const double accel = drift_acceleration(p);
  const V inv_tau_fast = V::broadcast(1.0 / p.tau_fast);
  const V inv_tau_slow = V::broadcast(accel / p.tau_slow);
  const V neg_nu_fast = V::broadcast(-p.nu_fast);
  const V neg_nu_slow = V::broadcast(-p.nu_slow);
  const V zero = V::broadcast(0.0);
  const V one = V::broadcast(1.0);

  const auto kernel = [&](V ga, V gm, V ra, V da, V ti) {
    const V phi_fast =
        one - simd::exp<P>(neg_nu_fast * simd::log1p<P>(ti * inv_tau_fast));
    const V phi_slow =
        one - simd::exp<P>(neg_nu_slow * simd::log1p<P>(ti * inv_tau_slow));
    const V depth = P::max(ga - gm, zero);
    const V loss = P::min(P::fma(ra, phi_fast, da * phi_slow), one);
    const V drifted = P::fma(zero - depth, loss, ga);
    // t <= 0 lanes stay at the anchor, exactly like the reference early-out.
    return P::select(P::le(ti, zero), ga, drifted);
  };

  std::size_t i = 0;
  for (; i + simd::kPackWidth <= n; i += simd::kPackWidth) {
    kernel(V::load(&g_anchor[i]), V::load(&g_min[i]), V::load(&relax_amp[i]),
           V::load(&drift_amp[i]), V::load(&t[i]))
        .store(&out[i]);
  }
  if (i < n) {
    // Remainder: pad the tail into full packs (lanewise ops cannot leak across
    // lanes, so the padding value is irrelevant — t = 0 keeps it benign).
    double ga[simd::kPackWidth] = {}, gm[simd::kPackWidth] = {},
           ra[simd::kPackWidth] = {}, da[simd::kPackWidth] = {},
           ti[simd::kPackWidth] = {}, res[simd::kPackWidth] = {};
    for (std::size_t k = i; k < n; ++k) {
      ga[k - i] = g_anchor[k];
      gm[k - i] = g_min[k];
      ra[k - i] = relax_amp[k];
      da[k - i] = drift_amp[k];
      ti[k - i] = t[k];
    }
    kernel(V::load(ga), V::load(gm), V::load(ra), V::load(da), V::load(ti)).store(res);
    for (std::size_t k = i; k < n; ++k) out[k] = res[k - i];
  }
}

}  // namespace oxmlc::oxram::detail

namespace oxmlc::oxram {

template <typename P>
void CellBatch::step_pack(const std::size_t* lanes, std::size_t count) {
  using V = typename P::Vec;
  using M = typename P::Mask;
  constexpr int W = num::simd::kPackWidth;

  PackLane pack[W];
  load_pack(lanes, count, pack);
  const auto gather = [&pack](double PackLane::*field) {
    double buf[W];
    for (int k = 0; k < W; ++k) buf[k] = pack[k].*field;
    return V::load(buf);
  };
  const auto scatter = [&pack](double PackLane::*field, V value) {
    double buf[W];
    value.store(buf);
    for (int k = 0; k < W; ++k) pack[k].*field = buf[k];
  };
  const V zero = V::broadcast(0.0);
  const V half = V::broadcast(0.5);
  const V one = V::broadcast(1.0);
  const V two = V::broadcast(2.0);

  detail::PackCell<P> cell;
  cell.i0 = gather(&PackLane::i0);
  cell.g0 = gather(&PackLane::g0);
  cell.v0 = gather(&PackLane::v0);
  cell.r_leak = gather(&PackLane::r_leak);
  cell.g_min = gather(&PackLane::g_min);
  cell.g_max = gather(&PackLane::g_max);
  cell.g_ref = gather(&PackLane::g_ref);
  cell.k0 = gather(&PackLane::k0);
  cell.ea_ox = gather(&PackLane::ea_ox);
  cell.ea_red = gather(&PackLane::ea_red);
  cell.dea_form = gather(&PackLane::dea_form);
  cell.axi = gather(&PackLane::axi);
  cell.bxi = gather(&PackLane::bxi);
  cell.t_ambient = gather(&PackLane::t_ambient);
  cell.r_th = gather(&PackLane::r_th);
  cell.t_max_rise = gather(&PackLane::t_max_rise);
  cell.g_upper_virgin = gather(&PackLane::g_upper_virgin);
  cell.rate_factor = gather(&PackLane::rate_factor);

  detail::PackStack<P> stack;
  stack.r_series = gather(&PackLane::r_series);
  stack.v_wl = gather(&PackLane::v_wl);
  stack.acc_vt0 = gather(&PackLane::acc_vt0);
  stack.acc_beta = gather(&PackLane::acc_beta);
  stack.acc_lambda = gather(&PackLane::acc_lambda);
  stack.mir_vt0 = gather(&PackLane::mir_vt0);
  stack.mir_beta = gather(&PackLane::mir_beta);
  stack.reset = P::gt(gather(&PackLane::is_reset), half);
  stack.mirror = P::gt(gather(&PackLane::is_mirror), half);

  const V v_drive = gather(&PackLane::v_drive);

  // ---- masked safeguarded Newton on G(x) = Ids(x) - I_cell(x) ----
  const V g = gather(&PackLane::gap);
  const V a = cell.i0 * num::simd::exp<P>(zero - g / cell.g0);
  const V inv_rl = one / cell.r_leak;
  const V rel = V::broadcast(kStackSolveRelTol);
  const V abst = V::broadcast(kStackSolveAbsTol);
  // Below ~nV the root region carries sub-pA currents: treat as "stack cannot
  // conduct" and let the scalar solver make the zero-op call.
  const V tiny_v = V::broadcast(1e-9);

  V x = gather(&PackLane::warm_v);
  V lo = zero;
  V hi = V::broadcast(detail::kStackVcellCap);
  M fallback = P::gt(gather(&PackLane::fallback), half);
  M done = fallback;
  V x_out = zero;
  V i_out = zero;

  for (int iter = 0; iter < 32 && !done.all(); ++iter) {
    const V arg = P::min(P::max(x / cell.v0, V::broadcast(-60.0)), V::broadcast(60.0));
    const V e = num::simd::exp<P>(arg);
    const V ie = one / e;
    const V sh = (e - ie) * half;
    const V ch = (e + ie) * half;
    const V i = a * sh + x / cell.r_leak;
    const V gcell = a * ch / cell.v0 + inv_rl;

    // Diode-connected mirror drop and its x-derivative (mirror lanes only);
    // beta * sqrt(2i/beta) == sqrt(2*i*beta).
    const V sq = P::sqrt(two * i / stack.mir_beta);
    const V vsink = P::select(stack.mirror, stack.mir_vt0 + sq, zero);
    const V dsink = P::select(stack.mirror, gcell / (stack.mir_beta * sq), zero);

    const V ir = i * stack.r_series;
    // RESET topology: SL (drive) - access - BE - cell - TE/BL - [mirror] - gnd.
    const V nbe_r = vsink + x;
    const V vgs_r = stack.v_wl - nbe_r;
    const V vds_r = (v_drive - ir) - nbe_r;
    const V dn_r = one + dsink;
    const V dvgs_r = zero - dn_r;
    const V dvds_r = (zero - stack.r_series * gcell) - dn_r;
    // SET topology: BL (drive) - TE - cell - BE - access - SL/gnd.
    const V vds_s = (v_drive - ir) - x;
    const V dvds_s = (zero - stack.r_series * gcell) - one;

    const V vgs = P::select(stack.reset, vgs_r, stack.v_wl);
    const V vds = P::select(stack.reset, vds_r, vds_s);
    const V dvgs = P::select(stack.reset, dvgs_r, zero);
    const V dvds = P::select(stack.reset, dvds_r, dvds_s);

    // Access device, level-1 at vbs = 0 (vth == vt0 exactly).
    const V vov = vgs - stack.acc_vt0;
    const V clm = one + stack.acc_lambda * vds;
    const V q = vov * vds - half * vds * vds;
    const V hvv = half * vov * vov;
    const M tri = P::lt(vds, vov);
    V ids = P::select(tri, stack.acc_beta * q * clm, stack.acc_beta * hvv * clm);
    V gm = P::select(tri, stack.acc_beta * vds * clm, stack.acc_beta * vov * clm);
    V gds = P::select(tri,
                      stack.acc_beta * (vov - vds) * clm +
                          stack.acc_beta * q * stack.acc_lambda,
                      stack.acc_beta * hvv * stack.acc_lambda);
    const M off = P::le(vov, zero) | P::le(vds, zero);
    ids = P::select(off, zero, ids);
    gm = P::select(off, zero, gm);
    gds = P::select(off, zero, gds);

    const V resid = ids - i;
    const V slope = gm * dvgs + gds * dvds - gcell;  // strictly negative

    const M conv = P::le(P::abs(resid), P::max(rel * i, abst));
    const M newly = conv & !done;
    x_out = P::select(newly, x, x_out);
    i_out = P::select(newly, i, i_out);
    done = done | conv;

    const M live = !done;
    lo = P::select(P::gt(resid, zero) & live, x, lo);
    hi = P::select(P::le(resid, zero) & live, x, hi);
    // Bracket collapsing onto zero volts: no conduction — scalar owns it.
    const M nocond = live & P::lt(hi, tiny_v);
    fallback = fallback | nocond;
    done = done | nocond;

    V xn = x - resid / slope;
    const M ok = P::gt(xn, lo) & P::lt(xn, hi);
    xn = P::select(ok, xn, half * (lo + hi));
    x = P::select(done, x, xn);
  }
  fallback = fallback | !done;
  scatter(&PackLane::fallback, P::select(fallback, one, zero));
  scatter(&PackLane::v_cell, x_out);
  scatter(&PackLane::current, i_out);

  // ---- scalar per-lane completion: fallback solves, warm state, energy,
  // termination ----
  settle_pack(lanes, count, pack);

  // ---- step-size policy: one pack rate evaluation, scalar bound logic ----
  const V v_signed = gather(&PackLane::v_signed);
  const M virgin = P::gt(gather(&PackLane::virgin), half);
  scatter(&PackLane::rate, detail::gap_rate_pack<P>(cell, v_signed, g, virgin));
  size_pack(lanes, count, pack);

  // ---- gap integration and time advance ----
  scatter(&PackLane::gap_next, detail::advance_gap_pack<P>(cell, v_signed, g, virgin,
                                                           gather(&PackLane::dt)));
  commit_pack(lanes, count, pack);
}

}  // namespace oxmlc::oxram
