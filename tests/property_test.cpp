// Property-based tests: parameterized sweeps asserting invariants across wide
// input ranges rather than single examples.
#include <gtest/gtest.h>

#include <cmath>

#include "devices/mosfet.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "numeric/sparse_lu.hpp"
#include "oxram/fast_cell.hpp"
#include "oxram/model.hpp"
#include "spice/dc.hpp"
#include "util/rng.hpp"

namespace oxmlc {
namespace {

// ---------------------------------------------------------------------------
// Property: for any randomly generated resistive ladder network, the MNA
// solution satisfies KCL at every node to solver tolerance.
// ---------------------------------------------------------------------------

class RandomLadderKcl : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLadderKcl, SolutionSatisfiesKcl) {
  Rng rng(GetParam());
  spice::Circuit c;
  const std::size_t n_nodes = 4 + rng.uniform_index(20);
  std::vector<int> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    nodes.push_back(c.node("n" + std::to_string(i)));
  }
  // A random spanning chain guarantees connectivity, plus random extra edges.
  std::vector<dev::Resistor*> resistors;
  for (std::size_t i = 1; i < n_nodes; ++i) {
    resistors.push_back(&c.add<dev::Resistor>(
        "Rchain" + std::to_string(i), nodes[i - 1], nodes[i],
        std::pow(10.0, rng.uniform(2.0, 6.0))));
  }
  const std::size_t extras = rng.uniform_index(12);
  for (std::size_t e = 0; e < extras; ++e) {
    const int a = nodes[rng.uniform_index(n_nodes)];
    const int b = rng.uniform() < 0.3 ? spice::kGround
                                      : nodes[rng.uniform_index(n_nodes)];
    if (a == b) continue;
    resistors.push_back(&c.add<dev::Resistor>("Rx" + std::to_string(e), a, b,
                                              std::pow(10.0, rng.uniform(2.0, 6.0))));
  }
  c.add<dev::VoltageSource>("V", nodes[0], spice::kGround, rng.uniform(0.5, 3.3));
  c.add<dev::Resistor>("Rgnd", nodes[n_nodes - 1], spice::kGround,
                       std::pow(10.0, rng.uniform(2.0, 5.0)));

  spice::MnaSystem system(c);
  const auto result = spice::solve_dc(system);
  ASSERT_TRUE(result.converged);

  // KCL check per node: sum of resistor currents into the node (excluding the
  // source node, whose branch carries the balance).
  std::vector<double> net(c.node_count(), 0.0);
  for (dev::Resistor* r : resistors) {
    const double i = r->current(result.solution);
    if (r->nodes()[0] >= 0) net[static_cast<std::size_t>(r->nodes()[0])] -= i;
    if (r->nodes()[1] >= 0) net[static_cast<std::size_t>(r->nodes()[1])] += i;
  }
  // Also the explicit ground resistor.
  {
    auto* rg = dynamic_cast<dev::Resistor*>(c.find_device("Rgnd"));
    const double i = rg->current(result.solution);
    net[static_cast<std::size_t>(rg->nodes()[0])] -= i;
  }
  for (std::size_t k = 1; k < n_nodes; ++k) {  // node 0 carries the source branch
    EXPECT_NEAR(net[static_cast<std::size_t>(nodes[k])], 0.0, 1e-7)
        << "KCL violated at node " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLadderKcl,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------------------------------------------------------------------------
// Property: sparse LU equals dense LU on random diagonally-dominant systems.
// ---------------------------------------------------------------------------

class SparseDenseEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseDenseEquivalence, SameSolution) {
  Rng rng(GetParam());
  const std::size_t n = 3 + rng.uniform_index(50);
  num::TripletMatrix triplets(n);
  num::DenseMatrix dense(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const double d = 5.0 + rng.uniform();
    triplets.add(r, r, d);
    dense.add(r, r, d);
    const std::size_t offdiag = rng.uniform_index(4);
    for (std::size_t k = 0; k < offdiag; ++k) {
      const std::size_t col = rng.uniform_index(n);
      const double v = rng.normal(0, 0.8);
      triplets.add(r, col, v);
      dense.add(r, col, v);
    }
  }
  std::vector<double> b(n);
  for (auto& v : b) v = rng.normal(0, 1);

  num::SparseLu sparse;
  sparse.factorize(num::CsrMatrix::from_triplets(triplets));
  num::DenseLu dlu;
  dlu.factorize(dense);
  std::vector<double> xs(n), xd(n);
  sparse.solve(b, xs);
  dlu.solve(b, xd);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseDenseEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// Property: MOSFET level-1 current is monotone in Vgs and Vds (fixed bulk),
// and the stamped derivatives are consistent everywhere sampled.
// ---------------------------------------------------------------------------

class MosfetMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MosfetMonotonicity, IdsMonotoneAndDerivativesConsistent) {
  Rng rng(GetParam());
  dev::MosfetParams p = dev::tech130hv::nmos(rng.uniform(0.5e-6, 50e-6),
                                             rng.uniform(0.2e-6, 4e-6));
  p.lambda = rng.uniform(0.0, 0.1);
  for (int trial = 0; trial < 30; ++trial) {
    const double vgs = rng.uniform(0.0, 3.3);
    const double vds = rng.uniform(0.0, 3.3);
    const double vbs = rng.uniform(-1.0, 0.0);
    const auto base = dev::evaluate_level1(p, vgs, vds, vbs);
    const auto up_g = dev::evaluate_level1(p, vgs + 1e-3, vds, vbs);
    const auto up_d = dev::evaluate_level1(p, vgs, vds + 1e-3, vbs);
    EXPECT_GE(up_g.ids, base.ids - 1e-15);
    EXPECT_GE(up_d.ids, base.ids - 1e-15);
    EXPECT_GE(base.gm, 0.0);
    EXPECT_GE(base.gds, 0.0);
    EXPECT_GE(base.gmbs, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MosfetMonotonicity, ::testing::Values(7, 14, 28, 56));

// ---------------------------------------------------------------------------
// Property: terminated RESET across the whole (iref, C2C, D2D) space —
// resistance bounded by the physical window, latency positive, energy
// positive, and the final current at the termination instant ~= iref.
// ---------------------------------------------------------------------------

class TerminatedResetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TerminatedResetProperty, PhysicalInvariantsHold) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    const auto device = oxram::sample_device(oxram::OxramParams{},
                                             oxram::OxramVariability{}, rng);
    oxram::FastCell cell = oxram::FastCell::formed_lrs(device, oxram::StackConfig{});
    cell.set_rate_factor(oxram::sample_cycle_rate_factor(oxram::OxramVariability{}, rng));
    cell.apply_set(oxram::SetOperation{});

    const double iref = rng.uniform(6e-6, 36e-6);
    oxram::ResetOperation op;
    op.iref = iref;
    op.pulse.width = 10e-6;
    const auto result = cell.apply_reset(op);
    ASSERT_TRUE(result.terminated);

    EXPECT_GT(result.t_terminate, 0.0);
    EXPECT_LE(result.t_terminate, 10e-6);
    EXPECT_GT(result.energy_source, 0.0);
    EXPECT_GE(result.energy_source, result.energy_cell);

    const double r = cell.read().r_cell;
    EXPECT_GT(r, 20e3);   // never below the shallowest MLC state
    EXPECT_LT(r, 600e3);  // never into the saturated-HRS decade

    // At the final gap the plateau-bias current is within a few percent of
    // iref: the pulse stopped where the comparator saw the crossing.
    oxram::StackConfig plateau = cell.stack();
    plateau.bl_through_mirror = true;
    const double at_crossing =
        oxram::solve_stack(device, cell.gap(), plateau, oxram::Polarity::kReset,
                           op.pulse.amplitude, op.v_wl)
            .current;
    EXPECT_NEAR(at_crossing, iref, 0.08 * iref);

    // Gap stays inside the physical window.
    EXPECT_GE(cell.gap(), device.g_min * (1 - 1e-12));
    EXPECT_LE(cell.gap(), device.g_max * (1 + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TerminatedResetProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// Property: R(IrefR) is strictly decreasing for any D2D device sample
// (monotonicity is what makes ISO-dI allocation decodable).
// ---------------------------------------------------------------------------

class MonotoneAllocation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonotoneAllocation, ResistanceStrictlyDecreasingInIref) {
  Rng rng(GetParam());
  const auto device =
      oxram::sample_device(oxram::OxramParams{}, oxram::OxramVariability{}, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (double iref = 6e-6; iref <= 36e-6 + 1e-9; iref += 6e-6) {
    oxram::FastCell cell = oxram::FastCell::formed_lrs(device, oxram::StackConfig{});
    cell.apply_set(oxram::SetOperation{});
    oxram::ResetOperation op;
    op.iref = iref;
    op.pulse.width = 10e-6;
    cell.apply_reset(op);
    const double r = cell.read().r_cell;
    EXPECT_LT(r, prev) << "non-monotone at iref=" << iref;
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotoneAllocation, ::testing::Values(3, 6, 9, 12));

// ---------------------------------------------------------------------------
// Property: the conduction law's resistance is monotone in the gap for any
// read voltage in the operating range.
// ---------------------------------------------------------------------------

class ConductionMonotone : public ::testing::TestWithParam<double> {};

TEST_P(ConductionMonotone, ResistanceIncreasesWithGap) {
  const oxram::OxramParams p;
  const double v_read = GetParam();
  double prev = 0.0;
  for (double g = p.g_min; g <= p.g_max; g += 0.05e-9) {
    const double r = oxram::resistance_at(p, v_read, g);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(ReadVoltages, ConductionMonotone,
                         ::testing::Values(0.1, 0.2, 0.3, 0.5, 0.8));

}  // namespace
}  // namespace oxmlc
