#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mc/runner.hpp"
#include "mlc/retention.hpp"
#include "obs/json.hpp"
#include "oxram/model.hpp"
#include "util/error.hpp"

namespace oxmlc::mlc {
namespace {

// Small sweeps keep the MC depth affordable in the test suite; the full
// paper-scale study runs in bench_retention_drift and the CLI.
RetentionConfig small_config(std::size_t bits, std::size_t trials) {
  RetentionConfig config = RetentionConfig::paper_default(bits, trials);
  config.study.mc.threads = 1;
  return config;
}

TEST(Retention, PaperDefaultCoversDecades) {
  const RetentionConfig config = RetentionConfig::paper_default();
  ASSERT_GE(config.times.size(), 2u);
  EXPECT_TRUE(std::is_sorted(config.times.begin(), config.times.end()));
  EXPECT_GE(config.times.back() / config.times.front(), 1e9);
}

TEST(Retention, RejectsBadObservationTimes) {
  RetentionConfig config = small_config(2, 4);
  config.times.clear();
  EXPECT_THROW(run_retention_study(config), InvalidArgumentError);
  config.times = {1.0, 0.5};
  EXPECT_THROW(run_retention_study(config), InvalidArgumentError);
}

// Acceptance: over decades of time the worst-case inter-level window closes
// monotonically — both drift components only ever move states toward LRS, and
// the deeper level of every adjacent pair loses resistance faster.
TEST(Retention, MarginClosureIsMonotoneOverDecades) {
  RetentionConfig config = small_config(4, 16);
  const RetentionReport report = run_retention_study(config);

  ASSERT_EQ(report.points.size(), config.times.size());
  EXPECT_TRUE(std::isfinite(report.initial_margins.worst_case_margin));
  EXPECT_GT(report.initial_margins.worst_case_margin, 0.0);
  // The *open* window (margin clamped at zero) closes monotonically: every
  // trajectory moves toward LRS, so a pair's gap can only shrink while it is
  // still positive. Once a pair has inverted, the ohmic overlap of the
  // collapsed tail sample is not a monotone quantity — the low-R tail moves
  // more slowly in ohms than the level chasing it — so the raw margin is not
  // pinned past zero.
  double prev = std::max(report.initial_margins.worst_case_margin, 0.0);
  const double slack = 1e-9 * prev;
  for (const RetentionPoint& point : report.points) {
    const double open = std::max(point.margins.worst_case_margin, 0.0);
    EXPECT_LE(open, prev + slack) << "t = " << point.t;
    prev = open;
  }
  // The decade ladder ends deep enough that real margin is actually lost.
  EXPECT_LT(report.points.back().margins.worst_case_margin,
            0.9 * report.initial_margins.worst_case_margin);
  // Decode errors accumulate as states drift out of band: each trajectory is
  // monotone, so a trial that left its band never returns (the slack covers
  // the rare overshoot cell that first drifts down *into* its band).
  const double ber_slack = 2.0 / static_cast<double>(report.initial_ber.samples);
  double prev_ber = report.initial_ber.ber;
  for (const RetentionPoint& point : report.points) {
    EXPECT_GE(point.ber.ber, prev_ber - ber_slack) << "t = " << point.t;
    prev_ber = point.ber.ber;
  }
  EXPECT_GE(report.points.back().ber.ber, report.initial_ber.ber);
}

// Acceptance: the relaxation-aware verify recovers at least half of the
// drift-lost window while the fast component dominates the loss (the slow
// retention component is a per-cell activation no verify can filter).
TEST(Retention, RelaxVerifyRecoversAtLeastHalfTheLostWindow) {
  RetentionConfig config = small_config(4, 24);
  config.times = {1e-3, 1e-2, 1e-1, 1.0};  // fast-relaxation-dominated decades
  config.verify.max_passes = 5;
  const RetentionComparison comparison = run_retention_comparison(config);

  // Same seed: the as-programmed populations are bit-identical.
  EXPECT_EQ(comparison.verify_off.seed, comparison.verify_on.seed);
  EXPECT_GT(comparison.verify_on.verify_reprogrammed, 0u);
  EXPECT_EQ(comparison.verify_off.verify_reprogrammed, 0u);

  const double initial = comparison.verify_off.initial_margins.worst_case_margin;
  const double off = comparison.verify_off.points.back().margins.worst_case_margin;
  const double on = comparison.verify_on.points.back().margins.worst_case_margin;
  EXPECT_LT(off, initial);  // drift really lost window in the unverified branch
  EXPECT_GT(on, off);       // and the verify bought some of it back
  const double recovered = recovered_window_fraction(comparison);
  EXPECT_GE(recovered, 0.5) << "initial " << initial << " off " << off << " on " << on;
}

// Mirrors the MC runner's bit-identity contract: a retention report depends
// only on the seed, never on the worker count that computed it.
TEST(Retention, ReportsBitIdenticalAcrossThreadCounts) {
  RetentionConfig config = small_config(2, 12);
  config.times = {1e-2, 1.0, 1e4};
  config.relax_verify = true;
  config.study.mc.seed = 0xB5EED;

  config.study.mc.threads = 1;
  const std::string reference = to_json(run_retention_study(config)).dump(2);
  for (std::size_t threads : {2, 5}) {
    config.study.mc.threads = threads;
    const std::string parallel = to_json(run_retention_study(config)).dump(2);
    EXPECT_EQ(parallel, reference) << "threads=" << threads;
  }
}

TEST(Retention, SeedChangesTheReport) {
  RetentionConfig config = small_config(2, 8);
  config.times = {1.0};
  const RetentionReport a = run_retention_study(config);
  config.study.mc.seed ^= 0x1234;
  const RetentionReport b = run_retention_study(config);
  EXPECT_EQ(a.seed ^ 0x1234, b.seed);
  EXPECT_NE(to_json(a).dump(), to_json(b).dump());
}

// The per-trial loop run_retention_study ran before it moved onto
// VerifyScrubStepper: each trial programmed, verified and re-terminated on its
// own through the one-cell QlcProgrammer::program. The batched study must
// reproduce its resistances exactly.
struct ReferenceTrial {
  std::vector<double> r_at_time;
  std::uint32_t reprogrammed = 0;
  bool unrecovered = false;
};

double reference_disturbed_gap(const oxram::FastCell& cell, double gap, const QlcConfig& qlc,
                               const reliability::ReadDisturbModel& disturb) {
  if (!disturb.enabled) {
    return gap;
  }
  const oxram::StackOperatingPoint op =
      oxram::solve_stack(cell.params(), gap, cell.stack(), oxram::Polarity::kSet,
                         qlc.v_read, qlc.v_wl_read);
  const double stress = disturb.t_read * disturb.accel;
  const double g_bias =
      oxram::advance_gap(cell.params(), op.v_cell, gap, false, stress, cell.rate_factor());
  const double g_rest =
      oxram::advance_gap(cell.params(), 0.0, gap, false, stress, cell.rate_factor());
  return std::clamp(gap + (g_bias - g_rest), cell.params().g_min, cell.params().g_max);
}

ReferenceTrial reference_trial(const RetentionConfig& config, const QlcProgrammer& programmer,
                               std::size_t level, Rng& rng) {
  const oxram::OxramParams device =
      oxram::sample_device(config.study.nominal, config.study.variability, rng);
  oxram::FastCell cell = oxram::FastCell::formed_lrs(device, config.study.stack);
  programmer.program(cell, level, rng);

  ReferenceTrial trial;
  const oxram::DriftParams& drift = config.drift;
  double anchor = cell.gap();
  double relax_amp = oxram::sample_relaxation_amplitude(drift, rng);
  const double drift_amp = oxram::sample_drift_amplitude(drift, rng);
  double t_anchor = 0.0;
  double t_now = 0.0;
  double offset = 0.0;
  const auto gap_at = [&](double t_abs) {
    const double g = oxram::drifted_gap(drift, anchor, device.g_min, relax_amp, drift_amp,
                                        std::max(t_abs - t_anchor, 0.0));
    return std::clamp(g + offset, device.g_min, device.g_max);
  };

  if (config.relax_verify) {
    for (std::size_t pass = 0; pass < config.verify.max_passes; ++pass) {
      t_now += config.verify.tau_relax;
      const double g = gap_at(t_now);
      const double g_disturbed =
          reference_disturbed_gap(cell, g, config.study.qlc, config.read_disturb);
      offset += g_disturbed - g;
      cell.set_gap(g_disturbed);
      trial.unrecovered = programmer.read_level(cell, rng) != level;
      if (!trial.unrecovered || pass + 1 == config.verify.max_passes) break;
      programmer.program(cell, level, rng);
      ++trial.reprogrammed;
      anchor = cell.gap();
      t_anchor = t_now;
      offset = 0.0;
      relax_amp = oxram::sample_relaxation_amplitude(drift, rng);
    }
  }
  const QlcConfig& qlc = config.study.qlc;
  for (const double t : config.times) {
    cell.set_gap(gap_at(t));
    trial.r_at_time.push_back(cell.read(qlc.v_read, qlc.v_wl_read).r_cell);
  }
  return trial;
}

TEST(Retention, BatchedVerifyMatchesPerTrialReference) {
  RetentionConfig config = small_config(4, 5);
  config.times = {1e-3, 1.0, 1e4};
  config.relax_verify = true;
  // Amplified relaxation and a third pass, so the verify re-terminates trials
  // on every pass but the last.
  config.drift.relax_fraction = 0.05;
  config.drift.sigma_relax = 0.7;
  config.verify.max_passes = 3;
  config.study.mc.threads = 2;  // several claimed chunks, each one batch
  const RetentionReport report = run_retention_study(config);

  const QlcProgrammer programmer(config.study.qlc);
  const std::size_t levels = config.study.qlc.allocation.count();
  std::size_t reprogrammed = 0;
  std::size_t unrecovered = 0;
  for (std::size_t level = 0; level < levels; ++level) {
    for (std::size_t t = 0; t < config.study.mc.trials; ++t) {
      Rng rng = mc::trial_rng(study_level_seed(config.study.mc.seed, level), t);
      const ReferenceTrial trial = reference_trial(config, programmer, level, rng);
      reprogrammed += trial.reprogrammed;
      unrecovered += trial.unrecovered ? 1 : 0;
      for (std::size_t k = 0; k < config.times.size(); ++k) {
        EXPECT_EQ(report.points[k].levels[level].resistance[t], trial.r_at_time[k])
            << "level " << level << " trial " << t << " time " << config.times[k];
      }
    }
  }
  EXPECT_GT(reprogrammed, 0u);
  EXPECT_EQ(report.verify_reprogrammed, reprogrammed);
  EXPECT_EQ(report.verify_unrecovered, unrecovered);
}

TEST(Retention, JsonReportFollowsSchema) {
  RetentionConfig config = small_config(2, 6);
  config.times = {1e-2, 1e2};
  const RetentionComparison comparison = run_retention_comparison(config);

  // Round-trip through the parser: the report must be well-formed JSON.
  const obs::Json report = obs::Json::parse(to_json(comparison).dump(2));
  EXPECT_EQ(report.get("schema").as_string(), kRetentionSchema);
  EXPECT_EQ(report.get("mode").as_string(), "comparison");
  const obs::Json& off = report.get("verify_off");
  const obs::Json& on = report.get("verify_on");
  EXPECT_FALSE(off.get("relax_verify").as_bool());
  EXPECT_TRUE(on.get("relax_verify").as_bool());
  ASSERT_EQ(off.get("points").size(), 2u);
  const obs::Json& point = off.get("points").at(0);
  EXPECT_DOUBLE_EQ(point.get("t_s").as_number(), 1e-2);
  EXPECT_EQ(point.get("per_level").size(), 4u);  // 2 bits -> 4 levels
  const obs::Json& recovery = report.get("recovery");
  EXPECT_TRUE(recovery.contains("recovered_fraction"));
  EXPECT_DOUBLE_EQ(recovery.get("time_s").as_number(), 1e2);

  const obs::Json single = obs::Json::parse(to_json(comparison.verify_off).dump());
  EXPECT_EQ(single.get("schema").as_string(), kRetentionSchema);
  EXPECT_EQ(single.get("mode").as_string(), "single");
}

}  // namespace
}  // namespace oxmlc::mlc
