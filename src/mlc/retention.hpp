// Retention sweep: the Monte-Carlo level study evaluated over time.
//
// One trial = one D2D-sampled device, programmed to its level exactly as in
// run_level_study, then evolved under the two-component drift law of
// oxram/drift.hpp and re-read at each observation time. Trials run through
// mlc::VerifyScrubStepper, one claimed parallel_for chunk per program_word;
// with relax_verify on, the stepper's relaxation-aware verify
// (arXiv:2301.08516) follows right after programming. Comparing the verify-on
// and verify-off branches at the same seed quantifies how much of the drift-
// lost inter-level window the verify recovers (recovered_window_fraction —
// the acceptance metric of the reliability subsystem).
//
// Determinism: each (level, trial) pair draws from mc::trial_rng(
// study_level_seed(seed, level), trial), so reports are bit-identical for any
// thread count — the same contract as run_level_study, test-pinned.
//
// to_json() emits the `oxmlc.retention.v1` schema consumed by the CI
// retention smoke test and the BENCH_retention.json artifact.
#pragma once

#include <cstdint>
#include <vector>

#include "mlc/mc_study.hpp"
#include "mlc/verify_scrub.hpp"
#include "obs/json.hpp"
#include "oxram/drift.hpp"
#include "reliability/engine.hpp"
#include "util/schema.hpp"

namespace oxmlc::mlc {

inline constexpr const char* kRetentionSchema = util::kRetentionSchema;

struct RetentionConfig {
  McStudyConfig study;        // allocation, device, variability, mc depth/seed
  oxram::DriftParams drift;
  // Disturb stress charged to each verify re-sense (the verify is not free).
  reliability::ReadDisturbModel read_disturb;
  std::vector<double> times;  // ascending observation times (s) after program
  bool relax_verify = false;
  VerifyTiming verify;        // used when relax_verify is on

  // The paper study config plus a decade ladder 1 ms .. 10^7 s.
  static RetentionConfig paper_default(std::size_t bits = 4, std::size_t trials = 200);
};

struct RetentionPoint {
  double t = 0.0;                        // s after program
  MarginReport margins;
  BerReport ber;
  std::vector<LevelDistribution> levels; // drifted distributions at t
};

struct RetentionReport {
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::size_t bits = 0;
  bool relax_verify = false;
  VerifyTiming verify;
  std::vector<double> times;

  MarginReport initial_margins;  // as-programmed (t = 0), before any drift
  BerReport initial_ber;
  std::vector<RetentionPoint> points;     // one per time, ascending

  std::size_t verify_reprogrammed = 0;    // cells re-terminated by the verify
  std::size_t verify_unrecovered = 0;     // still out of band after last pass
};

RetentionReport run_retention_study(const RetentionConfig& config);

// Runs the verify-off and verify-on branches from the same seed (identical
// as-programmed populations; the branches diverge only in the verify loop).
struct RetentionComparison {
  RetentionReport verify_off;
  RetentionReport verify_on;
};

RetentionComparison run_retention_comparison(RetentionConfig config);

// Fraction of the drift-lost worst-case window the verify recovered at
// `point` (default: the last observation time):
//   (margin_on - margin_off) / (margin_initial - margin_off),
// clamped to [0, 1]-ish semantics: 1 when nothing was lost and nothing got
// worse, 0 when the verify bought nothing.
double recovered_window_fraction(const RetentionComparison& comparison,
                                 std::size_t point);
double recovered_window_fraction(const RetentionComparison& comparison);

// `oxmlc.retention.v1` documents (single branch / comparison).
obs::Json to_json(const RetentionReport& report);
obs::Json to_json(const RetentionComparison& comparison);

}  // namespace oxmlc::mlc
