// `mc_study`: the Fig. 11-13 Monte-Carlo level study (mlc::run_level_study)
// on paper_mc_study(4, 500) with batched levels: 16 levels x 500 trials =
// 8,000 programmed cells per call.
//
// Set-up is the calibration the study is configured from (paper_mc_study plus
// the QlcProgrammer constructor, both public calls). The traced run wraps
// run_level_study in one span and attributes its inside from the registry:
// mc.run_time is the wall time of the trial runner it drives.
#include <cmath>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "mlc/mc_study.hpp"

namespace perfbench {
namespace {

using namespace oxmlc;

struct StudyInput {
  mlc::McStudyConfig config;
  std::optional<mlc::QlcProgrammer> programmer;
};

StudyInput make_input(const Options& options) {
  StudyInput input;
  input.config = mlc::paper_mc_study(4, options.small ? 20 : 500);
  input.config.mc.threads = kThreads;
  input.config.mc.seed = input_seed(options.seed, input.config.mc.seed);
  input.programmer.emplace(input.config.qlc);
  return input;
}

// Committed Fig. 11 medians and the worst adjacent margin they imply
// (min of level k+1 minus max of level k), from fig11_mc_boxplots.csv.
struct Fig11 {
  std::vector<double> medians;
  double worst_margin = 0.0;
};

Fig11 read_fig11(const std::string& root) {
  std::istringstream csv(read_file(root + "/bench_results/fig11_mc_boxplots.csv"));
  std::string line;
  std::getline(csv, line);  // header: level,iref_a,r_median,r_sigma,r_min,r_max,r_q1,r_q3
  Fig11 fig;
  std::vector<double> mins, maxs;
  while (std::getline(csv, line)) {
    std::vector<double> fields;
    std::istringstream row(line);
    std::string field;
    while (std::getline(row, field, ',')) fields.push_back(std::stod(field));
    if (fields.size() < 6) continue;
    fig.medians.push_back(fields[2]);
    mins.push_back(fields[4]);
    maxs.push_back(fields[5]);
  }
  fig.worst_margin = INFINITY;
  for (std::size_t k = 0; k + 1 < mins.size(); ++k) {
    fig.worst_margin = std::min(fig.worst_margin, mins[k + 1] - maxs[k]);
  }
  return fig;
}

void check_study(Outcome& outcome, const std::vector<mlc::LevelDistribution>& distributions,
                 const StudyInput& input, const Options& options) {
  const std::size_t levels = input.config.qlc.allocation.count();
  const std::size_t trials = input.config.mc.trials;
  outcome.attempted += levels * trials;
  outcome.failed += counter(obs::registry().snapshot(), "mc.trial_failures");
  outcome.check(distributions.size() == levels, "mc_study: level count");

  std::vector<double> medians;
  for (const mlc::LevelDistribution& dist : distributions) {
    std::size_t non_finite = 0;
    for (const double r : dist.resistance) non_finite += std::isfinite(r) ? 0 : 1;
    outcome.failed += non_finite + (trials - std::min(trials, dist.resistance.size()));
    outcome.check(non_finite == 0 && dist.resistance.size() == trials,
                  "mc_study: missing or non-finite samples");
    medians.push_back(dist.resistance_summary().median);
  }
  for (std::size_t k = 0; k + 1 < medians.size(); ++k) {
    outcome.check(medians[k] < medians[k + 1], "mc_study: level medians do not ascend");
  }
  if (options.seed != 0 || options.small) return;

  // Default seed: medians within 1e-6 relative of the committed Fig. 11
  // table, worst-case margin within 0.1 %.
  const Fig11 fig = read_fig11(options.root);
  outcome.check(fig.medians.size() == medians.size(), "mc_study: Fig. 11 table size");
  for (std::size_t k = 0; k < std::min(fig.medians.size(), medians.size()); ++k) {
    outcome.check(std::abs(medians[k] - fig.medians[k]) <= 1e-6 * fig.medians[k],
                  "mc_study: level " + std::to_string(k) + " median differs from Fig. 11");
  }
  const double margin = mlc::analyze_margins(distributions).worst_case_margin;
  outcome.check(std::abs(margin - fig.worst_margin) <= 1e-3 * std::abs(fig.worst_margin),
                "mc_study: worst-case margin " + std::to_string(margin) + " vs Fig. 11 " +
                    std::to_string(fig.worst_margin));
}

}  // namespace

Outcome run_mc_study(const Options& options, Spans& spans) {
  Outcome outcome;
  if (!options.trace) {
    StudyInput input;
    const std::vector<double> setup_s = time_setups(9, [&] {
          input = {};
          input = make_input(options);
        });
    std::vector<mlc::LevelDistribution> distributions;
    const CallTimes calls = time_calls(
        options.seconds, [&] { distributions = mlc::run_level_study(input.config); },
        [&] { check_study(outcome, distributions, input, options); });
    const double items =
        static_cast<double>(input.config.qlc.allocation.count() * input.config.mc.trials);
    add_end_to_end(outcome, items, setup_s, calls);
    return outcome;
  }

  StudyInput input;
  {
    const Spans::Scope setup(spans, "mc_study.setup");
    const Spans::Scope span(spans, "mlc.calibration");
    input = make_input(options);
  }
  obs::registry().reset_values();
  const double start = wall_now();
  check_study(outcome, mlc::run_level_study(input.config), input, options);
  const double untraced_wall = wall_now() - start;
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();

  obs::registry().reset_values();
  std::vector<mlc::LevelDistribution> traced;
  {
    const Spans::Scope root(spans, "mc_study");
    traced = mlc::run_level_study(input.config);
  }
  check_study(outcome, traced, input, options);
  const double attributed = busy_seconds(obs::registry().snapshot(), "mc.run_time");

  add_per_layer(outcome, spans, snapshot, untraced_wall, attributed, spans.total("mc_study"));
  return outcome;
}

}  // namespace perfbench
