// `ecc`: the ECC policy explorer (ecc::run_ecc_study) on the BENCH_ecc grid:
// 4 bits/cell, scrub {0, 1e6 s} x verify {off, on} x rotation {0, 2000}, eight
// reference words per policy point, exactly as bench_ecc_frontier runs it.
//
// Set-up calibrates the 4-bpc operating point (paper_mc_study plus the
// QlcProgrammer constructor) the way the explorer does. The traced run wraps
// run_ecc_study in one span, then re-runs its physics phase from here:
// ecc::simulate_word for every (point, trial) word over the same pool, with
// the explorer's per-point seeds, timing each word. Those words must
// reproduce the report's reprogram counts and raw bit errors exactly.
#include <optional>

#include "bench.hpp"
#include "ecc/code.hpp"
#include "ecc/explorer.hpp"
#include "mc/runner.hpp"
#include "util/parallel_for.hpp"

namespace perfbench {
namespace {

using namespace oxmlc;

struct EccInput {
  ecc::EccStudyConfig config;
  mlc::McStudyConfig study;
  std::optional<mlc::QlcProgrammer> programmer;
};

EccInput make_input(const Options& options) {
  EccInput input;
  ecc::EccStudyConfig& config = input.config;
  config.bits = {4};
  config.scrub_periods_s = {0.0, 1e6};
  config.verify = {false, true};
  config.rotations = {0, 2000};
  config.trials = 8;
  config.probe_requests = 2048;
  if (options.small) {
    config.scrub_periods_s = {0.0};
    config.rotations = {0};
    config.trials = 1;
  }
  config.threads = kThreads;
  config.seed = input_seed(options.seed, config.seed);
  input.study = mlc::paper_mc_study(4, config.mc_trials);
  input.programmer.emplace(input.study.qlc);
  return input;
}

std::size_t word_count(const ecc::EccStudyConfig& config) {
  return config.bits.size() * config.scrub_periods_s.size() * config.verify.size() *
         config.rotations.size() * config.trials;
}

// explorer.cpp's point_seed (file-local there).
std::uint64_t point_seed(std::uint64_t base, std::size_t point) {
  return base ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(point) + 1));
}

// The explorer's physics phase for the single-bits grid, one span per word.
std::vector<ecc::WordTrial> traced_words(const EccInput& input, Spans& spans) {
  const ecc::EccStudyConfig& config = input.config;
  std::vector<ecc::ChannelPolicy> grid;
  for (const double scrub : config.scrub_periods_s) {
    for (const bool verify : config.verify) {
      for (const std::uint64_t rotate : config.rotations) grid.push_back({scrub, verify, rotate});
    }
  }
  std::size_t max_n = 0;
  for (const auto& code : ecc::default_catalog()) max_n = std::max(max_n, code->spec().n);
  const std::size_t cells = ecc::LevelCoder(4).cells_for_bits(max_n);

  const std::size_t trials = config.trials;
  std::vector<ecc::WordTrial> words(grid.size() * trials);
  const Spans::Scope pass(spans, "ecc.words");
  const int parent = pass.id();
  util::ParallelForOptions pool;
  pool.threads = config.threads;
  util::parallel_for(words.size(), pool, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ecc::ChannelConfig channel;
      channel.study = input.study;
      channel.drift = config.drift;
      channel.read_disturb = config.read_disturb;
      channel.endurance = config.endurance;
      channel.wear = config.wear;
      channel.policy = grid[i / trials];
      channel.horizon_s = config.horizon_s;
      Rng rng = mc::trial_rng(point_seed(config.seed, i / trials), i % trials);
      const Spans::Scope word(spans, "ecc.word", parent);
      words[i] = ecc::simulate_word(channel, *input.programmer, cells, rng);
    }
  });
  return words;
}

// The traced words against the report: reprogram counts per point and raw bit
// errors per (point, code).
void check_decomposition(Outcome& outcome, const ecc::EccReport& report,
                         const std::vector<ecc::WordTrial>& words, std::size_t trials) {
  outcome.check(words.size() == report.points.size() * trials, "ecc: traced word count");
  if (words.size() != report.points.size() * trials) return;
  const ecc::LevelCoder coder(4);
  bool same = true;
  for (std::size_t p = 0; p < report.points.size(); ++p) {
    const ecc::PolicyPointOutcome& point = report.points[p];
    std::uint64_t verify = 0, scrub = 0;
    std::vector<std::uint64_t> raw(point.codes.size(), 0);
    for (std::size_t t = 0; t < trials; ++t) {
      const ecc::WordTrial& word = words[p * trials + t];
      verify += word.verify_reprograms;
      scrub += word.scrub_reprograms;
      const std::vector<std::uint8_t> errors = ecc::error_bits(coder, word.target, word.observed);
      for (std::size_t c = 0; c < point.codes.size(); ++c) {
        for (std::size_t i = 0; i < point.codes[c].n; ++i) raw[c] += errors[i];
      }
    }
    same = same && verify == point.verify_reprograms && scrub == point.scrub_reprograms;
    for (std::size_t c = 0; c < point.codes.size(); ++c) {
      same = same && raw[c] == point.codes[c].raw_bit_errors;
    }
  }
  outcome.check(same, "ecc: traced simulate_word pass does not reproduce the report");
}

// bench_ecc_frontier's corrected_fraction: word-count-weighted over every
// policy point.
double corrected_fraction(const ecc::EccReport& report, const std::string& code) {
  std::uint64_t errored = 0;
  std::uint64_t failed = 0;
  for (const ecc::PolicyPointOutcome& point : report.points) {
    for (const ecc::CodeOutcome& outcome : point.codes) {
      if (outcome.code != code) continue;
      errored += outcome.errored_words;
      failed += outcome.failed_words;
    }
  }
  if (errored == 0) return 1.0;
  return 1.0 - static_cast<double>(failed) / static_cast<double>(errored);
}

void check_report(Outcome& outcome, const ecc::EccReport& report, const EccInput& input,
                  const Options& options) {
  const std::size_t words = word_count(input.config);
  const std::uint64_t simulated = counter(obs::registry().snapshot(), "ecc.words_simulated");
  const bool monotone = ecc::uber_monotone(report);
  outcome.attempted += words + 1;
  outcome.failed += (words - std::min<std::uint64_t>(words, simulated)) + (monotone ? 0 : 1);
  outcome.check(simulated == words, "ecc: words not simulated");
  outcome.check(monotone, "ecc: uber not monotone in code strength");
  outcome.check(!report.frontier.empty(), "ecc: empty policy frontier");
  if (options.seed != 0 || options.small) return;

  // Default seed: the committed BENCH_ecc values, as printed.
  const obs::Json baseline =
      obs::Json::parse(read_file(options.root + "/bench_results/baselines/BENCH_ecc.json"));
  std::vector<std::pair<std::string, double>> exact = {
      {"trials", static_cast<double>(report.trials)},
      {"policy_points", static_cast<double>(report.points.size())},
      {"frontier_points", static_cast<double>(report.frontier.size())},
      {"uber_monotone", monotone ? 1.0 : 0.0},
  };
  for (const char* code : {"bch_63_57_t1", "bch_63_51_t2", "bch_63_45_t3", "secded_72_64"}) {
    exact.emplace_back(std::string("corrected_word_fraction@") + code,
                       corrected_fraction(report, code));
  }
  for (const auto& [key, value] : exact) {
    const double want = baseline.get(key).as_number();
    outcome.check(printed(value) == printed(want),
                  "ecc: " + key + " " + printed(value) + " != BENCH_ecc " + printed(want));
  }
}

}  // namespace

Outcome run_ecc(const Options& options, Spans& spans) {
  Outcome outcome;
  if (!options.trace) {
    EccInput input;
    const std::vector<double> setup_s = time_setups(9, [&] {
          input = {};
          input = make_input(options);
        });
    ecc::EccReport report;
    std::string first_document;
    const auto call = [&] { report = ecc::run_ecc_study(input.config); };
    const CallTimes calls = time_calls(options.seconds, call, [&] {
      check_report(outcome, report, input, options);
      const std::string document = ecc::to_json(report).dump();
      if (first_document.empty()) first_document = document;
      outcome.check(document == first_document, "ecc: report differs between repetitions");
    });
    add_end_to_end(outcome, static_cast<double>(word_count(input.config)), setup_s, calls);
    return outcome;
  }

  EccInput input;
  {
    const Spans::Scope setup(spans, "ecc.setup");
    const Spans::Scope span(spans, "mlc.calibration");
    input = make_input(options);
  }
  obs::registry().reset_values();
  const double start = wall_now();
  const ecc::EccReport untraced = ecc::run_ecc_study(input.config);
  const double untraced_wall = wall_now() - start;
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  check_report(outcome, untraced, input, options);

  ecc::EccReport traced;
  {
    const Spans::Scope root(spans, "ecc");
    traced = ecc::run_ecc_study(input.config);
  }
  outcome.check(ecc::to_json(traced).dump() == ecc::to_json(untraced).dump(),
                "ecc: traced report differs from the untraced one");
  check_decomposition(outcome, untraced, traced_words(input, spans), input.config.trials);
  const double attributed = spans.total("mlc.calibration") + spans.total("ecc.words");

  add_per_layer(outcome, spans, snapshot, untraced_wall, attributed, spans.total("ecc"));
  return outcome;
}

}  // namespace perfbench
