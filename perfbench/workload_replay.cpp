// `replay`: the 1M-request memsys trace replay (memsys::replay_trace) on the
// ISSCC-2012 geometry with the default fidelity tiers.
//
// The traced run re-executes replay_trace's steps from here, in the same
// order, with a span around each: CommandScheduler::run, the report and
// latency summaries, the FidelityEngine constructor, the sampling pass,
// run_word_tier, run_mna_tier one sample per call, and run_witness. Its
// oxmlc.memsys.v1 document must equal the untraced call's byte for byte, which
// shows the spans time the same program.
#include <algorithm>
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "memsys/replay.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using namespace oxmlc;

struct ReplayInput {
  memsys::ReplayOptions options;
  std::vector<memsys::TraceRequest> trace;
};

ReplayInput make_input(const Options& options) {
  ReplayInput input;
  input.options.threads = kThreads;
  memsys::SyntheticTraceOptions synth;
  synth.seed = input_seed(options.seed, synth.seed);
  if (options.small) synth.requests = 60'000;
  input.trace = memsys::synthesize_trace(input.options.geometry, synth);
  return input;
}

// replay.cpp's summarize_latency (file-local there).
memsys::LatencySummary summarize_latency(std::vector<double>& latencies_ns) {
  memsys::LatencySummary summary;
  if (latencies_ns.empty()) return summary;
  double total = 0.0;
  for (const double v : latencies_ns) total += v;
  summary.mean_ns = total / static_cast<double>(latencies_ns.size());
  std::sort(latencies_ns.begin(), latencies_ns.end());
  summary.p50_ns = quantile(latencies_ns, 0.50);
  summary.p99_ns = quantile(latencies_ns, 0.99);
  summary.p999_ns = quantile(latencies_ns, 0.999);
  summary.max_ns = latencies_ns.back();
  return summary;
}

// replay_trace, step by step, with a span around each call into a layer.
memsys::MemsysReport traced_replay(const ReplayInput& input, Spans& spans) {
  const std::span<const memsys::TraceRequest> trace = input.trace;
  const memsys::GeometryConfig& geometry = input.options.geometry;
  geometry.validate();

  memsys::MemsysReport report;
  report.geometry = geometry;
  report.requests = trace.size();

  memsys::ScheduleResult schedule;
  {
    const Spans::Scope span(spans, "memsys.scheduler");
    memsys::CommandScheduler scheduler(geometry);
    schedule = scheduler.run(trace);
  }
  {
    const Spans::Scope span(spans, "memsys.report");
    report.requests_retired = schedule.requests_retired;
    report.reads = schedule.reads;
    report.writes = schedule.writes;
    report.scrub_commands = schedule.scrub_commands;
    report.wear_rotations = schedule.wear_rotations;
    report.queue_stall_cycles = schedule.queue_stall_cycles;
    report.total_cycles = schedule.total_cycles;
    report.banks = schedule.banks;
    for (const memsys::BankStats& bank : schedule.banks) {
      report.row_hits += bank.row_hits;
      report.row_misses += bank.row_misses;
      report.row_conflicts += bank.row_conflicts;
    }
    const double cycle_s = geometry.timing.cycle_s();
    report.simulated_seconds = static_cast<double>(schedule.total_cycles) * cycle_s;
    if (report.simulated_seconds > 0.0) {
      const double bytes = static_cast<double>(schedule.requests_retired) *
                           static_cast<double>(geometry.bytes_per_access());
      report.sustained_mb_s = bytes / report.simulated_seconds / 1e6;
    }
    const std::uint64_t row_accesses = report.row_hits + report.row_misses + report.row_conflicts;
    if (row_accesses > 0) {
      report.row_hit_rate =
          static_cast<double>(report.row_hits) / static_cast<double>(row_accesses);
    }
    if (schedule.total_cycles > 0 && !schedule.banks.empty()) {
      double occupancy = 0.0;
      for (const memsys::BankStats& bank : schedule.banks) {
        occupancy += static_cast<double>(bank.busy_cycles) /
                     static_cast<double>(schedule.total_cycles);
      }
      report.mean_bank_occupancy = occupancy / static_cast<double>(schedule.banks.size());
    }
    const double cycle_ns = cycle_s * 1e9;
    std::vector<double> all_ns;
    std::vector<double> read_ns;
    std::vector<double> write_ns;
    all_ns.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const double ns = static_cast<double>(schedule.latency_cycles[i]) * cycle_ns;
      all_ns.push_back(ns);
      (trace[i].is_write ? write_ns : read_ns).push_back(ns);
    }
    report.latency = summarize_latency(all_ns);
    report.read_latency = summarize_latency(read_ns);
    report.write_latency = summarize_latency(write_ns);
  }

  memsys::FidelityConfig fidelity_config = input.options.fidelity;
  if (input.options.threads != 0) fidelity_config.threads = input.options.threads;
  std::optional<memsys::FidelityEngine> fidelity;
  {
    const Spans::Scope span(spans, "memsys.fidelity_setup");
    fidelity.emplace(geometry, fidelity_config);
  }
  std::vector<memsys::WordSample> word_samples;
  std::vector<memsys::WordSample> mna_samples;
  {
    const Spans::Scope span(spans, "memsys.sampling");
    std::size_t write_ordinal = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (!trace[i].is_write) continue;
      if (fidelity->is_word_sample(write_ordinal)) word_samples.push_back({i, trace[i].data});
      if (fidelity->is_mna_sample(write_ordinal)) mna_samples.push_back({i, trace[i].data});
      ++write_ordinal;
    }
  }
  {
    const Spans::Scope span(spans, "memsys.word_tier");
    report.word_tier = fidelity->run_word_tier(word_samples);
  }
  {
    // One sample per call; the sums and means below repeat run_mna_tier's
    // own reduction in the same order, so the result is bit-identical.
    const Spans::Scope span(spans, "memsys.mna_tier");
    memsys::MnaTierReport& mna = report.mna_tier;
    for (const memsys::WordSample& sample : mna_samples) {
      const Spans::Scope sample_span(spans, "memsys.mna_sample");
      const memsys::MnaTierReport one = fidelity->run_mna_tier({&sample, 1});
      mna.samples += one.samples;
      mna.terminated += one.terminated;
      mna.mean_t_terminate_s += one.mean_t_terminate_s;
      mna.mean_energy_j += one.mean_energy_j;
    }
    if (mna.samples > 0) {
      mna.mean_t_terminate_s /= static_cast<double>(mna.samples);
      mna.mean_energy_j /= static_cast<double>(mna.samples);
    }
  }
  {
    const Spans::Scope span(spans, "memsys.witness");
    report.witness = fidelity->run_witness(word_samples);
  }
  return report;
}

std::size_t expected_samples(std::size_t writes, std::size_t period, std::size_t cap) {
  return std::min(cap, (writes + period - 1) / period);
}

void check_report(Outcome& outcome, const memsys::MemsysReport& report,
                  const ReplayInput& input, const Options& options) {
  const memsys::FidelityConfig& fidelity = input.options.fidelity;
  std::size_t writes = 0;
  for (const memsys::TraceRequest& request : input.trace) writes += request.is_write ? 1 : 0;

  outcome.check(report.requests == input.trace.size(), "replay: request count");
  outcome.check(report.requests_retired == report.requests, "replay: requests not retired");
  outcome.check(report.writes == writes, "replay: write count");
  outcome.check(report.word_tier.samples ==
                    expected_samples(writes, fidelity.word_sample_period, fidelity.word_max_samples),
                "replay: word-tier sample count");
  outcome.check(report.mna_tier.samples ==
                    expected_samples(writes, fidelity.mna_sample_period, fidelity.mna_max_samples),
                "replay: MNA sample count");
  outcome.check(report.word_tier.unterminated == 0, "replay: word sample did not terminate");
  outcome.check(report.mna_tier.terminated == report.mna_tier.samples,
                "replay: MNA sample did not terminate");
  outcome.check(std::isfinite(report.mna_tier.mean_t_terminate_s) &&
                    std::isfinite(report.word_tier.mean_latency_s),
                "replay: non-finite physics mean");
  if (options.seed != 0 || options.small) return;

  // Default seed: the behavioral tier equals the committed BENCH_trace
  // values exactly, and the physics-tier means match expected.json.
  const obs::Json baseline =
      obs::Json::parse(read_file(options.root + "/bench_results/baselines/BENCH_trace.json"));
  const double requests = static_cast<double>(report.requests);
  const std::vector<std::pair<const char*, double>> exact = {
      {"requests", requests},
      {"sustained_mb_s", report.sustained_mb_s},
      {"row_hit_rate", report.row_hit_rate},
      {"retired_fraction", static_cast<double>(report.requests_retired) / requests},
      {"p50_ns", report.latency.p50_ns},
      {"p99_ns", report.latency.p99_ns},
      {"p999_ns", report.latency.p999_ns},
      {"scrub_commands", static_cast<double>(report.scrub_commands)},
      {"wear_rotations", static_cast<double>(report.wear_rotations)},
      {"word_samples", static_cast<double>(report.word_tier.samples)},
      {"word_decode_errors", static_cast<double>(report.word_tier.decode_errors)},
      {"mna_samples", static_cast<double>(report.mna_tier.samples)},
      {"witness_cells_scrubbed", static_cast<double>(report.witness.cells_scrubbed)},
  };
  for (const auto& [key, value] : exact) {
    outcome.check(printed(value) == printed(baseline.get(key).as_number()),
                  std::string("replay: ") + key + " " + printed(value) + " != BENCH_trace " +
                      printed(baseline.get(key).as_number()));
  }
  const obs::Json expected =
      obs::Json::parse(read_file(options.root + "/perfbench/expected.json")).get("replay");
  const double tolerance = expected.get("physics_rel_tolerance").as_number();
  const std::vector<std::pair<const char*, double>> physics = {
      {"word_mean_latency_s", report.word_tier.mean_latency_s},
      {"word_mean_energy_j", report.word_tier.mean_energy_j},
      {"mna_mean_t_terminate_s", report.mna_tier.mean_t_terminate_s},
      {"mna_mean_energy_j", report.mna_tier.mean_energy_j},
  };
  for (const auto& [key, value] : physics) {
    const double want = expected.get(key).as_number();
    outcome.check(std::abs(value - want) <= tolerance * std::abs(want),
                  std::string("replay: ") + key + " " + printed(value, 17) + " vs expected " +
                      printed(want, 17));
  }
}

// A misdecoded word-tier cell is the simulated read-back BER of freshly
// sampled devices, an output of the physics rather than a failed operation:
// it is pinned to zero (BENCH_trace's word_decode_errors) at the default seed
// and only reported at others.
void count_operations(Outcome& outcome, const memsys::MemsysReport& report) {
  outcome.attempted += report.requests + report.word_tier.cells + report.mna_tier.samples;
  outcome.failed += (report.requests - report.requests_retired) + report.word_tier.unterminated +
                    (report.mna_tier.samples - report.mna_tier.terminated);
}

}  // namespace

Outcome run_replay(const Options& options, Spans& spans) {
  Outcome outcome;
  if (!options.trace) {
    ReplayInput input;
    const std::vector<double> setup_s =
        time_setups(9, [&] {
          input = {};
          input = make_input(options);
        });
    memsys::MemsysReport report;
    std::string first_document;
    const auto call = [&] { report = memsys::replay_trace(input.trace, input.options); };
    const CallTimes calls = time_calls(options.seconds, call, [&] {
      check_report(outcome, report, input, options);
      count_operations(outcome, report);
      if (first_document.empty()) {
        outcome.notes.push_back("word-tier cells misdecoded: " +
                                std::to_string(report.word_tier.decode_errors) + " of " +
                                std::to_string(report.word_tier.cells));
      }
      const std::string document = memsys::to_json(report).dump();
      if (first_document.empty()) first_document = document;
      outcome.check(document == first_document, "replay: report differs between repetitions");
    });
    add_end_to_end(outcome, static_cast<double>(input.trace.size()), setup_s, calls);
    return outcome;
  }

  ReplayInput input;
  {
    const Spans::Scope span(spans, "replay.setup");
    input = make_input(options);
  }
  obs::registry().reset_values();
  const double start = wall_now();
  const memsys::MemsysReport untraced = memsys::replay_trace(input.trace, input.options);
  const double untraced_wall = wall_now() - start;
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  check_report(outcome, untraced, input, options);
  count_operations(outcome, untraced);

  memsys::MemsysReport traced;
  {
    const Spans::Scope root(spans, "replay");
    traced = traced_replay(input, spans);
  }
  const double traced_wall = spans.total("replay");
  outcome.check(memsys::to_json(traced).dump() == memsys::to_json(untraced).dump(),
                "replay: traced step sequence does not reproduce the memsys.v1 document");

  const double attributed = traced_wall - spans.self_seconds()["replay"];
  add_per_layer(outcome, spans, snapshot, untraced_wall, attributed, traced_wall);
  return outcome;
}

}  // namespace perfbench
