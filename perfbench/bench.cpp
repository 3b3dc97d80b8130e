#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/parallel_for.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// VmHWM of /proc/self/status: getrusage's ru_maxrss would also carry the
// high-water mark of whatever this process exec'd from (run.py's Python).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

}  // namespace

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
}

void Outcome::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t library_default) {
  if (seed == 0) return library_default;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return oxmlc::quantile(values, 0.5);
}

std::vector<double> time_setups(std::size_t reps, const std::function<void()>& setup) {
  for (int i = 0; i < 2; ++i) setup();
  std::vector<double> seconds;
  for (std::size_t i = 0; i < reps; ++i) {
    const double start = wall_now();
    setup();
    seconds.push_back(wall_now() - start);
  }
  return seconds;
}

CallTimes time_calls(double seconds, const std::function<void()>& call,
                     const std::function<void()>& check) {
  CallTimes times;
  const double first_start = wall_now();
  while (true) {
    oxmlc::obs::registry().reset_values();
    const double cpu_start = cpu_seconds();
    const double start = wall_now();
    call();
    times.wall_s.push_back(wall_now() - start);
    times.cpu_s.push_back(cpu_seconds() - cpu_start);
    check();
    if (wall_now() + 0.5 * median(times.wall_s) > first_start + seconds) break;
  }
  return times;
}

void add_end_to_end(Outcome& outcome, double items, const std::vector<double>& setup_s,
                    const CallTimes& calls) {
  std::ostringstream note;
  note << "repetitions " << calls.wall_s.size() << ", wall_s";
  for (const double s : calls.wall_s) note << " " << s;
  note << ", cpu_s";
  for (const double s : calls.cpu_s) note << " " << s;
  note << ", setup_s";
  for (const double s : setup_s) note << " " << s;
  outcome.notes.push_back(note.str());
  outcome.add("items_per_s", items / median(calls.wall_s), "1/s");
  outcome.add("setup_s", median(setup_s), "s");
  outcome.add("cpu_s", median(calls.cpu_s), "s");
  outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
}

std::uint64_t counter(const oxmlc::obs::MetricsSnapshot& snapshot, const std::string& name) {
  return snapshot.has_counter(name) ? snapshot.counter(name) : 0;
}

double busy_seconds(const oxmlc::obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& timer : snapshot.timers) {
    if (timer.name == name) return timer.stats.total_seconds();
  }
  return 0.0;
}

namespace {

void add_registry_layers(Outcome& outcome, const oxmlc::obs::MetricsSnapshot& snapshot,
                         double dispatch_us) {
  const auto count = [&](const char* name) {
    return static_cast<double>(counter(snapshot, name));
  };
  const auto busy = [&](const char* name) { return busy_seconds(snapshot, name); };

  // spice / numeric: the circuit tier (replay's full-MNA samples).
  const double steps = count("transient.steps.accepted");
  const double iterations = count("newton.iterations");
  outcome.add("transient.steps_accepted", steps, "count");
  outcome.add("transient.busy_s", busy("transient.run_time"), "s");
  outcome.add("newton.iterations", iterations, "count");
  outcome.add("newton.iterations_per_step", ratio(iterations, steps), "ratio");
  outcome.add("newton.assemblies_per_iteration", ratio(count("newton.assemblies"), iterations),
              "ratio");
  outcome.add("newton.damping_halvings", count("newton.damping_halvings"), "count");
  outcome.add("newton.step_success_ratio", ratio(steps, count("newton.solves")), "ratio");
  outcome.add("newton.busy_s", busy("newton.solve_time"), "s");
  const double factorizations = count("schur.factorizations");
  const double solves = count("schur.solves");
  outcome.add("schur.factorizations", factorizations, "count");
  outcome.add("schur.solves", solves, "count");
  outcome.add("schur.refactorize_hit_rate",
              ratio(count("schur.block_refactorize_hits"), count("schur.blocks_factored")),
              "ratio");

  // util: one factorization and two block sweeps per solve each dispatch
  // through util::parallel_for.
  const double dispatches = factorizations + 2.0 * solves;
  outcome.add("util.dispatch_us", dispatch_us, "us");
  outcome.add("util.dispatches", dispatches, "count");
  outcome.add("util.dispatch_est_s", dispatches * dispatch_us * 1e-6, "s");

  // oxram: the SIMD batch engine.
  const double lanes = count("batch.lanes");
  const double batch_busy = busy("batch.run_time");
  outcome.add("batch.lanes", lanes, "count");
  outcome.add("batch.steps_per_lane", ratio(count("batch.steps"), lanes), "ratio");
  outcome.add("batch.fallback_ratio", ratio(count("batch.simd_fallback_solves"), lanes), "ratio");
  outcome.add("batch.busy_s", batch_busy, "s");
  outcome.add("batch.lanes_per_busy_s", ratio(lanes, batch_busy), "1/s");

  // mlc: the programmer. A batched cell costs two lanes (SET, then RST), so
  // operations beyond lanes / 2 went through the scalar program().
  const double operations = count("mlc.program.operations");
  const double program_busy = busy("mlc.program.time");
  outcome.add("mlc.program.scalar_calls", std::max(0.0, operations - lanes / 2.0), "count");
  outcome.add("mlc.program.busy_s", program_busy, "s");
  outcome.add("mlc.program.ms_per_call", 1e3 * ratio(program_busy, operations), "ms");

  // mc: the trial runner.
  const double trial_busy = busy("mc.trial_time");
  outcome.add("mc.trial_busy_s", trial_busy, "s");
  outcome.add("mc.chunks_claimed", count("mc.chunks_claimed"), "count");
  outcome.add("mc.parallel_efficiency",
              ratio(trial_busy, static_cast<double>(kThreads) * busy("mc.run_time")), "ratio");

  // ecc / reliability.
  outcome.add("ecc.reprograms_per_cell",
              ratio(count("ecc.scrub_reprograms") + count("ecc.verify_reprograms"),
                    count("ecc.cells_programmed")),
              "ratio");
  outcome.add("reliability.advance_busy_s", busy("reliability.advance_time"), "s");
}

// Median wall time, in microseconds, of one util::parallel_for over 8 trivial
// items at kThreads workers.
double dispatch_probe_us() {
  oxmlc::util::ParallelForOptions pool;
  pool.threads = kThreads;
  std::vector<double> seconds;
  for (int i = 0; i < 2000; ++i) {
    const double start = wall_now();
    oxmlc::util::parallel_for(8, pool, [](std::size_t, std::size_t) {});
    seconds.push_back(wall_now() - start);
  }
  return 1e6 * median(std::move(seconds));
}

void add_span_layers(Outcome& outcome, const Spans& spans) {
  const auto max_of = [](const std::vector<double>& values) {
    return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
  };
  outcome.add("memsys.scheduler_s", spans.total("memsys.scheduler"), "s");
  outcome.add("memsys.report_s", spans.total("memsys.report"), "s");
  outcome.add("memsys.fidelity_setup_s", spans.total("memsys.fidelity_setup"), "s");
  outcome.add("memsys.sampling_s", spans.total("memsys.sampling"), "s");
  outcome.add("memsys.word_tier_s", spans.total("memsys.word_tier"), "s");
  outcome.add("memsys.mna_tier_s", spans.total("memsys.mna_tier"), "s");
  const std::vector<double> samples = spans.durations("memsys.mna_sample");
  outcome.add("memsys.mna_sample_p50_s", median(samples), "s");
  outcome.add("memsys.mna_sample_max_s", max_of(samples), "s");
  outcome.add("memsys.mna_samples", static_cast<double>(samples.size()), "count");
  outcome.add("memsys.witness_s", spans.total("memsys.witness"), "s");
  outcome.add("mlc.calibration_s", spans.total("mlc.calibration"), "s");
  const std::vector<double> words = spans.durations("ecc.word");
  outcome.add("ecc.word_p50_s", median(words), "s");
  outcome.add("ecc.word_max_s", max_of(words), "s");
  outcome.add("ecc.words", static_cast<double>(words.size()), "count");
}

}  // namespace

void add_per_layer(Outcome& outcome, const Spans& spans,
                   const oxmlc::obs::MetricsSnapshot& snapshot, double untraced_wall_s,
                   double attributed_s, double traced_wall_s) {
  add_span_layers(outcome, spans);
  outcome.add("trace.untraced_wall_s", untraced_wall_s, "s");
  outcome.add("trace.unattributed_s", untraced_wall_s - attributed_s, "s");
  outcome.add("trace.overhead_s", traced_wall_s - untraced_wall_s, "s");
  add_registry_layers(outcome, snapshot, dispatch_probe_us());
}

std::string printed(double value, int precision) {
  std::ostringstream out;
  out.precision(precision);
  out << value;
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench
