// Shared plumbing of the end-to-end benchmark: command-line options, the
// per-run outcome (checks, attempted/failed counts, named metrics), wall and
// CPU clocks, and the timing loops every workload uses.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "spans.hpp"

namespace perfbench {

// Worker threads of every workload, and CPUs the process is pinned to.
inline constexpr std::size_t kThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;  // 0 = the inputs the committed baselines were made from
  double seconds = 25.0;   // wall budget of the timed loop
  bool trace = false;      // false: end-to-end metrics; true: per-layer metrics
  bool small = false;      // self-test sizes (short trace, few trials)
  std::string root = ".";  // checkout root: committed baselines are read from here
  std::string out_dir;     // where the traced run writes its spans (empty: nowhere)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed output checks; empty = correct
  std::vector<std::string> notes;     // human-readable detail printed before the result
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
};

// Input seed of a workload: the library default for --seed 0, else a
// splitmix64 mix of the benchmark seed.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t library_default);

double wall_now();  // steady clock, seconds

double median(std::vector<double> values);  // type-7, as util/stats; 0 when empty

// Runs `setup` twice untimed, then `reps` times timed; returns each timed
// wall.
std::vector<double> time_setups(std::size_t reps, const std::function<void()>& setup);

struct CallTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

// Runs `call` at least once, then again while the next repetition is
// expected to end nearer to `seconds` after the first start than the last one
// did, so a run ends within about half a repetition of its budget. Each
// repetition's wall and process CPU time is recorded; the obs registry is
// zeroed before each one so a call's telemetry reads as its own. `check` runs
// untimed after every repetition.
CallTimes time_calls(double seconds, const std::function<void()>& call,
                     const std::function<void()>& check);

// The end-to-end metrics every workload reports (--trace 0).
void add_end_to_end(Outcome& outcome, double items, const std::vector<double>& setup_s,
                    const CallTimes& calls);

// Registry readers: missing metrics read as 0 (a layer the workload never
// entered registered nothing).
std::uint64_t counter(const oxmlc::obs::MetricsSnapshot& snapshot, const std::string& name);
double busy_seconds(const oxmlc::obs::MetricsSnapshot& snapshot, const std::string& name);

// The per-layer metrics (--trace 1), the same set for every workload; a layer
// the workload never enters reads 0. They come from the traced run's spans,
// from `snapshot` (the registry read after the untraced call), and from a
// util::parallel_for dispatch probe. `untraced_wall_s` is the untraced
// call's wall, `attributed_s` the part of it the decomposition's layer spans
// cover, and `traced_wall_s` the traced run's wall over the same work.
void add_per_layer(Outcome& outcome, const Spans& spans,
                   const oxmlc::obs::MetricsSnapshot& snapshot, double untraced_wall_s,
                   double attributed_s, double traced_wall_s);

// Reads a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

// `value` as an ostream prints it at `precision` significant digits. The
// bench harness writes BENCH_*.json values at the default 6, so a computed
// value compares exactly against a committed one in this form.
std::string printed(double value, int precision = 6);

// Workload entry points. Each runs its setup, the timed or traced call, and
// every output check, and fills the outcome's metrics for the chosen mode.
Outcome run_replay(const Options& options, Spans& spans);
Outcome run_mc_study(const Options& options, Spans& spans);
Outcome run_ecc(const Options& options, Spans& spans);

}  // namespace perfbench
