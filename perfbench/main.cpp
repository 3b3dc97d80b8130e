// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload replay|mc_study|ecc --seed N --seconds S --trace 0|1
//             [--small] [--root DIR] [--out DIR]
//
// --trace 0 times the workload's public entry point and prints the
// end-to-end metrics; --trace 1 runs it once untraced and once traced and
// prints the per-layer metrics. Both modes check every output.
//
// The process runs 2 worker threads pinned to the last 2 CPUs it may use. On
// the 4-vCPU VM the baselines come from, unpinned 2-thread replays ranged
// from 11 to 27 s from run to run (the pool's thread spawns wait on vCPU
// wake-ups), while pinned ones stayed within about 6 %.
//
// The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <malloc.h>
#include <sched.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"
#include "util/provenance.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload replay|mc_study|ecc --seed N --seconds S "
               "--trace 0|1 [--small] [--root DIR] [--out DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      options.small = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--root") {
        options.root = value;
      } else if (flag == "--out") {
        options.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload != "replay" && options.workload != "mc_study" &&
      options.workload != "ecc") {
    usage("--workload must be replay, mc_study or ecc");
  }
  return options;
}

// Restricts the process to the last `count` CPUs of its affinity set, before
// any worker thread exists (threads inherit it). Returns the CPUs now used.
std::vector<int> pin_to_last_cpus(std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() > count) cpus.erase(cpus.begin(), cpus.end() - static_cast<long>(count));
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (const int cpu : cpus) CPU_SET(cpu, &chosen);
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0) return {};
  return cpus;
}

}  // namespace

int main(int argc, char** argv) {
  using oxmlc::obs::Json;
  const Options options = parse(argc, argv);
  const std::vector<int> cpus = pin_to_last_cpus(perfbench::kThreads);
  // A fixed mmap threshold keeps glibc's default for a fresh process: every
  // large buffer (the 32 MB trace, the latency vectors) gets fresh pages on
  // each repetition. Left dynamic, the threshold rises after the first few
  // frees, later repetitions reuse heap pages, and the reused pages' placement
  // made set-up times differ by up to 30 % between otherwise identical runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  Json stamp = Json::object();
  stamp.set("workload", options.workload);
  stamp.set("seed", static_cast<unsigned long long>(options.seed));
  stamp.set("trace", options.trace);
  stamp.set("threads", static_cast<unsigned long long>(perfbench::kThreads));
  stamp.set("nproc", static_cast<unsigned long long>(std::thread::hardware_concurrency()));
  Json pinned = Json::array();
  for (const int cpu : cpus) pinned.push_back(cpu);
  stamp.set("cpus", pinned);
  stamp.set("provenance", Json::parse(oxmlc::util::provenance_json()));
  std::cout << "provenance " << stamp.dump() << "\n";

  perfbench::Spans spans;
  perfbench::Outcome outcome;
  try {
    if (options.workload == "replay") {
      outcome = perfbench::run_replay(options, spans);
    } else if (options.workload == "mc_study") {
      outcome = perfbench::run_mc_study(options, spans);
    } else {
      outcome = perfbench::run_ecc(options, spans);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: " << error.what() << "\n";
    return 1;
  }

  for (const std::string& note : outcome.notes) std::cout << "  " << note << "\n";
  for (const std::string& problem : outcome.problems) {
    std::cerr << "CHECK FAILED: " << problem << "\n";
  }
  Json metrics = Json::object();
  for (const perfbench::Metric& metric : outcome.metrics) {
    std::cout << "  " << options.workload << "/" << metric.name << " = " << metric.value << " "
              << metric.unit << "\n";
    Json entry = Json::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    metrics.set(metric.name, entry);
  }

  if (options.trace && !options.out_dir.empty()) {
    const std::string path = options.out_dir + "/spans-" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    Json document = spans.to_json();
    document.set("run", stamp);
    document.set("metrics", metrics);
    std::ofstream out(path);
    out << document.dump(1) << "\n";
    if (!out) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
  }

  const bool correct = outcome.problems.empty();
  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<unsigned long long>(outcome.attempted));
  result.set("failed", static_cast<unsigned long long>(outcome.failed));
  result.set("metrics", metrics);
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}
