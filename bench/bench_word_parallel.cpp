// Architecture validation (Fig. 6 / Fig. 7b, §4.2): word-parallel terminated
// RESET at transistor level — "multi-bit access is guaranteed as one RST
// write termination is associated with a single bit-line".
//
// A four-column bank write path: the columns share one source line and word
// line, and each carries its own 1 pF bit line, Fig. 7a termination circuit
// and program-inhibit clamp. The bench programs the word to four different
// levels in ONE shared RESET pulse and shows the staggered per-bit stops.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "array/bank_write_path.hpp"
#include "bench_common.hpp"
#include "mlc/levels.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

int main() {
  using namespace oxmlc;

  bench::print_header(
      "Word-parallel RST", "4 bits, one shared SL pulse, per-BL termination",
      "(architecture claim, §4.2: word programming = full SET, then one "
      "parallel RST with per-bit-line termination selected by the data bus)");

  array::BankWritePathConfig config;
  config.irefs = {34e-6, 24e-6, 14e-6, 8e-6};
  config.columns = config.irefs.size();
  config.rows = 1024;
  config.pulse_width = 8e-6;
  config.t_stop = 8.2e-6;
  const array::BankWritePathResult result = array::BankWritePath(config).run();
  const auto& bits = result.columns;
  double word_latency = 0.0;
  for (const auto& bit : bits) word_latency = std::max(word_latency, bit.t_terminate);

  Table t({"bit", "IrefR (uA)", "terminated", "stop time (us)", "R final (kOhm)",
           "nearest Table 2 state"});
  for (std::size_t b = 0; b < bits.size(); ++b) {
    // Nearest paper state by resistance.
    const auto& table2 = mlc::paper_table2();
    std::size_t nearest = 0;
    for (std::size_t k = 1; k < table2.size(); ++k) {
      if (std::fabs(table2[k].r_hrs - bits[b].final_resistance) <
          std::fabs(table2[nearest].r_hrs - bits[b].final_resistance)) {
        nearest = k;
      }
    }
    t.add_row({std::to_string(b), format_scaled(config.irefs[b], 1e-6, 0),
               bits[b].terminated ? "yes" : "NO",
               format_scaled(bits[b].t_terminate, 1e-6, 2),
               format_scaled(bits[b].final_resistance, 1e3, 1),
               format_scaled(table2[nearest].r_hrs, 1e3, 1) + " k (" +
                   std::to_string(table2[nearest].value) + ")"});
  }
  t.print(std::cout);
  std::cout << "\n  word latency (slowest bit): "
            << format_si(word_latency, "s", 3)
            << "\n  solver: " << result.transient.steps_accepted << " steps, "
            << result.transient.newton_iterations << " Newton iterations for the "
            << "4-column netlist\n";

  // Per-bit current decays on one time axis.
  std::vector<Series> series;
  const char markers[] = {'0', '1', '2', '3'};
  for (std::size_t b = 0; b < bits.size(); ++b) {
    Series s{{"bit " + std::to_string(b), markers[b]}, {}, {}};
    const auto& icell =
        result.transient.probe_values[array::BankWritePathResult::probe_icell(b)];
    for (std::size_t k = 0; k < result.transient.times.size(); ++k) {
      s.x.push_back(result.transient.times[k] * 1e6);
      s.y.push_back(std::max(icell[k], 1e-9));
    }
    series.push_back(std::move(s));
  }
  PlotOptions options;
  options.title = "per-bit cell currents during the shared RST pulse";
  options.x_label = "time (us)";
  options.y_label = "I cell (A)";
  options.y_scale = AxisScale::kLog10;
  plot_series(std::cout, series, options);

  // Stop times in scientific notation: std::to_string keeps six decimals,
  // which rounds microsecond-scale stops to whole microseconds.
  const auto scientific = [](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6e", value);
    return std::string(buffer);
  };
  Table csv({"bit", "iref_a", "t_stop_s", "r_final_ohm"});
  for (std::size_t b = 0; b < bits.size(); ++b) {
    csv.add_row({std::to_string(b), std::to_string(config.irefs[b]),
                 scientific(bits[b].t_terminate),
                 std::to_string(bits[b].final_resistance)});
  }
  bench::save_csv(csv, "word_parallel.csv");
  return 0;
}
