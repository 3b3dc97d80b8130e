#include "mlc/verify_scrub.hpp"

#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace oxmlc::mlc {

std::vector<ProgramOutcome> VerifyScrubStepper::reprogram(
    std::span<reliability::CellTrajectory> cells, std::span<const std::size_t> targets,
    std::span<const std::size_t> subset, double t) const {
  std::vector<oxram::FastCell*> cell_ptrs;
  std::vector<std::size_t> levels;
  std::vector<Rng*> rngs;
  for (const std::size_t i : subset) {
    cell_ptrs.push_back(&cells[i].cell);
    levels.push_back(targets[i]);
    rngs.push_back(&cells[i].rng);
  }
  std::vector<ProgramOutcome> outcomes = programmer.program_word(cell_ptrs, levels, rngs);
  // A fresh relaxation draw: the selection effect that recovers the window.
  for (const std::size_t i : subset) cells[i].reprogrammed(drift, t);
  return outcomes;
}

std::vector<ProgramOutcome> VerifyScrubStepper::program(
    std::span<reliability::CellTrajectory> cells, std::span<const std::size_t> targets) const {
  OXMLC_CHECK(cells.size() == targets.size(),
              "VerifyScrubStepper: need one target level per cell");
  std::vector<std::size_t> all(cells.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<ProgramOutcome> outcomes = reprogram(cells, targets, all, 0.0);
  // The slow-drift amplitude is per cell: drawn once, after the first event's.
  for (reliability::CellTrajectory& cell : cells) {
    cell.drift_amp = oxram::sample_drift_amplitude(drift, cell.rng);
  }
  return outcomes;
}

std::size_t VerifyScrubStepper::sense(reliability::CellTrajectory& cell, double t) const {
  const QlcConfig& qlc = programmer.config();
  const double g = cell.gap_at(drift, t);
  const double g_disturbed =
      read_disturb.enabled
          ? reliability::read_disturbed_gap(cell.cell, g, qlc.v_read, qlc.v_wl_read,
                                            read_disturb.t_read * read_disturb.accel)
          : g;
  cell.offset += g_disturbed - g;
  cell.cell.set_gap(g_disturbed);
  return programmer.read_level(cell.cell, cell.rng);
}

std::vector<VerifyOutcome> VerifyScrubStepper::verify(
    std::span<reliability::CellTrajectory> cells, std::span<const std::size_t> targets,
    const VerifyTiming& timing) const {
  OXMLC_CHECK(cells.size() == targets.size(),
              "VerifyScrubStepper: need one target level per cell");
  std::vector<VerifyOutcome> outcomes(cells.size());
  std::vector<std::size_t> pending(cells.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  double t = 0.0;
  for (std::size_t pass = 0; pass < timing.max_passes && !pending.empty(); ++pass) {
    t += timing.tau_relax;
    std::vector<std::size_t> slipped;
    for (const std::size_t i : pending) {
      outcomes[i].in_band = sense(cells[i], t) == targets[i];
      if (!outcomes[i].in_band) slipped.push_back(i);
    }
    if (pass + 1 == timing.max_passes) break;  // the last re-sense only checks
    reprogram(cells, targets, slipped, t);
    for (const std::size_t i : slipped) ++outcomes[i].reprograms;
    pending = std::move(slipped);
  }
  return outcomes;
}

std::size_t VerifyScrubStepper::scrub(std::span<reliability::CellTrajectory> cells,
                                      std::span<const std::size_t> targets, double t) const {
  OXMLC_CHECK(cells.size() == targets.size(),
              "VerifyScrubStepper: need one target level per cell");
  std::vector<std::size_t> slipped;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (sense(cells[i], t) != targets[i]) slipped.push_back(i);
  }
  reprogram(cells, targets, slipped, t);
  return slipped.size();
}

}  // namespace oxmlc::mlc
