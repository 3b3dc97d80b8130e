// Relaxation-aware verify (arXiv:2301.08516) and scrub (arXiv:1810.10528)
// over reliability::CellTrajectory cells, for the ECC channel and the
// retention study. Each pass senses every pending cell, then re-terminates
// the slipped ones together in one QlcProgrammer::program_word (paper §4.2).
// A cell draws only from its own stream and program_word lanes are
// independent, so every cell gets the same draws, hence the same outcome, as
// when stepped alone (pinned against per-cell references in the tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mlc/program.hpp"
#include "reliability/engine.hpp"

namespace oxmlc::mlc {

// Budget rule of VerifyScrubStepper::verify: the last re-sense only checks,
// so a cell is re-terminated at most max_passes - 1 times (max_passes = 1
// never reprograms). MemoryController (VerifyPolicy) also reprograms after
// the last re-sense. Both rules are test-pinned at max_passes = 1.
struct VerifyTiming {
  double tau_relax = 1e-3;     // s before each re-sense (>99 % fast relaxation)
  std::size_t max_passes = 2;  // re-sense rounds
};

struct VerifyOutcome {
  std::uint32_t reprograms = 0;  // re-terminations of this cell
  bool in_band = true;           // the last re-sense decoded the target
};

// Holds references: the bound programmer and models must outlive it.
struct VerifyScrubStepper {
  const QlcProgrammer& programmer;
  const oxram::DriftParams& drift;
  const reliability::ReadDisturbModel& read_disturb;

  // The first program, at t = 0, in one program_word; anchors every cell.
  std::vector<ProgramOutcome> program(std::span<reliability::CellTrajectory> cells,
                                      std::span<const std::size_t> targets) const;

  // Moves the cell to time t, bills one sense of read disturb, decodes.
  std::size_t sense(reliability::CellTrajectory& cell, double t) const;

  // Pass k re-senses the pending cells at t = k * tau_relax; every pass but
  // the last re-terminates the slipped ones.
  std::vector<VerifyOutcome> verify(std::span<reliability::CellTrajectory> cells,
                                    std::span<const std::size_t> targets,
                                    const VerifyTiming& timing) const;

  // One scrub event at time t; returns the number of cells re-terminated.
  std::size_t scrub(std::span<reliability::CellTrajectory> cells,
                    std::span<const std::size_t> targets, double t) const;

  // Programs cells[subset] in one program_word and re-anchors them at t.
  std::vector<ProgramOutcome> reprogram(std::span<reliability::CellTrajectory> cells,
                                        std::span<const std::size_t> targets,
                                        std::span<const std::size_t> subset, double t) const;
};

}  // namespace oxmlc::mlc
