#include "numeric/schur_lu.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "numeric/linear_error.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace oxmlc::num {
namespace {

struct SchurMetrics {
  obs::Counter& factorizations = obs::registry().counter("schur.factorizations");
  obs::Counter& solves = obs::registry().counter("schur.solves");
  obs::Counter& blocks_factored = obs::registry().counter("schur.blocks_factored");
  obs::Counter& block_refactorize_hits =
      obs::registry().counter("schur.block_refactorize_hits");
  obs::Counter& block_fallbacks =
      obs::registry().counter("sparse_lu.schur_block_refactorize_fallbacks");
  obs::Gauge& border_size = obs::registry().gauge("schur.border_size");
  obs::Gauge& blocks = obs::registry().gauge("schur.blocks");
  obs::Gauge& parallel_efficiency =
      obs::registry().gauge("schur.parallel_efficiency");

  static SchurMetrics& get() {
    static SchurMetrics metrics;
    return metrics;
  }
};

// Grain floor for the three per-block loops, in units of the per-call work
// estimate Σ_k n_k³ over the interior block sizes (dense factorization plus
// the |J_k| column solves; about 1 ns per unit on a 4-core x86-64 VM, GCC
// 12.2). Issuing a pool dispatch costs under a microsecond, but a woken
// worker is not reliably on a CPU for up to ~1 ms: on that VM with the
// process pinned to 2 CPUs, 8 items of 16-128 us each ran no faster at 2
// threads than serially, and 8 items of 256 us ran 1.85x faster. Below
// ~2 ms of estimated work per call the loops therefore run on the calling
// thread; this covers every bank the memsys MNA tier and the 8x8-64x64
// bench_hier_mna sweep build (Σ n³ = 1.1e4-1.0e6).
constexpr double kParallelWorkFloor = 2e6;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void BlockPartition::validate() const {
  for (std::size_t i = 0; i < block_of.size(); ++i) {
    const std::int32_t b = block_of[i];
    if (b == kBorder) continue;
    if (b < 0 || static_cast<std::size_t>(b) >= blocks) {
      throw InvalidArgumentError(
          "BlockPartition: unknown " + std::to_string(i) + " assigned to block " +
          std::to_string(b) + " outside [0, " + std::to_string(blocks) + ")");
    }
  }
}

BlockSchurLu::BlockSchurLu(BlockPartition partition, const SchurOptions& options)
    : partition_(std::move(partition)), options_(options) {
  OXMLC_CHECK(partition_.blocks > 0, "BlockSchurLu: partition needs >= 1 block");
  partition_.validate();
  build_structure();
}

void BlockSchurLu::build_structure() {
  const std::size_t n = partition_.block_of.size();
  local_.assign(n, 0);
  border_.clear();
  blocks_.clear();
  blocks_.resize(partition_.blocks);

  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t b = partition_.block_of[i];
    if (b == BlockPartition::kBorder) {
      local_[i] = border_.size();
      border_.push_back(i);
    } else {
      Block& blk = blocks_[static_cast<std::size_t>(b)];
      local_[i] = blk.globals.size();
      blk.globals.push_back(i);
    }
  }
  double work = 0.0;
  for (Block& blk : blocks_) {
    blk.a.resize(blk.globals.size());
    work += std::pow(static_cast<double>(blk.globals.size()), 3);
  }
  block_threads_ = work < kParallelWorkFloor ? 1 : options_.threads;

  schur_ = DenseMatrix(border_.size(), border_.size());
  border_rhs_.assign(border_.size(), 0.0);
  border_y_.assign(border_.size(), 0.0);
  structure_built_ = true;
}

void BlockSchurLu::split(const TripletMatrix& triplets) {
  for (Block& blk : blocks_) {
    blk.a.clear();
    blk.b.clear();
    blk.c.clear();
  }
  schur_.set_zero();

  const auto& bo = partition_.block_of;
  for (const Triplet& t : triplets.entries()) {
    const std::int32_t br = bo[t.row];
    const std::int32_t bc = bo[t.col];
    if (br == BlockPartition::kBorder && bc == BlockPartition::kBorder) {
      schur_.add(local_[t.row], local_[t.col], t.value);
    } else if (br == bc) {
      blocks_[static_cast<std::size_t>(br)].a.add(local_[t.row], local_[t.col],
                                                  t.value);
    } else if (bc == BlockPartition::kBorder) {
      blocks_[static_cast<std::size_t>(br)].b.push_back(
          {local_[t.row], local_[t.col], t.value});
    } else if (br == BlockPartition::kBorder) {
      blocks_[static_cast<std::size_t>(bc)].c.push_back(
          {local_[t.row], local_[t.col], t.value});
    } else {
      throw InvalidArgumentError(
          "BlockSchurLu: matrix entry (" + std::to_string(t.row) + ", " +
          std::to_string(t.col) + ") couples interior block " +
          std::to_string(br) + " to block " + std::to_string(bc) +
          "; cross-block coupling must go through the border — partition invalid");
    }
  }

  // Column supports J_k: the border columns each block actually touches.
  for (Block& blk : blocks_) {
    blk.border_cols.clear();
    for (const Triplet& t : blk.b) blk.border_cols.push_back(t.col);
    std::sort(blk.border_cols.begin(), blk.border_cols.end());
    blk.border_cols.erase(
        std::unique(blk.border_cols.begin(), blk.border_cols.end()),
        blk.border_cols.end());
  }
}

void BlockSchurLu::factor_block(std::size_t k) {
  Block& blk = blocks_[k];
  const std::size_t n = blk.globals.size();
  blk.pattern_hit = false;
  blk.fallback = false;
  blk.factor_ns = 0;
  if (n == 0) return;

  const std::int64_t t0 = now_ns();
  try {
    blk.solver.factorize_cached(blk.a);
  } catch (const SingularMatrixError& e) {
    const std::size_t global =
        e.column() < n ? blk.globals[e.column()] : blk.globals.front();
    throw SingularMatrixError(
        "BlockSchurLu: interior block " + std::to_string(k) +
            " singular at block-local column " + std::to_string(e.column()) +
            " (global unknown " + std::to_string(global) + "): " + e.what(),
        global);
  }
  // Dense blocks rebuild cheaply every call; only the sparse path
  // distinguishes refactorize hits, so count dense as a hit.
  blk.pattern_hit =
      blk.solver.last_refactorized() || n <= LinearSolver::kDenseCutoff;
  blk.fallback = blk.solver.last_fallback();

  // Z = A_k⁻¹ B_k restricted to the touched border columns.
  blk.z.assign(blk.border_cols.size() * n, 0.0);
  blk.rhs.assign(n, 0.0);
  blk.sol.assign(n, 0.0);
  for (std::size_t j = 0; j < blk.border_cols.size(); ++j) {
    const std::size_t jb = blk.border_cols[j];
    std::fill(blk.rhs.begin(), blk.rhs.end(), 0.0);
    for (const Triplet& t : blk.b) {
      if (t.col == jb) blk.rhs[t.row] += t.value;
    }
    blk.solver.solve(blk.rhs, std::span<double>(blk.z).subspan(j * n, n));
  }
  blk.factor_ns = now_ns() - t0;
}

void BlockSchurLu::factorize_cached(const TripletMatrix& triplets) {
  OXMLC_CHECK(triplets.size() == partition_.block_of.size(),
              "BlockSchurLu: system size does not match the partition");
  SchurMetrics& metrics = SchurMetrics::get();

  split(triplets);

  // Parallel per-block phase: each block writes only its own state.
  const std::int64_t wall0 = now_ns();
  util::ParallelForOptions popt;
  popt.threads = block_threads_;
  popt.chunk = 1;
  const std::size_t workers =
      util::parallel_for(blocks_.size(), popt, [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) factor_block(k);
      });
  const std::int64_t wall_ns = now_ns() - wall0;

  // Sequential cross-block phase, ascending block order: S = D - Σ C_k Z_k.
  for (const Block& blk : blocks_) {
    const std::size_t n = blk.globals.size();
    for (const Triplet& t : blk.c) {
      for (std::size_t j = 0; j < blk.border_cols.size(); ++j) {
        schur_.add(t.row, blk.border_cols[j], -t.value * blk.z[j * n + t.col]);
      }
    }
  }

  if (!border_.empty()) {
    try {
      schur_lu_.factorize(schur_, options_.pivot_tol);
    } catch (const SingularMatrixError& e) {
      const std::size_t global =
          e.column() < border_.size() ? border_[e.column()] : border_.front();
      throw SingularMatrixError(
          "BlockSchurLu: border Schur complement singular at border column " +
              std::to_string(e.column()) + " (global unknown " +
              std::to_string(global) + "): " + e.what(),
          global);
    }
  }

  std::size_t hits = 0;
  std::size_t fallbacks = 0;
  std::int64_t block_ns = 0;
  for (const Block& blk : blocks_) {
    if (blk.pattern_hit) ++hits;
    if (blk.fallback) ++fallbacks;
    block_ns += blk.factor_ns;
  }
  last_refactorized_ = had_prior_factorize_ && hits == blocks_.size() && fallbacks == 0;
  had_prior_factorize_ = true;
  factorized_ = true;

  metrics.factorizations.add();
  metrics.blocks_factored.add(blocks_.size());
  metrics.block_refactorize_hits.add(hits);
  if (fallbacks > 0) metrics.block_fallbacks.add(fallbacks);
  metrics.border_size.set(static_cast<double>(border_.size()));
  metrics.blocks.set(static_cast<double>(blocks_.size()));
  if (wall_ns > 0) {
    metrics.parallel_efficiency.set(
        static_cast<double>(block_ns) /
        (static_cast<double>(wall_ns) * static_cast<double>(workers)));
  }
}

void BlockSchurLu::solve(std::span<const double> b, std::span<double> x) {
  OXMLC_CHECK(factorized_, "BlockSchurLu::solve before factorize");
  OXMLC_CHECK(b.size() == size() && x.size() == size(),
              "BlockSchurLu::solve size mismatch");
  SchurMetrics& metrics = SchurMetrics::get();

  util::ParallelForOptions popt;
  popt.threads = block_threads_;
  popt.chunk = 1;

  // Interior forward solves g_k = A_k⁻¹ b_k (parallel, per-block storage).
  util::parallel_for(blocks_.size(), popt,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t k = begin; k < end; ++k) {
                         Block& blk = blocks_[k];
                         const std::size_t n = blk.globals.size();
                         if (n == 0) continue;
                         blk.rhs.resize(n);
                         blk.sol.resize(n);
                         for (std::size_t i = 0; i < n; ++i) {
                           blk.rhs[i] = b[blk.globals[i]];
                         }
                         blk.solver.solve(blk.rhs, blk.sol);
                       }
                     });

  // Border RHS, sequential in ascending block order.
  for (std::size_t i = 0; i < border_.size(); ++i) border_rhs_[i] = b[border_[i]];
  for (const Block& blk : blocks_) {
    for (const Triplet& t : blk.c) {
      border_rhs_[t.row] -= t.value * blk.sol[t.col];
    }
  }
  if (!border_.empty()) {
    schur_lu_.solve(border_rhs_, border_y_);
  }

  // Interior back-substitution x_k = A_k⁻¹ (b_k - B_k y) (parallel). Rather
  // than a second triangular solve, reuse Z: x_k = g_k - Σ_j y_j Z_k[:, j].
  util::parallel_for(blocks_.size(), popt,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t k = begin; k < end; ++k) {
                         Block& blk = blocks_[k];
                         const std::size_t n = blk.globals.size();
                         if (n == 0) continue;
                         for (std::size_t j = 0; j < blk.border_cols.size(); ++j) {
                           const double yj = border_y_[blk.border_cols[j]];
                           if (yj == 0.0) continue;
                           const double* zcol = blk.z.data() + j * n;
                           for (std::size_t i = 0; i < n; ++i) {
                             blk.sol[i] -= yj * zcol[i];
                           }
                         }
                         for (std::size_t i = 0; i < n; ++i) {
                           x[blk.globals[i]] = blk.sol[i];
                         }
                       }
                     });

  for (std::size_t i = 0; i < border_.size(); ++i) x[border_[i]] = border_y_[i];
  metrics.solves.add();
}

}  // namespace oxmlc::num
