// The portable pack instantiations of the pack kernels (pack_kernels.hpp).
#include "oxram/pack_kernels.hpp"

namespace oxmlc::oxram {

template void CellBatch::step_pack<num::simd::PackScalar>(const std::size_t* lanes,
                                                          std::size_t count);
template void detail::drifted_gap_batch_pack<num::simd::PackScalar>(
    const DriftParams& p, const double* g_anchor, const double* g_min,
    const double* relax_amp, const double* drift_amp, const double* t, double* out,
    std::size_t n);

}  // namespace oxmlc::oxram
