// The AVX2 + FMA pack instantiations of the pack kernels (pack_kernels.hpp).
//
// The only TU built with -mavx2 -mfma (src/oxram/CMakeLists.txt), and only
// when the compiler accepts those flags on x86-64. Nothing runs here unless
// num::simd::avx2_available() confirmed the CPU at runtime, so this TU may
// define no external-linkage code but these PackAvx instantiations and what
// they inline; scripts/check_isa_isolation.py checks the object.
#include "oxram/pack_kernels.hpp"

namespace oxmlc::oxram {

template void CellBatch::step_pack<num::simd::PackAvx>(const std::size_t* lanes,
                                                       std::size_t count);
template void detail::drifted_gap_batch_pack<num::simd::PackAvx>(
    const DriftParams& p, const double* g_anchor, const double* g_min,
    const double* relax_amp, const double* drift_amp, const double* t, double* out,
    std::size_t n);

}  // namespace oxmlc::oxram
