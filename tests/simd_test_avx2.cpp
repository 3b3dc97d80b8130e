// PackAvx instantiations of simd_pack_eval.hpp for simd_test; built with
// -mavx2 -mfma like the library's pack_avx2.cpp, and called only when
// num::simd::avx2_available().
#include "simd_pack_eval.hpp"

namespace oxmlc::num::simd::pack_eval {

template void eval_exp<PackAvx>(const double* xs, double* out, std::size_t n);
template void eval_log1p<PackAvx>(const double* xs, double* out, std::size_t n);

}  // namespace oxmlc::num::simd::pack_eval
