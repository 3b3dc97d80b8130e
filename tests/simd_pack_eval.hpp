// Array evaluation of the pack transcendentals for simd_test: whole packs,
// then a broadcast pack per tail element. One source for both packs:
// simd_test.cpp instantiates PackScalar, the ISA-isolated simd_test_avx2.cpp
// instantiates PackAvx, so this code touches raw arrays only.
#pragma once

#include <cstddef>

#include "numeric/simd.hpp"

namespace oxmlc::num::simd::pack_eval {

template <typename P>
void eval_exp(const double* xs, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kPackWidth <= n; i += kPackWidth) {
    exp<P>(P::Vec::load(&xs[i])).store(&out[i]);
  }
  for (; i < n; ++i) out[i] = exp<P>(P::Vec::broadcast(xs[i])).lane(0);
}

template <typename P>
void eval_log1p(const double* xs, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kPackWidth <= n; i += kPackWidth) {
    log1p<P>(P::Vec::load(&xs[i])).store(&out[i]);
  }
  for (; i < n; ++i) out[i] = log1p<P>(P::Vec::broadcast(xs[i])).lane(0);
}

}  // namespace oxmlc::num::simd::pack_eval
