// Test helper: pins the pack backend for the lifetime of a scope.
//
// Every FastCell / CellBatch / drifted_gap_batch call made inside the scope
// runs the forced pack (kScalar: the portable pack, kAvx2: the AVX2 pack
// where the CPU has it), which is how the dispatch-safety tests compare the
// two bitwise. The scalar reference formulations are not a backend; they are
// the test oracles of reference_engine.hpp. The previous override is restored
// on exit, also when a fatal assertion returns early from the test body.
#pragma once

#include "numeric/simd.hpp"

namespace oxmlc::testing_support {

class ScopedBackend {
 public:
  explicit ScopedBackend(num::simd::Backend backend)
      : previous_(num::simd::set_backend_override(backend)) {}
  ~ScopedBackend() { num::simd::set_backend_override(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  num::simd::Backend previous_;
};

}  // namespace oxmlc::testing_support
