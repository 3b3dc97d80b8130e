// Test helper: pins the batch engine for the lifetime of a scope.
//
// The equivalence suites run one side of a comparison on the scalar
// reference engine (num::simd::Backend::kReference: CellBatch::step_lane with
// the warm-started current-Newton solve) and the other on the dispatched pack
// engine, so every FastCell / CellBatch / QlcProgrammer call made inside the
// scope exercises a different stack-solver formulation than the same call
// outside it. The previous override is restored on exit, also when a fatal
// assertion returns early from the test body.
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
