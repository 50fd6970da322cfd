// Compile-time vector target of the build.
//
// The frozen-store kernels (forms/frozen_tracking_form.h) are plain C++
// loops the compiler vectorizes for whatever ISA the build targets; there
// is no runtime dispatch and no override. `ActiveSimdName()` names that
// target for reports — the `simd` label on `innet_build_info`, `/varz`
// (docs/OBSERVABILITY.md) and the benchmarks' machine notes.
#ifndef INNET_UTIL_SIMD_H_
#define INNET_UTIL_SIMD_H_

namespace innet::util::simd {

/// "avx2" when the build targets AVX2, "neon" on NEON targets, else
/// "scalar" (the baseline ISA, e.g. SSE2 on x86-64).
inline const char* ActiveSimdName() {
#if defined(__AVX2__)
  return "avx2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace innet::util::simd

#endif  // INNET_UTIL_SIMD_H_
