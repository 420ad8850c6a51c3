// AVX-512 arm: the same kernel shapes at 16 fp32 lanes, with hardware mask
// registers for remainders.
#include "nn/simd.h"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX512F__) && \
    defined(__AVX512BW__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <new>

namespace loam::nn::simd {
namespace kern_avx512 {

struct V {
  using F = __m512;
  static constexpr int kW = 16;

  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static F bcast(float x) { return _mm512_set1_ps(x); }
  static F zero() { return _mm512_setzero_ps(); }
  static F fma(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }

  static __mmask16 mask(int rem) {
    return static_cast<__mmask16>((1u << rem) - 1u);
  }
  static F maskload(const float* p, int rem) {
    return _mm512_maskz_loadu_ps(mask(rem), p);
  }
  static void maskstore(float* p, int rem, F v) {
    _mm512_mask_storeu_ps(p, mask(rem), v);
  }
};

#define LOAM_KERNEL_NAME "avx512"
#define LOAM_KERNEL_ARCH ::loam::nn::simd::Arch::kAvx512
#include "nn/kernels_impl.inc"
#undef LOAM_KERNEL_ARCH
#undef LOAM_KERNEL_NAME

}  // namespace kern_avx512

const KernelOps* kernel_ops_avx512() { return &kern_avx512::kOps; }

}  // namespace loam::nn::simd

#else

namespace loam::nn::simd {
const KernelOps* kernel_ops_avx512() { return nullptr; }
}  // namespace loam::nn::simd

#endif
