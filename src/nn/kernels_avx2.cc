// AVX2/FMA arm: 8-wide fp32 lanes, register-blocked 4x2-vector accumulator
// tiles. Masked loads/stores cover remainder columns so odd shapes never
// touch memory past the row.
#include "nn/simd.h"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX2__) && \
    defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <new>

namespace loam::nn::simd {
namespace kern_avx2 {

struct V {
  using F = __m256;
  static constexpr int kW = 8;

  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static F bcast(float x) { return _mm256_set1_ps(x); }
  static F zero() { return _mm256_setzero_ps(); }
  static F fma(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }

  // Lane mask enabling the first `rem` (1..7) lanes.
  static __m256i mask(int rem) {
    alignas(32) static const std::int32_t kTable[16] = {
        -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kTable + 8 - rem));
  }
  static F maskload(const float* p, int rem) {
    return _mm256_maskload_ps(p, mask(rem));
  }
  static void maskstore(float* p, int rem, F v) {
    _mm256_maskstore_ps(p, mask(rem), v);
  }
};

#define LOAM_KERNEL_NAME "avx2"
#define LOAM_KERNEL_ARCH ::loam::nn::simd::Arch::kAvx2
#include "nn/kernels_impl.inc"
#undef LOAM_KERNEL_ARCH
#undef LOAM_KERNEL_NAME

}  // namespace kern_avx2

const KernelOps* kernel_ops_avx2() { return &kern_avx2::kOps; }

}  // namespace loam::nn::simd

#else

namespace loam::nn::simd {
const KernelOps* kernel_ops_avx2() { return nullptr; }
}  // namespace loam::nn::simd

#endif
