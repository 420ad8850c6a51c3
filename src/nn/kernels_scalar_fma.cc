// Scalar-semantics arm compiled with -mfma: identical loops to the portable
// arm, but fmaf inlines to vfmadd (and the compiler may vectorize the
// lane-independent j loops — legal under the house rule because each output
// element is still its own single fmaf chain). This keeps the LOAM_SIMD=off
// CI leg honest without paying libm-call prices.
#include "nn/simd.h"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__FMA__)

#include <cmath>
#include <cstddef>
#include <new>

namespace loam::nn::simd {
namespace kern_scalar_fma {

#define LOAM_KERNEL_SCALAR 1
#define LOAM_KERNEL_NAME "scalar+fma"
#define LOAM_KERNEL_ARCH ::loam::nn::simd::Arch::kScalarFma
#include "nn/kernels_impl.inc"
#undef LOAM_KERNEL_ARCH
#undef LOAM_KERNEL_NAME
#undef LOAM_KERNEL_SCALAR

}  // namespace kern_scalar_fma

const KernelOps* kernel_ops_scalar_fma() { return &kern_scalar_fma::kOps; }

}  // namespace loam::nn::simd

#else

namespace loam::nn::simd {
const KernelOps* kernel_ops_scalar_fma() { return nullptr; }
}  // namespace loam::nn::simd

#endif
