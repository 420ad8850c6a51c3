// Portable scalar arm: plain std::fmaf loops, no ISA extensions beyond the
// baseline target. This is the semantic ground truth every other arm must
// match bit-for-bit (LOAM_SIMD=portable pins it).
#include "nn/simd.h"

#include <cmath>
#include <cstddef>
#include <new>

namespace loam::nn::simd {
namespace kern_scalar {

#define LOAM_KERNEL_SCALAR 1
#define LOAM_KERNEL_NAME "scalar"
#define LOAM_KERNEL_ARCH ::loam::nn::simd::Arch::kScalar
#include "nn/kernels_impl.inc"
#undef LOAM_KERNEL_ARCH
#undef LOAM_KERNEL_NAME
#undef LOAM_KERNEL_SCALAR

}  // namespace kern_scalar

const KernelOps* kernel_ops_scalar() { return &kern_scalar::kOps; }

}  // namespace loam::nn::simd
