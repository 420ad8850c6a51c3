// Runtime-dispatched SIMD micro-kernels behind the nn::Mat GEMM entry points.
//
// Four arms, all compiled into every binary and selected once at runtime from
// a cpuid probe (overridable via LOAM_SIMD, see below):
//
//   scalar      portable reference: plain loops over std::fmaf (correctly
//               rounded by the C standard, so it produces the same bits as
//               hardware FMA). Runs on any target; the semantic ground truth.
//   scalar+fma  the same scalar loops compiled with -mfma so fmaf inlines to
//               vfmadd. Picked for LOAM_SIMD=off on FMA hardware — scalar
//               SEMANTICS at tolerable speed for the forced-scalar CI leg.
//   avx2        8-wide FMA micro-kernels: register-blocked accumulators
//               (4 rows x 2 vectors), packed B^T panels for the NT product,
//               masked loads/stores for remainder columns.
//   avx512      the same kernels at 16 lanes with AVX-512 mask registers.
//
// Determinism contract (the house 0-ULP rule, re-pinned for FMA): every
// output element accumulates through a SINGLE fused-multiply-add chain in
// ascending-k order — t = fma(a_k, b_k, t) — starting from the existing
// value (accumulate) or 0. Vector lanes always map to INDEPENDENT output
// elements (the j dimension); no kernel ever reduces across lanes. One
// rounding per chain step, identical on every arm, so scalar, AVX2 and
// AVX-512 agree to the bit (asserted by tests/simd_kernel_test.cc and
// tests/mat_kernel_test.cc).
#ifndef LOAM_NN_SIMD_H_
#define LOAM_NN_SIMD_H_

namespace loam::nn::simd {

enum class Arch { kScalar = 0, kScalarFma = 1, kAvx2 = 2, kAvx512 = 3 };

// One arm's kernel table. All kernels ACCUMULATE into C (callers zero C
// first for the overwrite case); matrices are dense row-major.
struct KernelOps {
  Arch arch = Arch::kScalar;
  const char* name = "scalar";

  // C[m,n] += A[m,k] * B[k,n].
  void (*gemm_nn)(const float* a, const float* b, float* c, int m, int k, int n);
  // Sparse-input variant: branches on every A element and skips zero lanes
  // (bit-identical to gemm_nn — adding a +-0 product never changes a finite
  // accumulator).
  void (*gemm_nn_sparse)(const float* a, const float* b, float* c, int m, int k,
                         int n);
  // C[m,n] += A^T B, A is [k,m].
  void (*gemm_tn)(const float* a, const float* b, float* c, int m, int k, int n);
  // C[m,n] += A B^T, B is [n,k].
  void (*gemm_nt)(const float* a, const float* b, float* c, int m, int k, int n);
};

// The dispatched arm: LOAM_SIMD override if set, else the best arm the CPU
// supports. Values: "off"/"scalar" (scalar semantics, fastest scalar arm),
// "portable" (the libm-fmaf arm, no ISA extensions), "avx2", "avx512",
// "auto"/unset (best available). An unsupported request falls back to auto.
const KernelOps& active();
Arch active_arch();
const char* active_name();

// True when the CPU can execute `a`.
bool cpu_supports(Arch a);

// Test/bench hook: pin the dispatch to one arm (false if the CPU cannot run
// it). Call from a single thread, before spawning workers. reset_arch()
// returns to the LOAM_SIMD/auto selection.
bool force_arch(Arch a);
void reset_arch();

// Per-arm tables (nullptr when the arm is not compiled for this target).
const KernelOps* kernel_ops_scalar();
const KernelOps* kernel_ops_scalar_fma();
const KernelOps* kernel_ops_avx2();
const KernelOps* kernel_ops_avx512();

}  // namespace loam::nn::simd

#endif  // LOAM_NN_SIMD_H_
