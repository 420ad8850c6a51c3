// Cross-arm identity suite for the runtime-dispatched SIMD kernels: every
// compiled-and-runnable arm (scalar+fma, avx2, avx512) must produce exactly
// the bits of the portable scalar arm via the single-fmaf-chain contract,
// over shapes whose tails sweep 1..7 (and the vector widths' edges) in every
// dimension. Also pins the 64-byte alignment of Mat/Workspace backing
// storage and the dispatch override hooks.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/mat.h"
#include "nn/simd.h"
#include "nn/workspace.h"
#include "util/rng.h"

namespace loam::nn {
namespace {

using simd::Arch;
using simd::KernelOps;

std::vector<const KernelOps*> runnable_arms() {
  std::vector<const KernelOps*> arms;
  for (const KernelOps* ops :
       {simd::kernel_ops_scalar_fma(), simd::kernel_ops_avx2(),
        simd::kernel_ops_avx512()}) {
    if (ops != nullptr && simd::cpu_supports(ops->arch)) arms.push_back(ops);
  }
  return arms;
}

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

// Shape sweep: every m in 1..8 (row-block remainders 1..7 plus a full
// block), ragged k (odd, even, above the unroll), and n covering tails 1..7
// around each vector width (8 for AVX2, 16 for AVX-512, 2x-width tiles).
std::vector<std::array<int, 3>> sweep_shapes() {
  std::vector<std::array<int, 3>> shapes;
  const int ks[] = {1, 2, 3, 5, 9};
  const int ns[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17,
                    23, 31, 32, 33, 39, 47, 63, 64, 65};
  for (int m = 1; m <= 8; ++m) {
    for (int k : ks) {
      for (int n : ns) shapes.push_back({m, k, n});
    }
  }
  return shapes;
}

TEST(SimdDispatch, ScalarArmAlwaysPresent) {
  ASSERT_NE(simd::kernel_ops_scalar(), nullptr);
  EXPECT_TRUE(simd::cpu_supports(Arch::kScalar));
  EXPECT_NE(simd::active_name(), nullptr);
}

TEST(SimdDispatch, ForceAndResetArch) {
  ASSERT_TRUE(simd::force_arch(Arch::kScalar));
  EXPECT_EQ(simd::active_arch(), Arch::kScalar);
  EXPECT_STREQ(simd::active_name(), "scalar");
  simd::reset_arch();
  // After reset the selection honors LOAM_SIMD/auto again; whatever it is,
  // it must be runnable.
  EXPECT_TRUE(simd::cpu_supports(simd::active_arch()));
}

// One fixture run per fp32 kernel: scalar arm output is the ground truth,
// every other arm must match it to the bit, including the untouched C tail
// beyond the live region (masked stores must not write past n).
using GemmFn = void (*)(const float*, const float*, float*, int, int, int);

void run_cross_arm_fp32(GemmFn KernelOps::* fn, bool a_is_kxm,
                        bool b_is_nxk) {
  const KernelOps* ref = simd::kernel_ops_scalar();
  ASSERT_NE(ref, nullptr);
  Rng rng(1234);
  const auto arms = runnable_arms();
  for (const auto& s : sweep_shapes()) {
    const int m = s[0], k = s[1], n = s[2];
    const std::size_t a_len = static_cast<std::size_t>(a_is_kxm ? k * m : m * k);
    const std::size_t b_len = static_cast<std::size_t>(b_is_nxk ? n * k : k * n);
    const std::vector<float> a = random_vec(a_len, rng);
    const std::vector<float> b = random_vec(b_len, rng);
    // Pad C with a sentinel tail so out-of-bounds stores are caught.
    const std::size_t c_len = static_cast<std::size_t>(m) * n;
    std::vector<float> base = random_vec(c_len + 16, rng);
    std::vector<float> want = base;
    (ref->*fn)(a.data(), b.data(), want.data(), m, k, n);
    for (const KernelOps* arm : arms) {
      std::vector<float> got = base;
      (arm->*fn)(a.data(), b.data(), got.data(), m, k, n);
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            (c_len + 16) * sizeof(float)),
                0)
          << arm->name << " diverges from scalar at m=" << m << " k=" << k
          << " n=" << n;
    }
  }
}

TEST(SimdKernel, GemmNnCrossArmBitIdentical) {
  run_cross_arm_fp32(&KernelOps::gemm_nn, false, false);
}

TEST(SimdKernel, GemmNnSparseCrossArmBitIdentical) {
  run_cross_arm_fp32(&KernelOps::gemm_nn_sparse, false, false);
}

TEST(SimdKernel, GemmTnCrossArmBitIdentical) {
  run_cross_arm_fp32(&KernelOps::gemm_tn, true, false);
}

TEST(SimdKernel, GemmNtCrossArmBitIdentical) {
  run_cross_arm_fp32(&KernelOps::gemm_nt, false, true);
}

TEST(SimdKernel, MatmulEntryPointsHonorForcedArm) {
  // The Mat-level entry points must follow force_arch: run the same product
  // under every runnable arm and require identical bits end to end.
  Rng rng(77);
  Mat a(7, 13), b(13, 21);
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      a.at(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  for (int i = 0; i < b.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      b.at(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  ASSERT_TRUE(simd::force_arch(Arch::kScalar));
  Mat want;
  matmul(a, b, want);
  for (const KernelOps* arm : runnable_arms()) {
    ASSERT_TRUE(simd::force_arch(arm->arch));
    Mat got;
    matmul(a, b, got);
    for (int i = 0; i < want.rows(); ++i) {
      for (int j = 0; j < want.cols(); ++j) {
        EXPECT_EQ(got.at(i, j), want.at(i, j)) << arm->name;
      }
    }
  }
  simd::reset_arch();
}

TEST(MatAlignment, BackingStorageIs64ByteAligned) {
  for (int rows : {1, 3, 7, 16, 33}) {
    for (int cols : {1, 5, 8, 17, 64}) {
      Mat m(rows, cols);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u)
          << rows << "x" << cols;
      m.resize(rows + 1, cols + 3);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u)
          << "after resize";
      Mat copy = m;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.data()) % 64, 0u)
          << "after copy";
    }
  }
}

TEST(MatAlignment, CopyAndResizePreserveContents) {
  Rng rng(55);
  Mat m(5, 9);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 9; ++j) {
      m.at(i, j) = static_cast<float>(rng.uniform(-3.0, 3.0));
    }
  }
  Mat copy = m;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 9; ++j) EXPECT_EQ(copy.at(i, j), m.at(i, j));
  }
  Mat assigned;
  assigned = m;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 9; ++j) EXPECT_EQ(assigned.at(i, j), m.at(i, j));
  }
  // Growth within a flat buffer preserves the existing prefix and
  // zero-fills the tail (vector semantics).
  Mat flat(1, 6);
  for (int j = 0; j < 6; ++j) flat.at(0, j) = static_cast<float>(j + 1);
  flat.resize(1, 10);
  for (int j = 0; j < 6; ++j) EXPECT_EQ(flat.at(0, j), static_cast<float>(j + 1));
  for (int j = 6; j < 10; ++j) EXPECT_EQ(flat.at(0, j), 0.0f);
}

TEST(MatAlignment, WorkspaceBuffersAre64ByteAligned) {
  Workspace ws;
  Mat m = ws.borrow(9, 17);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u);
  ws.give_back(std::move(m));
  Mat again = ws.borrow(3, 5);  // pooled reuse keeps the aligned allocation
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(again.data()) % 64, 0u);
  ws.give_back(std::move(again));
}

}  // namespace
}  // namespace loam::nn
