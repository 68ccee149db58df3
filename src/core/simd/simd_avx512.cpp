// AVX-512F microkernels (512-bit). Compiled with -mavx512f
// -ffp-contract=off; runtime-gated by __builtin_cpu_supports("avx512f").
//
// Only the F subset is used (no DQ/BW/VL instructions) so the runtime gate
// matches the instruction mix: vaddsubpd has no 512-bit form, so complex
// products sign-flip the even (real) lanes of the second term with an
// integer XOR and add — t1 - t2 and t1 + (-t2) are the same IEEE operation.

#if defined(ORBIT2_SIMD_HAVE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "core/simd/scalar_ref.hpp"
#include "core/simd/simd.hpp"

namespace orbit2::simd::detail {

namespace {

// GEMM register block: R rows x V vectors of 8 double accumulators stay in
// zmm registers for the whole k loop (R*V <= 12 of the 32 registers). Only
// the last vector of a row may be partial; it loads and stores through the
// `tail` lane mask, and masked-off B lanes read as 0 without touching
// memory. Per element this is the scalar reference's step sequence exactly:
// acc + (double(a) * double(b)), ascending q.
constexpr std::int64_t kBlockRows = 6;
constexpr std::int64_t kBlockCols = 16;

template <int R, int V>
void avx512_gemm_block(double* acc, std::int64_t ldacc, const float* a,
                       std::int64_t lda, const float* b, std::int64_t ldb,
                       std::int64_t k, __mmask8 tail) {
  __m512d c[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      c[r][v] = _mm512_maskz_loadu_pd(v == V - 1 ? tail : 0xFF,
                                      acc + r * ldacc + 8 * v);
    }
  }
  for (std::int64_t q = 0; q < k; ++q) {
    const float* brow = b + q * ldb;
    __m512d bv[V];
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm512_cvtps_pd(_mm512_castps512_ps256(_mm512_maskz_loadu_ps(
          v == V - 1 ? tail : 0xFF, brow + 8 * v)));
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const __m512d ar = _mm512_set1_pd(static_cast<double>(a[r * lda + q]));
#pragma GCC unroll 16
      for (int v = 0; v < V; ++v) {
        c[r][v] = _mm512_add_pd(c[r][v], _mm512_mul_pd(ar, bv[v]));
      }
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      _mm512_mask_storeu_pd(acc + r * ldacc + 8 * v,
                            v == V - 1 ? tail : 0xFF, c[r][v]);
    }
  }
}

using Avx512Block = void (*)(double*, std::int64_t, const float*,
                             std::int64_t, const float*, std::int64_t,
                             std::int64_t, __mmask8);

// [rows - 1][vectors - 1]: the full 6x16 block plus every row and column
// remainder shape.
constexpr Avx512Block kAvx512Blocks[kBlockRows][2] = {
    {avx512_gemm_block<1, 1>, avx512_gemm_block<1, 2>},
    {avx512_gemm_block<2, 1>, avx512_gemm_block<2, 2>},
    {avx512_gemm_block<3, 1>, avx512_gemm_block<3, 2>},
    {avx512_gemm_block<4, 1>, avx512_gemm_block<4, 2>},
    {avx512_gemm_block<5, 1>, avx512_gemm_block<5, 2>},
    {avx512_gemm_block<6, 1>, avx512_gemm_block<6, 2>},
};

void avx512_gemm_block_f64(double* acc, std::int64_t ldacc, const float* a,
                           std::int64_t lda, const float* b, std::int64_t ldb,
                           std::int64_t m, std::int64_t n, std::int64_t k) {
  // Column blocks outer, row blocks inner: one k x 16 strip of B stays hot
  // in L1 while every row block of A streams past it.
  for (std::int64_t j0 = 0; j0 < n; j0 += kBlockCols) {
    const std::int64_t cols = std::min(kBlockCols, n - j0);
    const std::int64_t vecs = (cols + 7) / 8;
    const auto tail =
        static_cast<__mmask8>((1u << (cols - 8 * (vecs - 1))) - 1u);
    for (std::int64_t i0 = 0; i0 < m; i0 += kBlockRows) {
      const std::int64_t rows = std::min(kBlockRows, m - i0);
      kAvx512Blocks[rows - 1][vecs - 1](acc + i0 * ldacc + j0, ldacc,
                                        a + i0 * lda, lda, b + j0, ldb, k,
                                        tail);
    }
  }
}

void avx512_axpy_f32(float* y, const float* x, float a, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vx = _mm512_loadu_ps(x + i);
    const __m512 vy = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_add_ps(vy, _mm512_mul_ps(va, vx)));
  }
  if (i < n) scalar_axpy_f32(y + i, x + i, a, n - i);
}

void avx512_scale_f32(float* y, float a, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_mul_ps(_mm512_loadu_ps(y + i), va));
  }
  if (i < n) scalar_scale_f32(y + i, a, n - i);
}

void avx512_add_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                               _mm512_loadu_ps(a + i)));
  }
  if (i < n) scalar_add_f32(dst + i, a + i, n - i);
}

void avx512_sub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_sub_ps(_mm512_loadu_ps(dst + i),
                               _mm512_loadu_ps(a + i)));
  }
  if (i < n) scalar_sub_f32(dst + i, a + i, n - i);
}

void avx512_rsub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_sub_ps(_mm512_loadu_ps(a + i),
                               _mm512_loadu_ps(dst + i)));
  }
  if (i < n) scalar_rsub_f32(dst + i, a + i, n - i);
}

void avx512_mul_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_mul_ps(_mm512_loadu_ps(dst + i),
                               _mm512_loadu_ps(a + i)));
  }
  if (i < n) scalar_mul_f32(dst + i, a + i, n - i);
}

void avx512_bf16_round_f32(float* y, std::int64_t n) {
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
  const __m512i inf_bits = _mm512_set1_epi32(0x7f800000);
  const __m512i quiet_bit = _mm512_set1_epi32(0x00400000);
  const __m512i round_base = _mm512_set1_epi32(0x7fff);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i hi_mask = _mm512_set1_epi32(
      static_cast<std::int32_t>(0xffff0000u));
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i bits =
        _mm512_loadu_si512(reinterpret_cast<const void*>(y + i));
    const __m512i lsb = _mm512_and_si512(_mm512_srli_epi32(bits, 16), one);
    const __m512i rounded =
        _mm512_add_epi32(bits, _mm512_add_epi32(round_base, lsb));
    // abs <= 0x7fffffff on both sides, so signed compare is safe.
    const __mmask16 is_nan = _mm512_cmpgt_epi32_mask(
        _mm512_and_si512(bits, abs_mask), inf_bits);
    const __m512i selected = _mm512_mask_or_epi32(rounded, is_nan, bits,
                                                  quiet_bit);
    _mm512_storeu_si512(reinterpret_cast<void*>(y + i),
                        _mm512_and_si512(selected, hi_mask));
  }
  if (i < n) scalar_bf16_round_f32(y + i, n - i);
}

// v = x * w as complex doubles, four complex per vector. AVX-512 has no
// vaddsubpd: flip the sign of the even (real) lanes of swapped*wi with an
// integer XOR, then one add gives
// (x.re*w.re - x.im*w.im, x.im*w.re + x.re*w.im) per complex.
inline __m512d cmul512(__m512d x, __m512d w) {
  const __m512i even_sign = _mm512_set_epi64(
      0, static_cast<long long>(0x8000000000000000ull),
      0, static_cast<long long>(0x8000000000000000ull),
      0, static_cast<long long>(0x8000000000000000ull),
      0, static_cast<long long>(0x8000000000000000ull));
  const __m512d wr = _mm512_movedup_pd(w);
  const __m512d wi = _mm512_permute_pd(w, 0xFF);
  const __m512d swapped = _mm512_permute_pd(x, 0x55);
  const __m512d t1 = _mm512_mul_pd(x, wr);
  const __m512d t2 = _mm512_mul_pd(swapped, wi);
  const __m512d t2_flipped = _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(t2), even_sign));
  return _mm512_add_pd(t1, t2_flipped);
}

void avx512_fft_butterfly_f64(double* a0, double* a1, const double* w,
                              std::int64_t n) {
  std::int64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m512d x = _mm512_loadu_pd(a1 + 2 * k);
    const __m512d tw = _mm512_loadu_pd(w + 2 * k);
    const __m512d v = cmul512(x, tw);
    const __m512d u = _mm512_loadu_pd(a0 + 2 * k);
    _mm512_storeu_pd(a0 + 2 * k, _mm512_add_pd(u, v));
    _mm512_storeu_pd(a1 + 2 * k, _mm512_sub_pd(u, v));
  }
  if (k < n) {
    scalar_fft_butterfly_f64(a0 + 2 * k, a1 + 2 * k, w + 2 * k, n - k);
  }
}

void avx512_cmul_f64(double* x, const double* y, std::int64_t n) {
  std::int64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m512d vx = _mm512_loadu_pd(x + 2 * k);
    const __m512d vy = _mm512_loadu_pd(y + 2 * k);
    _mm512_storeu_pd(x + 2 * k, cmul512(vx, vy));
  }
  if (k < n) scalar_cmul_f64(x + 2 * k, y + 2 * k, n - k);
}

double avx512_dot_f32(const float* x, const float* y, std::int64_t n) {
  // One zmm holds all kReduceLanes lanes: element i lands in lane i % 8,
  // accumulated in ascending i order — identical to the scalar reference.
  __m512d acc_v = _mm512_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d vx = _mm512_cvtps_pd(_mm256_loadu_ps(x + i));
    const __m512d vy = _mm512_cvtps_pd(_mm256_loadu_ps(y + i));
    acc_v = _mm512_add_pd(acc_v, _mm512_mul_pd(vx, vy));
  }
  double lanes[kReduceLanes];
  _mm512_storeu_pd(lanes, acc_v);
  for (; i < n; ++i) {
    lanes[i % kReduceLanes] +=
        static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  double acc = lanes[0];
  for (std::int64_t lane = 1; lane < kReduceLanes; ++lane) {
    acc += lanes[lane];
  }
  return acc;
}

}  // namespace

const Ops* avx512_ops() {
  static const Ops table = {
      Isa::kAvx512,         avx512_gemm_block_f64,  avx512_axpy_f32,
      avx512_scale_f32,     avx512_add_f32,         avx512_sub_f32,
      avx512_rsub_f32,      avx512_mul_f32,         avx512_bf16_round_f32,
      avx512_fft_butterfly_f64, avx512_cmul_f64,    avx512_dot_f32,
  };
  return &table;
}

}  // namespace orbit2::simd::detail

#endif  // ORBIT2_SIMD_HAVE_AVX512
