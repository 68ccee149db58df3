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

// P·V row block: R rows x V vectors of 16 float outputs stay in zmm
// registers across the whole j loop (R*V <= 16). Only the last vector of a
// row may be partial (`tail` lane mask). Per element this is axpy_f32's
// step exactly: o + (p * v), ascending j.
constexpr std::int64_t kPvRows = 4;
constexpr std::int64_t kPvCols = 64;

template <int R, int V>
void avx512_pv_block(float* o, std::int64_t ldo, const float* p,
                     std::int64_t ldp, const float* v, std::int64_t ldv,
                     std::int64_t k, __mmask16 tail) {
  __m512 c[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int u = 0; u < V; ++u) {
      c[r][u] = _mm512_maskz_loadu_ps(u == V - 1 ? tail : 0xFFFF,
                                      o + r * ldo + 16 * u);
    }
  }
  for (std::int64_t j = 0; j < k; ++j) {
    const float* vrow = v + j * ldv;
    __m512 vv[V];
#pragma GCC unroll 16
    for (int u = 0; u < V; ++u) {
      vv[u] = _mm512_maskz_loadu_ps(u == V - 1 ? tail : 0xFFFF, vrow + 16 * u);
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const __m512 pr = _mm512_set1_ps(p[r * ldp + j]);
#pragma GCC unroll 16
      for (int u = 0; u < V; ++u) {
        c[r][u] = _mm512_add_ps(c[r][u], _mm512_mul_ps(pr, vv[u]));
      }
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int u = 0; u < V; ++u) {
      _mm512_mask_storeu_ps(o + r * ldo + 16 * u, u == V - 1 ? tail : 0xFFFF,
                            c[r][u]);
    }
  }
}

using Avx512PvBlock = void (*)(float*, std::int64_t, const float*,
                               std::int64_t, const float*, std::int64_t,
                               std::int64_t, __mmask16);

// [rows - 1][vectors - 1]: the full 4x64 block plus every remainder shape.
constexpr Avx512PvBlock kAvx512PvBlocks[kPvRows][4] = {
    {avx512_pv_block<1, 1>, avx512_pv_block<1, 2>, avx512_pv_block<1, 3>,
     avx512_pv_block<1, 4>},
    {avx512_pv_block<2, 1>, avx512_pv_block<2, 2>, avx512_pv_block<2, 3>,
     avx512_pv_block<2, 4>},
    {avx512_pv_block<3, 1>, avx512_pv_block<3, 2>, avx512_pv_block<3, 3>,
     avx512_pv_block<3, 4>},
    {avx512_pv_block<4, 1>, avx512_pv_block<4, 2>, avx512_pv_block<4, 3>,
     avx512_pv_block<4, 4>},
};

void avx512_pv_rows_f32(float* o, std::int64_t ldo, const float* p,
                        std::int64_t ldp, const float* v, std::int64_t ldv,
                        std::int64_t rows, std::int64_t n, std::int64_t k) {
  for (std::int64_t t0 = 0; t0 < n; t0 += kPvCols) {
    const std::int64_t cols = std::min(kPvCols, n - t0);
    const std::int64_t vecs = (cols + 15) / 16;
    const auto tail =
        static_cast<__mmask16>((1u << (cols - 16 * (vecs - 1))) - 1u);
    for (std::int64_t r0 = 0; r0 < rows; r0 += kPvRows) {
      const std::int64_t r = std::min(kPvRows, rows - r0);
      kAvx512PvBlocks[r - 1][vecs - 1](o + r0 * ldo + t0, ldo, p + r0 * ldp,
                                       ldp, v + t0, ldv, k, tail);
    }
  }
}

// ---- lane-wise GELU --------------------------------------------------------
//
// Ports of scalar_expm1_one / scalar_tanh_one / scalar_gelu_*_one: every
// lane runs each branch's exact float-op sequence (vdivps for the
// divisions, truncating vcvttps2dq for the float->int conversion, separate
// multiply and add) and the branch masks pick the result, so each lane
// equals the scalar reference bit for bit.

inline __m512 splat(float v) { return _mm512_set1_ps(v); }
inline __m512i splat_i(std::uint32_t v) {
  return _mm512_set1_epi32(static_cast<std::int32_t>(v));
}
inline __m512 as_ps(__m512i v) { return _mm512_castsi512_ps(v); }
inline __m512i as_si(__m512 v) { return _mm512_castps_si512(v); }

// scalar_expm1_one over its domain, the arguments scalar_tanh_one passes
// it: [2, 44) and (-2, -2^-54].
inline __m512 avx512_expm1(__m512 x) {
  const __m512i bits = as_si(x);
  const __m512i hx = _mm512_and_si512(bits, splat_i(0x7fffffffu));
  const __mmask16 neg = _mm512_cmplt_epi32_mask(bits, _mm512_setzero_si512());

  // Argument reduction: general k, then the |x| < 1.5*ln2 (k = -1) case.
  const __mmask16 reduce = _mm512_cmpgt_epi32_mask(hx, splat_i(0x3eb17218u));
  const __mmask16 near = _mm512_cmplt_epi32_mask(hx, splat_i(0x3f851592u));
  const __m512i k_gen = _mm512_cvttps_epi32(_mm512_add_ps(
      _mm512_mul_ps(splat(kInvLn2), x),
      _mm512_mask_blend_ps(neg, splat(0.5f), splat(-0.5f))));
  const __m512 t_gen = _mm512_cvtepi32_ps(k_gen);
  const __m512 hi = _mm512_mask_blend_ps(
      near, _mm512_sub_ps(x, _mm512_mul_ps(t_gen, splat(kLn2Hi))),
      _mm512_add_ps(x, splat(kLn2Hi)));
  const __m512 lo = _mm512_mask_blend_ps(
      near, _mm512_mul_ps(t_gen, splat(kLn2Lo)), splat(-kLn2Lo));
  const __m512i k = _mm512_maskz_mov_epi32(
      reduce, _mm512_mask_mov_epi32(k_gen, near, _mm512_set1_epi32(-1)));
  const __m512 x_red = _mm512_sub_ps(hi, lo);
  const __m512 xr = _mm512_mask_mov_ps(x, reduce, x_red);
  const __m512 c =
      _mm512_maskz_mov_ps(reduce, _mm512_sub_ps(_mm512_sub_ps(hi, x_red), lo));

  // Primary range.
  const __m512 hfx = _mm512_mul_ps(splat(0.5f), xr);
  const __m512 hxs = _mm512_mul_ps(xr, hfx);
  __m512 poly = _mm512_add_ps(splat(kExpm1Q4),
                              _mm512_mul_ps(hxs, splat(kExpm1Q5)));
  poly = _mm512_add_ps(splat(kExpm1Q3), _mm512_mul_ps(hxs, poly));
  poly = _mm512_add_ps(splat(kExpm1Q2), _mm512_mul_ps(hxs, poly));
  poly = _mm512_add_ps(splat(kExpm1Q1), _mm512_mul_ps(hxs, poly));
  const __m512 r1 = _mm512_add_ps(splat(1.0f), _mm512_mul_ps(hxs, poly));
  const __m512 t = _mm512_sub_ps(splat(3.0f), _mm512_mul_ps(r1, hfx));
  const __m512 e0 = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, t),
                         _mm512_sub_ps(splat(6.0f), _mm512_mul_ps(xr, t))));
  __m512 result = _mm512_sub_ps(
      xr, _mm512_sub_ps(_mm512_mul_ps(xr, e0), hxs));  // k == 0

  const __m512 e = _mm512_sub_ps(
      _mm512_sub_ps(_mm512_mul_ps(xr, _mm512_sub_ps(e0, c)), c), hxs);
  const __m512i k_exp = _mm512_slli_epi32(k, 23);
  const __m512 e_minus_x = _mm512_sub_ps(e, xr);
  // k == -1.
  const __m512 r_m1 = _mm512_sub_ps(
      _mm512_mul_ps(splat(0.5f), _mm512_sub_ps(xr, e)), splat(0.5f));
  // k <= -2 or k > 56: scale 1 - (e - x) by 2^k, then subtract 1.
  const __m512 r_far = _mm512_sub_ps(
      as_ps(_mm512_add_epi32(
          as_si(_mm512_sub_ps(splat(1.0f), e_minus_x)), k_exp)),
      splat(1.0f));
  // 2 <= k < 23: t = 1 - 2^-k.
  const __m512 t_mid = as_ps(_mm512_sub_epi32(
      splat_i(0x3f800000u), _mm512_srlv_epi32(splat_i(0x1000000u), k)));
  const __m512 r_mid =
      as_ps(_mm512_add_epi32(as_si(_mm512_sub_ps(t_mid, e_minus_x)), k_exp));
  // 23 <= k <= 56: t = 2^-k.
  const __m512 t_high =
      as_ps(_mm512_slli_epi32(_mm512_sub_epi32(splat_i(0x7fu), k), 23));
  const __m512 y_high = _mm512_add_ps(
      _mm512_sub_ps(xr, _mm512_add_ps(e, t_high)), splat(1.0f));
  const __m512 r_high = as_ps(_mm512_add_epi32(as_si(y_high), k_exp));

  const __mmask16 k_m1 = _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1));
  const __mmask16 k_far =
      _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(-1)) |
      _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(56));
  const __mmask16 k_mid = _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(1)) &
                          _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(23));
  const __mmask16 k_high =
      _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(22)) &
      _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(57));
  result = _mm512_mask_mov_ps(result, k_m1, r_m1);
  result = _mm512_mask_mov_ps(result, k_far, r_far);
  result = _mm512_mask_mov_ps(result, k_mid, r_mid);
  result = _mm512_mask_mov_ps(result, k_high, r_high);

  // |x| < 2^-25: x - ((huge + x) - huge).
  const __mmask16 tiny = _mm512_cmplt_epi32_mask(hx, splat_i(0x33000000u));
  const __m512 r_tiny = _mm512_sub_ps(
      x, _mm512_sub_ps(_mm512_add_ps(splat(kExpm1Huge), x), splat(kExpm1Huge)));
  return _mm512_mask_mov_ps(result, tiny, r_tiny);
}

inline __m512 avx512_tanh(__m512 x) {
  const __m512i jx = as_si(x);
  const __m512i sign = _mm512_and_si512(jx, splat_i(0x80000000u));
  const __m512i ix = _mm512_and_si512(jx, splat_i(0x7fffffffu));
  const __m512 ax = as_ps(ix);

  // 2^-55 <= |x| < 22: z from one expm1 of +-2|x|.
  const __mmask16 big = _mm512_cmpge_epi32_mask(ix, splat_i(0x3f800000u));
  const __m512 arg = _mm512_mask_blend_ps(big, _mm512_mul_ps(splat(-2.0f), ax),
                                          _mm512_mul_ps(splat(2.0f), ax));
  const __m512 t = avx512_expm1(arg);
  const __m512 q = _mm512_div_ps(
      _mm512_mask_blend_ps(big, as_ps(_mm512_xor_si512(as_si(t),
                                                       splat_i(0x80000000u))),
                           splat(2.0f)),
      _mm512_add_ps(t, splat(2.0f)));
  __m512 z = _mm512_mask_blend_ps(big, q, _mm512_sub_ps(splat(1.0f), q));
  // |x| >= 22.
  z = _mm512_mask_mov_ps(z, _mm512_cmpge_epi32_mask(ix, splat_i(0x41b00000u)),
                         splat(1.0f - kTanhTiny));
  __m512 result = as_ps(_mm512_xor_si512(as_si(z), sign));

  // |x| < 2^-55: x * (1 + x), which is also the reference's x for +-0.
  result = _mm512_mask_mov_ps(
      result, _mm512_cmplt_epi32_mask(ix, splat_i(0x24000000u)),
      _mm512_mul_ps(x, _mm512_add_ps(splat(1.0f), x)));
  // Inf or NaN: 1/x + 1, or 1/x - 1 when the sign bit is set.
  const __mmask16 nonfinite =
      _mm512_cmpge_epi32_mask(ix, splat_i(0x7f800000u));
  if (nonfinite != 0) {
    const __m512 rcp = _mm512_div_ps(splat(1.0f), x);
    const __mmask16 neg = _mm512_test_epi32_mask(sign, sign);
    const __m512 r = _mm512_mask_blend_ps(neg, _mm512_add_ps(rcp, splat(1.0f)),
                                          _mm512_sub_ps(rcp, splat(1.0f)));
    result = _mm512_mask_mov_ps(result, nonfinite, r);
  }
  return result;
}

inline __m512 avx512_gelu_inner(__m512 x) {
  const __m512 cube = _mm512_mul_ps(
      _mm512_mul_ps(_mm512_mul_ps(splat(kGeluA), x), x), x);
  return _mm512_mul_ps(splat(kGeluC), _mm512_add_ps(x, cube));
}

inline __m512 avx512_gelu(__m512 x) {
  const __m512 t = avx512_tanh(avx512_gelu_inner(x));
  return _mm512_mul_ps(_mm512_mul_ps(splat(0.5f), x),
                       _mm512_add_ps(splat(1.0f), t));
}

inline __m512 avx512_gelu_grad(__m512 x) {
  const __m512 t = avx512_tanh(avx512_gelu_inner(x));
  const __m512 sech2 = _mm512_sub_ps(splat(1.0f), _mm512_mul_ps(t, t));
  const __m512 dinner = _mm512_mul_ps(
      splat(kGeluC),
      _mm512_add_ps(splat(1.0f),
                    _mm512_mul_ps(_mm512_mul_ps(splat(kGelu3A), x), x)));
  return _mm512_add_ps(
      _mm512_mul_ps(splat(0.5f), _mm512_add_ps(splat(1.0f), t)),
      _mm512_mul_ps(
          _mm512_mul_ps(_mm512_mul_ps(splat(0.5f), x), sech2), dinner));
}

// Tails run the same lanes under a load/store mask; masked-off lanes
// compute on zeros and are never stored.
void avx512_gelu_f32(float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; i += 16) {
    const auto mask = static_cast<__mmask16>(
        n - i >= 16 ? 0xFFFFu : (1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(y + i, mask,
                          avx512_gelu(_mm512_maskz_loadu_ps(mask, y + i)));
  }
}

void avx512_gelu_backward_f32(float* gx, const float* x, const float* gy,
                              std::int64_t n) {
  for (std::int64_t i = 0; i < n; i += 16) {
    const auto mask = static_cast<__mmask16>(
        n - i >= 16 ? 0xFFFFu : (1u << (n - i)) - 1u);
    const __m512 g = avx512_gelu_grad(_mm512_maskz_loadu_ps(mask, x + i));
    _mm512_mask_storeu_ps(
        gx + i, mask, _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, gy + i), g));
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
      .isa = Isa::kAvx512,
      .gemm_block_f64 = avx512_gemm_block_f64,
      .axpy_f32 = avx512_axpy_f32,
      .pv_rows_f32 = avx512_pv_rows_f32,
      .gelu_f32 = avx512_gelu_f32,
      .gelu_backward_f32 = avx512_gelu_backward_f32,
      .scale_f32 = avx512_scale_f32,
      .add_f32 = avx512_add_f32,
      .sub_f32 = avx512_sub_f32,
      .rsub_f32 = avx512_rsub_f32,
      .mul_f32 = avx512_mul_f32,
      .bf16_round_f32 = avx512_bf16_round_f32,
      .fft_butterfly_f64 = avx512_fft_butterfly_f64,
      .cmul_f64 = avx512_cmul_f64,
      .dot_f32 = avx512_dot_f32,
  };
  return &table;
}

}  // namespace orbit2::simd::detail

#endif  // ORBIT2_SIMD_HAVE_AVX512
