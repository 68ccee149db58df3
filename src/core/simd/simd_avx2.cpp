// AVX2 microkernels (256-bit). Compiled with -mavx2 -ffp-contract=off;
// runtime-gated by __builtin_cpu_supports("avx2") in simd.cpp.
//
// Bit-exactness notes:
//   * Float->double promotion uses vcvtps2pd (exact); multiply and add stay
//     separate instructions (no vfmadd — the TU disables contraction).
//   * Complex products use vmovddup/vpermilpd to form (wr,wr)/(wi,wi) and
//     the swapped (xi,xr), then vaddsubpd combines: even lane
//     t1-t2 = xr*wr - xi*wi, odd lane t1+t2 = xi*wr + xr*wi — exactly the
//     scalar reference's operand order.
//   * Remainder tails call the scalar reference per element, except in the
//     GEMM and P·V blocks and GELU, whose tails run masked vector lanes.

#if defined(ORBIT2_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "core/simd/scalar_ref.hpp"
#include "core/simd/simd.hpp"

namespace orbit2::simd::detail {

namespace {

// GEMM register block: R rows x V vectors of 4 double accumulators stay in
// ymm registers for the whole k loop (R*V <= 8 of the 16 registers). With
// Tail, the last vector of each row holds only the lanes `dmask`/`fmask`
// select: vmaskmov loads read masked-off lanes as 0 without touching
// memory, and the masked store leaves them unwritten. Per element this is
// the scalar reference's step sequence exactly: acc + (double(a) *
// double(b)), ascending q.
constexpr std::int64_t kBlockRows = 4;
constexpr std::int64_t kBlockCols = 8;

template <int R, int V, bool Tail>
void avx2_gemm_block(double* acc, std::int64_t ldacc, const float* a,
                     std::int64_t lda, const float* b, std::int64_t ldb,
                     std::int64_t k, __m256i dmask, __m128i fmask) {
  __m256d c[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      double* p = acc + r * ldacc + 4 * v;
      c[r][v] = (Tail && v == V - 1) ? _mm256_maskload_pd(p, dmask)
                                     : _mm256_loadu_pd(p);
    }
  }
  for (std::int64_t q = 0; q < k; ++q) {
    const float* brow = b + q * ldb;
    __m256d bv[V];
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm256_cvtps_pd((Tail && v == V - 1)
                                  ? _mm_maskload_ps(brow + 4 * v, fmask)
                                  : _mm_loadu_ps(brow + 4 * v));
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const __m256d ar = _mm256_set1_pd(static_cast<double>(a[r * lda + q]));
#pragma GCC unroll 16
      for (int v = 0; v < V; ++v) {
        c[r][v] = _mm256_add_pd(c[r][v], _mm256_mul_pd(ar, bv[v]));
      }
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      double* p = acc + r * ldacc + 4 * v;
      if (Tail && v == V - 1) {
        _mm256_maskstore_pd(p, dmask, c[r][v]);
      } else {
        _mm256_storeu_pd(p, c[r][v]);
      }
    }
  }
}

using Avx2Block = void (*)(double*, std::int64_t, const float*, std::int64_t,
                           const float*, std::int64_t, std::int64_t, __m256i,
                           __m128i);

// [rows - 1][vectors - 1][tail]: the full 4x8 block plus every row and
// column remainder shape; unmasked variants keep plain loads and stores.
constexpr Avx2Block kAvx2Blocks[kBlockRows][2][2] = {
    {{avx2_gemm_block<1, 1, false>, avx2_gemm_block<1, 1, true>},
     {avx2_gemm_block<1, 2, false>, avx2_gemm_block<1, 2, true>}},
    {{avx2_gemm_block<2, 1, false>, avx2_gemm_block<2, 1, true>},
     {avx2_gemm_block<2, 2, false>, avx2_gemm_block<2, 2, true>}},
    {{avx2_gemm_block<3, 1, false>, avx2_gemm_block<3, 1, true>},
     {avx2_gemm_block<3, 2, false>, avx2_gemm_block<3, 2, true>}},
    {{avx2_gemm_block<4, 1, false>, avx2_gemm_block<4, 1, true>},
     {avx2_gemm_block<4, 2, false>, avx2_gemm_block<4, 2, true>}},
};

void avx2_gemm_block_f64(double* acc, std::int64_t ldacc, const float* a,
                         std::int64_t lda, const float* b, std::int64_t ldb,
                         std::int64_t m, std::int64_t n, std::int64_t k) {
  // Column blocks outer, row blocks inner: one k x 8 strip of B stays hot
  // in L1 while every row block of A streams past it.
  for (std::int64_t j0 = 0; j0 < n; j0 += kBlockCols) {
    const std::int64_t cols = std::min(kBlockCols, n - j0);
    const std::int64_t vecs = (cols + 3) / 4;
    const std::int64_t lanes = cols - 4 * (vecs - 1);
    const __m256i dmask = _mm256_set_epi64x(lanes > 3 ? -1 : 0,
                                            lanes > 2 ? -1 : 0,
                                            lanes > 1 ? -1 : 0, -1);
    const __m128i fmask = _mm_set_epi32(lanes > 3 ? -1 : 0, lanes > 2 ? -1 : 0,
                                        lanes > 1 ? -1 : 0, -1);
    for (std::int64_t i0 = 0; i0 < m; i0 += kBlockRows) {
      const std::int64_t rows = std::min(kBlockRows, m - i0);
      kAvx2Blocks[rows - 1][vecs - 1][lanes < 4 ? 1 : 0](
          acc + i0 * ldacc + j0, ldacc, a + i0 * lda, lda, b + j0, ldb, k,
          dmask, fmask);
    }
  }
}

// P·V row block: R rows x V vectors of 8 float outputs stay in ymm
// registers across the whole j loop (R*V <= 8). With Tail, the last vector
// of each row holds only the lanes `mask` selects (vmaskmov). Per element
// this is axpy_f32's step exactly: o + (p * v), ascending j.
constexpr std::int64_t kPvRows = 4;
constexpr std::int64_t kPvCols = 16;

template <int R, int V, bool Tail>
void avx2_pv_block(float* o, std::int64_t ldo, const float* p,
                   std::int64_t ldp, const float* v, std::int64_t ldv,
                   std::int64_t k, __m256i mask) {
  const auto load = [mask](const float* src, int u) {
    return (Tail && u == V - 1) ? _mm256_maskload_ps(src, mask)
                                : _mm256_loadu_ps(src);
  };
  __m256 c[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int u = 0; u < V; ++u) c[r][u] = load(o + r * ldo + 8 * u, u);
  }
  for (std::int64_t j = 0; j < k; ++j) {
    __m256 vv[V];
#pragma GCC unroll 16
    for (int u = 0; u < V; ++u) vv[u] = load(v + j * ldv + 8 * u, u);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const __m256 pr = _mm256_set1_ps(p[r * ldp + j]);
#pragma GCC unroll 16
      for (int u = 0; u < V; ++u) {
        c[r][u] = _mm256_add_ps(c[r][u], _mm256_mul_ps(pr, vv[u]));
      }
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int u = 0; u < V; ++u) {
      float* dst = o + r * ldo + 8 * u;
      if (Tail && u == V - 1) {
        _mm256_maskstore_ps(dst, mask, c[r][u]);
      } else {
        _mm256_storeu_ps(dst, c[r][u]);
      }
    }
  }
}

using Avx2PvBlock = void (*)(float*, std::int64_t, const float*, std::int64_t,
                             const float*, std::int64_t, std::int64_t,
                             __m256i);

// [rows - 1][vectors - 1][tail]: the full 4x16 block plus every remainder.
constexpr Avx2PvBlock kAvx2PvBlocks[kPvRows][2][2] = {
    {{avx2_pv_block<1, 1, false>, avx2_pv_block<1, 1, true>},
     {avx2_pv_block<1, 2, false>, avx2_pv_block<1, 2, true>}},
    {{avx2_pv_block<2, 1, false>, avx2_pv_block<2, 1, true>},
     {avx2_pv_block<2, 2, false>, avx2_pv_block<2, 2, true>}},
    {{avx2_pv_block<3, 1, false>, avx2_pv_block<3, 1, true>},
     {avx2_pv_block<3, 2, false>, avx2_pv_block<3, 2, true>}},
    {{avx2_pv_block<4, 1, false>, avx2_pv_block<4, 1, true>},
     {avx2_pv_block<4, 2, false>, avx2_pv_block<4, 2, true>}},
};

/// Lane mask with the first `lanes` (0..8) of 8 float lanes set.
inline __m256i avx2_lane_mask(std::int64_t lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

void avx2_pv_rows_f32(float* o, std::int64_t ldo, const float* p,
                      std::int64_t ldp, const float* v, std::int64_t ldv,
                      std::int64_t rows, std::int64_t n, std::int64_t k) {
  for (std::int64_t t0 = 0; t0 < n; t0 += kPvCols) {
    const std::int64_t cols = std::min(kPvCols, n - t0);
    const std::int64_t vecs = (cols + 7) / 8;
    const std::int64_t lanes = cols - 8 * (vecs - 1);
    const __m256i mask = avx2_lane_mask(lanes);
    for (std::int64_t r0 = 0; r0 < rows; r0 += kPvRows) {
      const std::int64_t r = std::min(kPvRows, rows - r0);
      kAvx2PvBlocks[r - 1][vecs - 1][lanes < 8 ? 1 : 0](
          o + r0 * ldo + t0, ldo, p + r0 * ldp, ldp, v + t0, ldv, k, mask);
    }
  }
}

// ---- lane-wise GELU --------------------------------------------------------
//
// Ports of scalar_expm1_one / scalar_tanh_one / scalar_gelu_*_one, the
// AVX-512 recipe on 8 lanes: every lane runs each branch's exact float-op
// sequence (vdivps, truncating vcvttps2dq, separate multiply and add) and
// vblendvps picks the branch, so each lane equals the scalar reference.

inline __m256 splat(float v) { return _mm256_set1_ps(v); }
inline __m256i splat_i(std::uint32_t v) {
  return _mm256_set1_epi32(static_cast<std::int32_t>(v));
}
inline __m256 as_ps(__m256i v) { return _mm256_castsi256_ps(v); }
inline __m256i as_si(__m256 v) { return _mm256_castps_si256(v); }
/// b where `mask` lanes are all-ones, a elsewhere.
inline __m256 select(__m256i mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(a, b, as_ps(mask));
}
inline __m256i gt(__m256i a, std::int32_t b) {
  return _mm256_cmpgt_epi32(a, _mm256_set1_epi32(b));
}
inline __m256i lt(__m256i a, std::int32_t b) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(b), a);
}

// scalar_expm1_one over its domain, the arguments scalar_tanh_one passes
// it: [2, 44) and (-2, -2^-54].
inline __m256 avx2_expm1(__m256 x) {
  const __m256i bits = as_si(x);
  const __m256i hx = _mm256_and_si256(bits, splat_i(0x7fffffffu));
  const __m256i neg = _mm256_srai_epi32(bits, 31);

  const __m256i reduce = gt(hx, 0x3eb17218);
  const __m256i near = lt(hx, 0x3f851592);
  const __m256i k_gen = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(splat(kInvLn2), x),
                    select(neg, splat(0.5f), splat(-0.5f))));
  const __m256 t_gen = _mm256_cvtepi32_ps(k_gen);
  // |x| < 1.5*ln2 (x < 0 there): k = -1.
  const __m256 hi =
      select(near, _mm256_sub_ps(x, _mm256_mul_ps(t_gen, splat(kLn2Hi))),
             _mm256_add_ps(x, splat(kLn2Hi)));
  const __m256 lo =
      select(near, _mm256_mul_ps(t_gen, splat(kLn2Lo)), splat(-kLn2Lo));
  const __m256i k = _mm256_and_si256(
      reduce, _mm256_blendv_epi8(k_gen, _mm256_set1_epi32(-1), near));
  const __m256 x_red = _mm256_sub_ps(hi, lo);
  const __m256 xr = select(reduce, x, x_red);
  const __m256 c = _mm256_and_ps(
      as_ps(reduce), _mm256_sub_ps(_mm256_sub_ps(hi, x_red), lo));

  const __m256 hfx = _mm256_mul_ps(splat(0.5f), xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 poly = _mm256_add_ps(splat(kExpm1Q4),
                              _mm256_mul_ps(hxs, splat(kExpm1Q5)));
  poly = _mm256_add_ps(splat(kExpm1Q3), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(splat(kExpm1Q2), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(splat(kExpm1Q1), _mm256_mul_ps(hxs, poly));
  const __m256 r1 = _mm256_add_ps(splat(1.0f), _mm256_mul_ps(hxs, poly));
  const __m256 t = _mm256_sub_ps(splat(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e0 = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(splat(6.0f), _mm256_mul_ps(xr, t))));
  __m256 result = _mm256_sub_ps(
      xr, _mm256_sub_ps(_mm256_mul_ps(xr, e0), hxs));  // k == 0

  const __m256 e = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e0, c)), c), hxs);
  const __m256i k_exp = _mm256_slli_epi32(k, 23);
  const __m256 e_minus_x = _mm256_sub_ps(e, xr);
  const __m256 r_m1 = _mm256_sub_ps(
      _mm256_mul_ps(splat(0.5f), _mm256_sub_ps(xr, e)), splat(0.5f));
  const __m256 r_far = _mm256_sub_ps(
      as_ps(_mm256_add_epi32(as_si(_mm256_sub_ps(splat(1.0f), e_minus_x)),
                             k_exp)),
      splat(1.0f));
  const __m256 t_mid = as_ps(_mm256_sub_epi32(
      splat_i(0x3f800000u), _mm256_srlv_epi32(splat_i(0x1000000u), k)));
  const __m256 r_mid =
      as_ps(_mm256_add_epi32(as_si(_mm256_sub_ps(t_mid, e_minus_x)), k_exp));
  const __m256 t_high =
      as_ps(_mm256_slli_epi32(_mm256_sub_epi32(splat_i(0x7fu), k), 23));
  const __m256 y_high = _mm256_add_ps(
      _mm256_sub_ps(xr, _mm256_add_ps(e, t_high)), splat(1.0f));
  const __m256 r_high = as_ps(_mm256_add_epi32(as_si(y_high), k_exp));

  result = select(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)), result, r_m1);
  result = select(_mm256_or_si256(lt(k, -1), gt(k, 56)), result, r_far);
  result = select(_mm256_and_si256(gt(k, 1), lt(k, 23)), result, r_mid);
  result = select(_mm256_and_si256(gt(k, 22), lt(k, 57)), result, r_high);

  const __m256 r_tiny = _mm256_sub_ps(
      x, _mm256_sub_ps(_mm256_add_ps(splat(kExpm1Huge), x), splat(kExpm1Huge)));
  return select(lt(hx, 0x33000000), result, r_tiny);
}

inline __m256 avx2_tanh(__m256 x) {
  const __m256i jx = as_si(x);
  const __m256i sign = _mm256_and_si256(jx, splat_i(0x80000000u));
  const __m256i ix = _mm256_and_si256(jx, splat_i(0x7fffffffu));
  const __m256 ax = as_ps(ix);

  const __m256i big = gt(ix, 0x3f800000 - 1);
  const __m256 arg = select(big, _mm256_mul_ps(splat(-2.0f), ax),
                            _mm256_mul_ps(splat(2.0f), ax));
  const __m256 t = avx2_expm1(arg);
  const __m256 q = _mm256_div_ps(
      select(big, as_ps(_mm256_xor_si256(as_si(t), splat_i(0x80000000u))),
             splat(2.0f)),
      _mm256_add_ps(t, splat(2.0f)));
  __m256 z = select(big, q, _mm256_sub_ps(splat(1.0f), q));
  z = select(gt(ix, 0x41b00000 - 1), z, splat(1.0f - kTanhTiny));
  __m256 result = as_ps(_mm256_xor_si256(as_si(z), sign));

  result = select(lt(ix, 0x24000000), result,
                  _mm256_mul_ps(x, _mm256_add_ps(splat(1.0f), x)));
  const __m256i nonfinite = gt(ix, 0x7f800000 - 1);
  if (_mm256_movemask_ps(as_ps(nonfinite)) != 0) {
    const __m256 rcp = _mm256_div_ps(splat(1.0f), x);
    const __m256 r = select(_mm256_srai_epi32(jx, 31),
                            _mm256_add_ps(rcp, splat(1.0f)),
                            _mm256_sub_ps(rcp, splat(1.0f)));
    result = select(nonfinite, result, r);
  }
  return result;
}

inline __m256 avx2_gelu_inner(__m256 x) {
  const __m256 cube = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(splat(kGeluA), x), x), x);
  return _mm256_mul_ps(splat(kGeluC), _mm256_add_ps(x, cube));
}

inline __m256 avx2_gelu(__m256 x) {
  const __m256 t = avx2_tanh(avx2_gelu_inner(x));
  return _mm256_mul_ps(_mm256_mul_ps(splat(0.5f), x),
                       _mm256_add_ps(splat(1.0f), t));
}

inline __m256 avx2_gelu_grad(__m256 x) {
  const __m256 t = avx2_tanh(avx2_gelu_inner(x));
  const __m256 sech2 = _mm256_sub_ps(splat(1.0f), _mm256_mul_ps(t, t));
  const __m256 dinner = _mm256_mul_ps(
      splat(kGeluC),
      _mm256_add_ps(splat(1.0f),
                    _mm256_mul_ps(_mm256_mul_ps(splat(kGelu3A), x), x)));
  return _mm256_add_ps(
      _mm256_mul_ps(splat(0.5f), _mm256_add_ps(splat(1.0f), t)),
      _mm256_mul_ps(
          _mm256_mul_ps(_mm256_mul_ps(splat(0.5f), x), sech2), dinner));
}

// Tails run the same lanes under a vmaskmov mask; masked-off lanes compute
// on zeros and are never stored.
void avx2_gelu_f32(float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, avx2_gelu(_mm256_loadu_ps(y + i)));
  }
  if (i < n) {
    const __m256i mask = avx2_lane_mask(n - i);
    _mm256_maskstore_ps(y + i, mask,
                        avx2_gelu(_mm256_maskload_ps(y + i, mask)));
  }
}

void avx2_gelu_backward_f32(float* gx, const float* x, const float* gy,
                            std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(gx + i, _mm256_mul_ps(_mm256_loadu_ps(gy + i),
                                           avx2_gelu_grad(_mm256_loadu_ps(x + i))));
  }
  if (i < n) {
    const __m256i mask = avx2_lane_mask(n - i);
    _mm256_maskstore_ps(
        gx + i, mask,
        _mm256_mul_ps(_mm256_maskload_ps(gy + i, mask),
                      avx2_gelu_grad(_mm256_maskload_ps(x + i, mask))));
  }
}

void avx2_axpy_f32(float* y, const float* x, float a, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  if (i < n) scalar_axpy_f32(y + i, x + i, a, n - i);
}

void avx2_scale_f32(float* y, float a, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  if (i < n) scalar_scale_f32(y + i, a, n - i);
}

void avx2_add_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(a + i)));
  }
  if (i < n) scalar_add_f32(dst + i, a + i, n - i);
}

void avx2_sub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(a + i)));
  }
  if (i < n) scalar_sub_f32(dst + i, a + i, n - i);
}

void avx2_rsub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(dst + i)));
  }
  if (i < n) scalar_rsub_f32(dst + i, a + i, n - i);
}

void avx2_mul_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(a + i)));
  }
  if (i < n) scalar_mul_f32(dst + i, a + i, n - i);
}

void avx2_bf16_round_f32(float* y, std::int64_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i inf_bits = _mm256_set1_epi32(0x7f800000);
  const __m256i quiet_bit = _mm256_set1_epi32(0x00400000);
  const __m256i round_base = _mm256_set1_epi32(0x7fff);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i hi_mask = _mm256_set1_epi32(
      static_cast<std::int32_t>(0xffff0000u));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16), one);
    const __m256i rounded =
        _mm256_add_epi32(bits, _mm256_add_epi32(round_base, lsb));
    const __m256i quieted = _mm256_or_si256(bits, quiet_bit);
    // abs <= 0x7fffffff on both sides, so signed compare is safe.
    const __m256i is_nan = _mm256_cmpgt_epi32(
        _mm256_and_si256(bits, abs_mask), inf_bits);
    const __m256i selected =
        _mm256_blendv_epi8(rounded, quieted, is_nan);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i),
                        _mm256_and_si256(selected, hi_mask));
  }
  if (i < n) scalar_bf16_round_f32(y + i, n - i);
}

// v = x * w as complex doubles, two complex per vector: with
// wr = (w.re, w.re), wi = (w.im, w.im), swapped = (x.im, x.re),
// vaddsubpd(x*wr, swapped*wi) yields
// (x.re*w.re - x.im*w.im, x.im*w.re + x.re*w.im).
inline __m256d cmul256(__m256d x, __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);
  const __m256d wi = _mm256_permute_pd(w, 0xF);
  const __m256d swapped = _mm256_permute_pd(x, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(swapped, wi));
}

void avx2_fft_butterfly_f64(double* a0, double* a1, const double* w,
                            std::int64_t n) {
  std::int64_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d x = _mm256_loadu_pd(a1 + 2 * k);
    const __m256d tw = _mm256_loadu_pd(w + 2 * k);
    const __m256d v = cmul256(x, tw);
    const __m256d u = _mm256_loadu_pd(a0 + 2 * k);
    _mm256_storeu_pd(a0 + 2 * k, _mm256_add_pd(u, v));
    _mm256_storeu_pd(a1 + 2 * k, _mm256_sub_pd(u, v));
  }
  if (k < n) {
    scalar_fft_butterfly_f64(a0 + 2 * k, a1 + 2 * k, w + 2 * k, n - k);
  }
}

void avx2_cmul_f64(double* x, const double* y, std::int64_t n) {
  std::int64_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d vx = _mm256_loadu_pd(x + 2 * k);
    const __m256d vy = _mm256_loadu_pd(y + 2 * k);
    _mm256_storeu_pd(x + 2 * k, cmul256(vx, vy));
  }
  if (k < n) scalar_cmul_f64(x + 2 * k, y + 2 * k, n - k);
}

double avx2_dot_f32(const float* x, const float* y, std::int64_t n) {
  // Lanes 0-3 in acc_lo, 4-7 in acc_hi; element i lands in lane i % 8,
  // accumulated in ascending i order — identical to the scalar reference.
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256d xl = _mm256_cvtps_pd(_mm256_castps256_ps128(vx));
    const __m256d yl = _mm256_cvtps_pd(_mm256_castps256_ps128(vy));
    const __m256d xh = _mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1));
    const __m256d yh = _mm256_cvtps_pd(_mm256_extractf128_ps(vy, 1));
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(xl, yl));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(xh, yh));
  }
  double lanes[kReduceLanes];
  _mm256_storeu_pd(lanes, acc_lo);
  _mm256_storeu_pd(lanes + 4, acc_hi);
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

const Ops* avx2_ops() {
  static const Ops table = {
      .isa = Isa::kAvx2,
      .gemm_block_f64 = avx2_gemm_block_f64,
      .axpy_f32 = avx2_axpy_f32,
      .pv_rows_f32 = avx2_pv_rows_f32,
      .gelu_f32 = avx2_gelu_f32,
      .gelu_backward_f32 = avx2_gelu_backward_f32,
      .scale_f32 = avx2_scale_f32,
      .add_f32 = avx2_add_f32,
      .sub_f32 = avx2_sub_f32,
      .rsub_f32 = avx2_rsub_f32,
      .mul_f32 = avx2_mul_f32,
      .bf16_round_f32 = avx2_bf16_round_f32,
      .fft_butterfly_f64 = avx2_fft_butterfly_f64,
      .cmul_f64 = avx2_cmul_f64,
      .dot_f32 = avx2_dot_f32,
  };
  return &table;
}

}  // namespace orbit2::simd::detail

#endif  // ORBIT2_SIMD_HAVE_AVX2
