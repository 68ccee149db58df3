#pragma once
// Scalar reference implementations of every simd::Ops primitive.
//
// These are the semantic ground truth of the determinism contract: each
// vector ISA must reproduce them bit-for-bit, and the vector TUs call them
// directly for remainder tails shorter than one vector. Keep every loop
// body a straight transcription of the contract in simd.hpp — operand
// order included — because the ISA-matrix test pins vector output against
// exactly this code.
//
// All functions are static (internal linkage) on purpose: the header is
// included by TUs built with -mavx2/-mavx512f, where the optimizer may
// auto-vectorize these loops with AVX instructions. External-linkage inline
// would let the linker keep such an instantiation for every caller —
// including the scalar table, which must stay runnable on hosts without
// those ISAs. Internal linkage keeps each TU's copy confined to code paths
// already gated on that TU's ISA.

#include <cstdint>
#include <cstring>

#include "core/simd/simd.hpp"

namespace orbit2::simd::detail {

static inline std::uint32_t float_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

static inline float bits_float(std::uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Row-update order: for each row, walk k ascending and update the whole
// row of accumulators. Each element still sees its k terms in ascending
// order, which is all the contract pins.
static inline void scalar_gemm_block_f64(double* acc, std::int64_t ldacc,
                                         const float* a, std::int64_t lda,
                                         const float* b, std::int64_t ldb,
                                         std::int64_t m, std::int64_t n,
                                         std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    double* row = acc + i * ldacc;
    for (std::int64_t q = 0; q < k; ++q) {
      const double aiq = static_cast<double>(a[i * lda + q]);
      const float* brow = b + q * ldb;
      for (std::int64_t j = 0; j < n; ++j) {
        row[j] += aiq * static_cast<double>(brow[j]);
      }
    }
  }
}

static inline void scalar_axpy_f32(float* y, const float* x, float a,
                                   std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] += a * x[i];
  }
}

// One axpy per (row, score) in ascending j: the per-score loop flash
// attention ran before the row block existed.
static inline void scalar_pv_rows_f32(float* o, std::int64_t ldo,
                                      const float* p, std::int64_t ldp,
                                      const float* v, std::int64_t ldv,
                                      std::int64_t rows, std::int64_t n,
                                      std::int64_t k) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < k; ++j) {
      scalar_axpy_f32(o + r * ldo, v + j * ldv, p[r * ldp + j], n);
    }
  }
}

// ---- GELU on a repo-owned tanh ---------------------------------------------
//
// scalar_expm1_one and scalar_tanh_one transcribe fdlibm's s_expm1f.c and
// s_tanhf.c (the float versions glibc ships as its generic expm1f/tanhf),
// branch for branch and operation for operation, minus the expm1f branches
// tanhf never reaches. Only float arithmetic, no
// table and no FMA, so every lane-wise port that runs the same operation
// sequence and selects by branch mask reproduces these bits exactly — and a
// libm upgrade can no longer move GELU's.
//
// The two functions carry this notice from their source:
//
//   Conversion to float by Ian Lance Taylor, Cygnus Support,
//   ian@cygnus.com.
//
//   ====================================================
//   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
//   Developed at SunPro, a Sun Microsystems, Inc. business.
//   Permission to use, copy, modify, and distribute this
//   software is freely granted, provided that this notice
//   is preserved.
//   ====================================================

constexpr float kExpm1Huge = 1.0e+30f;
constexpr float kLn2Hi = 6.9313812256e-01f;            // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;            // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;           // 0x3fb8aa3b
constexpr float kExpm1Q1 = -3.3333335072e-02f;         // 0xbd088889
constexpr float kExpm1Q2 = 1.5873016091e-03f;          // 0x3ad00d01
constexpr float kExpm1Q3 = -7.9365076090e-05f;         // 0xb8a670cd
constexpr float kExpm1Q4 = 4.0082177293e-06f;          // 0x36867e54
constexpr float kExpm1Q5 = -2.0109921195e-07f;         // 0xb457edbb
constexpr float kTanhTiny = 1.0e-30f;

// The approximation GELU's tanh argument: sqrt(2/pi) * (x + 0.044715 x^3).
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
constexpr float kGelu3A = 3.0f * kGeluA;

// fdlibm expm1f over the arguments scalar_tanh_one passes it, 2|x| in
// [2, 44) and -2|x| in (-2, -2^-54]. Two branches of the source never run
// there and are left out: the huge/non-finite filter (below 88.7 it only
// acts on arguments <= -27*ln2) and k = 1 (positive arguments below
// 1.5*ln2). Every remaining branch is reached, so a 2^32-input sweep of
// tanh covers all of this code.
static inline float scalar_expm1_one(float x) {
  std::uint32_t hx = float_bits(x);
  const bool negative = (hx & 0x80000000u) != 0;
  hx &= 0x7fffffffu;

  // Argument reduction: x = hi - lo = k*ln2 + r, c the rounding error.
  float hi = 0.0f, lo = 0.0f, c = 0.0f;
  std::int32_t k = 0;
  if (hx > 0x3eb17218u) {    // |x| > 0.5*ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5*ln2 (x < 0 here)
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t*ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: return x
    const float t = kExpm1Huge + x;
    return x - (t - kExpm1Huge);
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f +
      hxs * (kExpm1Q1 +
             hxs * (kExpm1Q2 +
                    hxs * (kExpm1Q3 + hxs * (kExpm1Q4 + hxs * kExpm1Q5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  // Adds k to y's exponent (two's-complement add of k << 23).
  const auto scale_by_2k = [k](float y) {
    return bits_float(float_bits(y) + (static_cast<std::uint32_t>(k) << 23));
  };
  if (k <= -2 || k > 56) {  // suffices to return exp(x)-1
    return scale_by_2k(1.0f - (e - x)) - 1.0f;
  }
  if (k < 23) {
    t = bits_float(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return scale_by_2k(t - (e - x));
  }
  t = bits_float(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += 1.0f;
  return scale_by_2k(y);
}

static inline float scalar_tanh_one(float x) {
  const std::uint32_t jx = float_bits(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;

  if (ix >= 0x7f800000u) {  // Inf or NaN: tanh(+-inf) = +-1, NaN stays NaN
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {            // |x| < 22
    if (ix == 0) return x;           // +-0
    if (ix < 0x24000000u) {          // |x| < 2^-55
      return x * (1.0f + x);         // tanh(small) = small
    }
    const float ax = bits_float(ix);
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = scalar_expm1_one(2.0f * ax);
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = scalar_expm1_one(-2.0f * ax);
      z = -t / (t + 2.0f);
    }
  } else {  // |x| >= 22: +-1, inexact
    z = 1.0f - kTanhTiny;
  }
  return negative ? -z : z;
}

// The tanh-approximation GELU and its derivative, in the operation order
// (and so the bits) of the std::tanh-based kernels they replace.
static inline float scalar_gelu_one(float x) {
  const float inner = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + scalar_tanh_one(inner));
}

static inline float scalar_gelu_grad_one(float x) {
  const float inner = kGeluC * (x + kGeluA * x * x * x);
  const float t = scalar_tanh_one(inner);
  const float sech2 = 1.0f - t * t;
  const float dinner = kGeluC * (1.0f + kGelu3A * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}

static inline void scalar_gelu_f32(float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = scalar_gelu_one(y[i]);
  }
}

static inline void scalar_gelu_backward_f32(float* gx, const float* x,
                                            const float* gy, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    gx[i] = gy[i] * scalar_gelu_grad_one(x[i]);
  }
}

static inline void scalar_scale_f32(float* y, float a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] *= a;
  }
}

static inline void scalar_add_f32(float* dst, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = dst[i] + a[i];
  }
}

static inline void scalar_sub_f32(float* dst, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = dst[i] - a[i];
  }
}

static inline void scalar_rsub_f32(float* dst, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = a[i] - dst[i];
  }
}

static inline void scalar_mul_f32(float* dst, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = dst[i] * a[i];
  }
}

// Mirrors core/bf16.hpp round_from_float ∘ to_float as one bit-level pass:
// NaN payloads collapse to a quiet pattern, everything else rounds to
// nearest-even in the top 16 bits. Both branches reduce to masking the low
// 16 bits of a selected 32-bit value, which is what the vector paths do.
static inline float scalar_bf16_round_one(float v) {
  const std::uint32_t bits = float_bits(v);
  std::uint32_t selected;
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    selected = bits | 0x00400000u;
  } else {
    selected = bits + (0x7fffu + ((bits >> 16) & 1u));
  }
  return bits_float(selected & 0xffff0000u);
}

static inline void scalar_bf16_round_f32(float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = scalar_bf16_round_one(y[i]);
  }
}

static inline void scalar_fft_butterfly_f64(double* a0, double* a1,
                                            const double* w, std::int64_t n) {
  for (std::int64_t k = 0; k < n; ++k) {
    const double ur = a0[2 * k];
    const double ui = a0[2 * k + 1];
    const double xr = a1[2 * k];
    const double xi = a1[2 * k + 1];
    const double wr = w[2 * k];
    const double wi = w[2 * k + 1];
    const double vr = xr * wr - xi * wi;
    const double vi = xi * wr + xr * wi;
    a0[2 * k] = ur + vr;
    a0[2 * k + 1] = ui + vi;
    a1[2 * k] = ur - vr;
    a1[2 * k + 1] = ui - vi;
  }
}

static inline void scalar_cmul_f64(double* x, const double* y, std::int64_t n) {
  for (std::int64_t k = 0; k < n; ++k) {
    const double xr = x[2 * k];
    const double xi = x[2 * k + 1];
    const double yr = y[2 * k];
    const double yi = y[2 * k + 1];
    x[2 * k] = xr * yr - xi * yi;
    x[2 * k + 1] = xi * yr + xr * yi;
  }
}

// Lane-blocked reference of the reduce policy: element i accumulates into
// double lane (i % kReduceLanes); lanes combine in ascending lane order
// starting from lane 0's value (not from 0.0, so signed zeros survive).
static inline double scalar_dot_f32(const float* x, const float* y,
                                    std::int64_t n) {
  double lanes[kReduceLanes] = {};
  for (std::int64_t i = 0; i < n; ++i) {
    lanes[i % kReduceLanes] +=
        static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  double acc = lanes[0];
  for (std::int64_t lane = 1; lane < kReduceLanes; ++lane) {
    acc += lanes[lane];
  }
  return acc;
}

}  // namespace orbit2::simd::detail
