#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "core/cache.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/simd/simd.hpp"

namespace orbit2 {

namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Precomputed per-length transform state. Twiddles are generated with the
// exact sequential `w *= root` recurrence the in-loop version used, so a
// plan-driven butterfly multiplies by bit-identical factors and the
// transform output is unchanged down to the last ulp — the caches here are
// pure call-amortization, not an algorithm change.
struct Radix2Plan {
  // bitrev[i] is the reversal target the incremental swap loop visits.
  std::vector<std::uint32_t> bitrev;
  // Stages concatenated smallest-first; stage `len` starts at len/2 - 1
  // (1 + 2 + ... + len/4 entries precede it) and holds len/2 factors.
  std::vector<Complex> twiddles;
};

Radix2Plan build_radix2_plan(std::size_t n, bool inverse) {
  Radix2Plan plan;
  plan.bitrev.resize(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    plan.bitrev[i] = static_cast<std::uint32_t>(j);
  }
  plan.twiddles.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex root(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      plan.twiddles.push_back(w);
      w *= root;
    }
  }
  return plan;
}

std::shared_ptr<const Radix2Plan> radix2_plan(std::size_t n, bool inverse) {
  static LruCache<std::uint64_t, Radix2Plan> cache(16);
  const std::uint64_t key = (static_cast<std::uint64_t>(n) << 1) |
                            static_cast<std::uint64_t>(inverse);
  if (auto hit = cache.lookup(key)) {
    ORBIT2_OBS_COUNT("fft.plan_cache_hits", 1);
    return hit;
  }
  ORBIT2_OBS_COUNT("fft.plan_cache_misses", 1);
  return cache.get_or_create(key, [&] { return build_radix2_plan(n, inverse); });
}

// Iterative radix-2 Cooley-Tukey over a[0, n) with n = plan length (a power
// of two).
void fft_radix2(Complex* a, const Radix2Plan& plan) {
  const std::size_t n = plan.bitrev.size();
  const std::uint32_t* rev = plan.bitrev.data();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  // Each stage's butterflies touch two contiguous half-spans and the
  // contiguous twiddle run, so the whole inner pair-loop is one simd
  // primitive call per span. std::complex<double> guarantees array-of-two-
  // doubles layout, which is the interleaved re/im format the primitive
  // takes. Bit-identical to the std::complex arithmetic it replaces for
  // finite values (see the contract in core/simd/simd.hpp).
  const simd::Ops& sops = simd::ops();
  const Complex* tw = plan.twiddles.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Complex* stage = tw + (len / 2 - 1);
    const double* w = reinterpret_cast<const double*>(stage);
    const std::int64_t half = static_cast<std::int64_t>(len / 2);
    for (std::size_t i = 0; i < n; i += len) {
      sops.fft_butterfly_f64(reinterpret_cast<double*>(a + i),
                             reinterpret_cast<double*>(a + i + len / 2),
                             w, half);
    }
  }
}

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Per-(n, direction) Bluestein state: the chirp and the forward transform
// of the convolution kernel are pure functions of the length, so they are
// computed once and the per-call cost drops from three power-of-two FFTs
// to two (plus the pointwise products).
struct BluesteinPlan {
  std::size_t m = 0;               // padded convolution length
  std::vector<Complex> chirp;      // w_k = exp(sign * i * pi * k^2 / n)
  std::vector<Complex> kernel_fft; // forward FFT of conj(chirp) wrapped to m
};

BluesteinPlan build_bluestein_plan(std::size_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  BluesteinPlan plan;
  plan.chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n avoids precision loss for large k.
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * M_PI * static_cast<double>(k2) / static_cast<double>(n);
    plan.chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }
  plan.m = next_power_of_two(2 * n - 1);
  plan.kernel_fft.assign(plan.m, Complex(0, 0));
  plan.kernel_fft[0] = std::conj(plan.chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    plan.kernel_fft[k] = std::conj(plan.chirp[k]);
    plan.kernel_fft[plan.m - k] = std::conj(plan.chirp[k]);
  }
  fft_radix2(plan.kernel_fft.data(), *radix2_plan(plan.m, false));
  return plan;
}

std::shared_ptr<const BluesteinPlan> bluestein_plan(std::size_t n,
                                                    bool inverse) {
  static LruCache<std::uint64_t, BluesteinPlan> cache(16);
  const std::uint64_t key = (static_cast<std::uint64_t>(n) << 1) |
                            static_cast<std::uint64_t>(inverse);
  if (auto hit = cache.lookup(key)) {
    ORBIT2_OBS_COUNT("fft.plan_cache_hits", 1);
    return hit;
  }
  ORBIT2_OBS_COUNT("fft.plan_cache_misses", 1);
  return cache.get_or_create(key,
                             [&] { return build_bluestein_plan(n, inverse); });
}

// Every plan one line transform of length n needs, resolved from the caches
// once so a pass over many lines takes the cache locks once per axis. A
// radix-2 length holds its own plan in `radix2`; a Bluestein length holds
// its chirp plan plus the forward (`radix2`) and inverse plans of the
// padded length m.
struct LinePlan {
  std::size_t n = 0;
  bool inverse = false;
  std::shared_ptr<const Radix2Plan> radix2;
  std::shared_ptr<const BluesteinPlan> bluestein;
  std::shared_ptr<const Radix2Plan> radix2_inverse;

  // Bluestein's padded work buffer; empty for radix-2 lengths.
  std::size_t scratch_size() const { return bluestein ? bluestein->m : 0; }
};

LinePlan resolve_line_plan(std::size_t n, bool inverse) {
  LinePlan plan;
  plan.n = n;
  plan.inverse = inverse;
  if (n <= 1) return plan;
  if (is_power_of_two(n)) {
    plan.radix2 = radix2_plan(n, inverse);
  } else {
    plan.bluestein = bluestein_plan(n, inverse);
    plan.radix2 = radix2_plan(plan.bluestein->m, false);
    plan.radix2_inverse = radix2_plan(plan.bluestein->m, true);
  }
  return plan;
}

// Bluestein's chirp-z transform: expresses an arbitrary-length DFT as a
// convolution, evaluated with power-of-two FFTs in x[0, m).
void fft_bluestein(Complex* a, const LinePlan& plan, Complex* x) {
  const std::size_t n = plan.n;
  const std::size_t m = plan.bluestein->m;
  const Complex* chirp = plan.bluestein->chirp.data();

  for (std::size_t k = 0; k < n; ++k) x[k] = a[k] * chirp[k];
  std::fill(x + n, x + m, Complex(0, 0));
  fft_radix2(x, *plan.radix2);
  const Complex* kernel = plan.bluestein->kernel_fft.data();
  simd::ops().cmul_f64(reinterpret_cast<double*>(x),
                       reinterpret_cast<const double*>(kernel),
                       static_cast<std::int64_t>(m));
  fft_radix2(x, *plan.radix2_inverse);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * inv_m * chirp[k];
}

// One line of length plan.n in place; `scratch` holds plan.scratch_size()
// elements. The inverse applies the 1/n normalization.
void transform_line(Complex* a, const LinePlan& plan, Complex* scratch) {
  const std::size_t n = plan.n;
  if (n <= 1) return;
  if (plan.bluestein) {
    fft_bluestein(a, plan, scratch);
  } else {
    fft_radix2(a, *plan.radix2);
  }
  if (plan.inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) a[i] *= inv_n;
  }
}

// Row then column 1-D transforms over an H x W row-major coefficient grid.
// Each axis's plans are resolved once per pass; one line per work item with
// chunk-local line and Bluestein scratch. Every line's arithmetic is
// identical to the serial loop, and lines write disjoint ranges, so the
// result is bit-identical for any thread count.
void transform_2d(std::vector<Complex>& coeffs, std::int64_t h, std::int64_t w,
                  bool inverse) {
  const LinePlan row_plan = resolve_line_plan(static_cast<std::size_t>(w), inverse);
  // A line of length n costs ~n log n; target a few lines per chunk on
  // typical grids without making chunks tiny.
  const std::int64_t row_grain = kernels::grain_for(w, 1 << 12);
  kernels::parallel_for(h, row_grain, [&](std::int64_t y0, std::int64_t y1) {
    std::vector<Complex> scratch(row_plan.scratch_size());
    for (std::int64_t y = y0; y < y1; ++y) {
      transform_line(coeffs.data() + y * w, row_plan, scratch.data());
    }
  });
  const LinePlan col_plan = resolve_line_plan(static_cast<std::size_t>(h), inverse);
  const std::int64_t col_grain = kernels::grain_for(h, 1 << 12);
  kernels::parallel_for(w, col_grain, [&](std::int64_t x0, std::int64_t x1) {
    std::vector<Complex> col(static_cast<std::size_t>(h));
    std::vector<Complex> scratch(col_plan.scratch_size());
    for (std::int64_t x = x0; x < x1; ++x) {
      for (std::int64_t y = 0; y < h; ++y) {
        col[static_cast<std::size_t>(y)] =
            coeffs[static_cast<std::size_t>(y * w + x)];
      }
      transform_line(col.data(), col_plan, scratch.data());
      for (std::int64_t y = 0; y < h; ++y) {
        coeffs[static_cast<std::size_t>(y * w + x)] =
            col[static_cast<std::size_t>(y)];
      }
    }
  });
}

}  // namespace

void fft(std::vector<Complex>& data, bool inverse) {
  const LinePlan plan = resolve_line_plan(data.size(), inverse);
  std::vector<Complex> scratch(plan.scratch_size());
  transform_line(data.data(), plan, scratch.data());
}

std::vector<Complex> fft_copy(const std::vector<Complex>& data, bool inverse) {
  std::vector<Complex> out = data;
  fft(out, inverse);
  return out;
}

std::vector<Complex> fft2d(const Tensor& field) {
  ORBIT2_REQUIRE(field.rank() == 2, "fft2d expects [H,W]");
  const std::int64_t h = field.dim(0), w = field.dim(1);
  ORBIT2_OBS_SPAN_ARG("fft2d", "fft", "numel", h * w);
  ORBIT2_OBS_COUNT("fft.fft2d_calls", 1);
  std::vector<Complex> coeffs(static_cast<std::size_t>(h * w));
  const float* src = field.data().data();
  for (std::int64_t i = 0; i < h * w; ++i) {
    coeffs[static_cast<std::size_t>(i)] = Complex(src[i], 0.0);
  }
  transform_2d(coeffs, h, w, /*inverse=*/false);
  return coeffs;
}

void ifft2d(std::vector<Complex>& coeffs, std::int64_t h, std::int64_t w) {
  ORBIT2_REQUIRE(h >= 1 && w >= 1, "ifft2d needs a non-empty grid");
  ORBIT2_REQUIRE(coeffs.size() == static_cast<std::size_t>(h * w),
                 "ifft2d: " << coeffs.size() << " coefficients for " << h << "x"
                            << w);
  ORBIT2_OBS_SPAN_ARG("ifft2d", "fft", "numel", h * w);
  ORBIT2_OBS_COUNT("fft.ifft2d_calls", 1);
  transform_2d(coeffs, h, w, /*inverse=*/true);
}

Tensor ifft2d_real(std::vector<Complex>& coeffs, std::int64_t h,
                   std::int64_t w) {
  ifft2d(coeffs, h, w);
  Tensor field(Shape{h, w});
  float* dst = field.data().data();
  for (std::int64_t i = 0; i < h * w; ++i) {
    dst[i] = static_cast<float>(coeffs[static_cast<std::size_t>(i)].real());
  }
  return field;
}

std::vector<double> radial_power_spectrum(const Tensor& field) {
  const std::int64_t h = field.dim(0), w = field.dim(1);
  const auto coeffs = fft2d(field);
  const std::int64_t max_k = std::min(h, w) / 2;
  std::vector<double> power(static_cast<std::size_t>(max_k + 1), 0.0);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(max_k + 1), 0);

  for (std::int64_t y = 0; y < h; ++y) {
    // Signed wavenumber: frequencies above Nyquist wrap negative.
    const std::int64_t ky = (y <= h / 2) ? y : y - h;
    for (std::int64_t x = 0; x < w; ++x) {
      const std::int64_t kx = (x <= w / 2) ? x : x - w;
      const double kr = std::sqrt(static_cast<double>(ky * ky + kx * kx));
      const std::int64_t bin = static_cast<std::int64_t>(std::llround(kr));
      if (bin > max_k) continue;
      const Complex& c = coeffs[static_cast<std::size_t>(y * w + x)];
      power[static_cast<std::size_t>(bin)] += std::norm(c);
      ++counts[static_cast<std::size_t>(bin)];
    }
  }
  for (std::size_t k = 0; k < power.size(); ++k) {
    if (counts[k] > 0) power[k] /= static_cast<double>(counts[k]);
  }
  return power;
}

}  // namespace orbit2
