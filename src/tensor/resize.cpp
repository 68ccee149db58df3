#include "tensor/resize.hpp"

#include <algorithm>
#include <cmath>

#include "core/kernels.hpp"

namespace orbit2 {

// Resampling kernels dispatch through kernels::parallel_for. Forward /
// nearest / area parallelize over (channel, output row) — each output pixel
// is written once by one chunk — and the bilinear backward parallelizes
// over channels only, because adjacent output rows scatter into overlapping
// input rows. Results are bit-identical for any thread count.

namespace {

// Half-pixel source coordinate mapping with clamped endpoints; fills the
// two taps and interpolation weight for one output coordinate.
struct Tap {
  std::int64_t lo;
  std::int64_t hi;
  float frac;  // weight of hi
};

Tap make_tap(std::int64_t out_idx, std::int64_t in_dim, std::int64_t out_dim) {
  const double scale =
      static_cast<double>(in_dim) / static_cast<double>(out_dim);
  double src = (static_cast<double>(out_idx) + 0.5) * scale - 0.5;
  src = std::max(0.0, std::min(src, static_cast<double>(in_dim - 1)));
  const std::int64_t lo = static_cast<std::int64_t>(std::floor(src));
  const std::int64_t hi = std::min(lo + 1, in_dim - 1);
  return {lo, hi, static_cast<float>(src - static_cast<double>(lo))};
}

}  // namespace

Tensor resize_bilinear(const Tensor& input, std::int64_t out_h,
                       std::int64_t out_w) {
  ORBIT2_REQUIRE(input.rank() == 3, "resize_bilinear input must be [C,H,W]");
  ORBIT2_REQUIRE(out_h >= 1 && out_w >= 1, "resize target must be positive");
  Tensor out(Shape{input.dim(0), out_h, out_w});
  resize_bilinear_into(input, out);
  return out;
}

void resize_bilinear_into(const Tensor& input, Tensor& out) {
  ORBIT2_REQUIRE(input.rank() == 3 && out.rank() == 3,
                 "resize_bilinear tensors must be [C,H,W]");
  const std::int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t out_h = out.dim(1), out_w = out.dim(2);
  ORBIT2_REQUIRE(out.dim(0) == c, "resize_bilinear channel mismatch");
  ORBIT2_REQUIRE(out_h >= 1 && out_w >= 1, "resize target must be positive");

  // Grow-only per-thread tap tables: every entry used is recomputed for
  // this call before the parallel loop reads it, and resize never nests
  // inside resize, so steady-state calls allocate nothing.
  thread_local std::vector<Tap> ytaps;
  thread_local std::vector<Tap> xtaps;
  if (ytaps.size() < static_cast<std::size_t>(out_h)) {
    ytaps.resize(static_cast<std::size_t>(out_h));
  }
  if (xtaps.size() < static_cast<std::size_t>(out_w)) {
    xtaps.resize(static_cast<std::size_t>(out_w));
  }
  for (std::int64_t y = 0; y < out_h; ++y) {
    ytaps[static_cast<std::size_t>(y)] = make_tap(y, h, out_h);
  }
  for (std::int64_t x = 0; x < out_w; ++x) {
    xtaps[static_cast<std::size_t>(x)] = make_tap(x, w, out_w);
  }

  const float* in = input.data().data();
  float* po = out.data().data();
  // Capture the *calling thread's* tap tables by pointer: naming a
  // thread_local inside the lambda would resolve to the (empty) instance of
  // whichever team thread runs the chunk.
  const Tap* ytap = ytaps.data();
  const Tap* xtap = xtaps.data();
  kernels::parallel_for(
      c * out_h, kernels::grain_for(out_w),
      [&](std::int64_t row0, std::int64_t row1) {
        for (std::int64_t row = row0; row < row1; ++row) {
          const std::int64_t ch = row / out_h;
          const std::int64_t y = row % out_h;
          const float* src = in + ch * h * w;
          float* dst = po + ch * out_h * out_w;
          const Tap& ty = ytap[y];
          for (std::int64_t x = 0; x < out_w; ++x) {
            const Tap& tx = xtap[x];
            const float v00 = src[ty.lo * w + tx.lo];
            const float v01 = src[ty.lo * w + tx.hi];
            const float v10 = src[ty.hi * w + tx.lo];
            const float v11 = src[ty.hi * w + tx.hi];
            const float top = v00 + (v01 - v00) * tx.frac;
            const float bot = v10 + (v11 - v10) * tx.frac;
            dst[y * out_w + x] = top + (bot - top) * ty.frac;
          }
        }
      });
}

Tensor resize_bilinear_backward(const Tensor& grad_output, std::int64_t in_h,
                                std::int64_t in_w) {
  ORBIT2_REQUIRE(grad_output.rank() == 3,
                 "resize_bilinear_backward grad must be [C,H,W]");
  const std::int64_t c = grad_output.dim(0);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  Tensor grad_input = Tensor::zeros(Shape{c, in_h, in_w});

  std::vector<Tap> ytaps(static_cast<std::size_t>(oh));
  std::vector<Tap> xtaps(static_cast<std::size_t>(ow));
  for (std::int64_t y = 0; y < oh; ++y) {
    ytaps[static_cast<std::size_t>(y)] = make_tap(y, in_h, oh);
  }
  for (std::int64_t x = 0; x < ow; ++x) {
    xtaps[static_cast<std::size_t>(x)] = make_tap(x, in_w, ow);
  }

  const float* go = grad_output.data().data();
  float* gi = grad_input.data().data();
  kernels::parallel_for(c, 1, [&](std::int64_t ch0, std::int64_t ch1) {
    for (std::int64_t ch = ch0; ch < ch1; ++ch) {
      const float* src = go + ch * oh * ow;
      float* dst = gi + ch * in_h * in_w;
      for (std::int64_t y = 0; y < oh; ++y) {
        const Tap& ty = ytaps[static_cast<std::size_t>(y)];
        for (std::int64_t x = 0; x < ow; ++x) {
          const Tap& tx = xtaps[static_cast<std::size_t>(x)];
          const float g = src[y * ow + x];
          dst[ty.lo * in_w + tx.lo] += g * (1 - ty.frac) * (1 - tx.frac);
          dst[ty.lo * in_w + tx.hi] += g * (1 - ty.frac) * tx.frac;
          dst[ty.hi * in_w + tx.lo] += g * ty.frac * (1 - tx.frac);
          dst[ty.hi * in_w + tx.hi] += g * ty.frac * tx.frac;
        }
      }
    }
  });
  return grad_input;
}

Tensor resize_nearest(const Tensor& input, std::int64_t out_h,
                      std::int64_t out_w) {
  ORBIT2_REQUIRE(input.rank() == 3, "resize_nearest input must be [C,H,W]");
  const std::int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  Tensor out(Shape{c, out_h, out_w});
  const float* in = input.data().data();
  float* po = out.data().data();
  kernels::parallel_for(
      c * out_h, kernels::grain_for(out_w),
      [&](std::int64_t row0, std::int64_t row1) {
        for (std::int64_t row = row0; row < row1; ++row) {
          const std::int64_t ch = row / out_h;
          const std::int64_t y = row % out_h;
          const float* src = in + ch * h * w;
          float* dst = po + ch * out_h * out_w;
          const std::int64_t sy = std::min(h - 1, y * h / out_h);
          for (std::int64_t x = 0; x < out_w; ++x) {
            const std::int64_t sx = std::min(w - 1, x * w / out_w);
            dst[y * out_w + x] = src[sy * w + sx];
          }
        }
      });
  return out;
}

Tensor coarsen_area(const Tensor& input, std::int64_t factor) {
  ORBIT2_REQUIRE(input.rank() == 3, "coarsen_area input must be [C,H,W]");
  ORBIT2_REQUIRE(factor >= 1, "coarsen factor must be >= 1");
  const std::int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  ORBIT2_REQUIRE(h % factor == 0 && w % factor == 0,
                 "coarsen_area requires dims divisible by factor, got "
                     << h << "x" << w << " / " << factor);
  const std::int64_t oh = h / factor, ow = w / factor;
  Tensor out(Shape{c, oh, ow});
  const float inv = 1.0f / static_cast<float>(factor * factor);
  const float* in = input.data().data();
  float* po = out.data().data();
  kernels::parallel_for(
      c * oh, kernels::grain_for(ow * factor * factor),
      [&](std::int64_t row0, std::int64_t row1) {
        for (std::int64_t out_row = row0; out_row < row1; ++out_row) {
          const std::int64_t ch = out_row / oh;
          const std::int64_t y = out_row % oh;
          const float* src = in + ch * h * w;
          float* dst = po + ch * oh * ow;
          for (std::int64_t x = 0; x < ow; ++x) {
            double acc = 0.0;
            for (std::int64_t dy = 0; dy < factor; ++dy) {
              const float* row = src + (y * factor + dy) * w + x * factor;
              for (std::int64_t dx = 0; dx < factor; ++dx) acc += row[dx];
            }
            dst[y * ow + x] = static_cast<float>(acc) * inv;
          }
        }
      });
  return out;
}

}  // namespace orbit2
