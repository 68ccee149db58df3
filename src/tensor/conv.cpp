#include "tensor/conv.hpp"

#include <algorithm>
#include <vector>

#include "core/kernels.hpp"
#include "core/obs.hpp"

namespace orbit2 {

std::int64_t conv2d_out_dim(std::int64_t in, std::int64_t kernel,
                            std::int64_t stride, std::int64_t pad) {
  ORBIT2_REQUIRE(stride >= 1, "conv stride must be >= 1");
  const std::int64_t padded = in + 2 * pad - kernel;
  ORBIT2_REQUIRE(padded >= 0, "conv kernel larger than padded input");
  return padded / stride + 1;
}

// Forward and backward-input are im2col + kernels::gemm. The output is cut
// into strips of whole rows; each strip's column matrix is built in
// grow-only thread-local scratch and one GEMM produces the strip. The strip
// grid is a pure function of the shape, and each output element is one
// GEMM dot in ascending (channel, ky, kx) order, so results are
// bit-identical for any thread count and to a direct loop nest summing in
// that order and skipping padded taps (tests/tensor/contraction_grid.cpp),
// except in the two signed-zero / non-finite edge cases docs/API.md pins.
// backward_params is a direct loop nest, parallel over output channels.

namespace {

// Pixels per im2col strip: whole rows, at most this many unless a single
// row is wider. Keeps the column matrix cache-sized instead of image-sized.
constexpr std::int64_t kStripPixels = 512;

float* grow(std::vector<float>& buf, std::int64_t n) {
  if (buf.size() < static_cast<std::size_t>(n)) {
    buf.resize(static_cast<std::size_t>(n));
  }
  return buf.data();
}

/// dst[x] = src[x * stride + offset] where that index lies in [0, src_w),
/// else 0, for x in [0, dst_w). The in-range span is computed once, so the
/// copy has no per-pixel bounds test or division.
void gather_row(float* dst, std::int64_t dst_w, const float* src,
                std::int64_t src_w, std::int64_t stride, std::int64_t offset) {
  const std::int64_t lo =
      std::min(dst_w, offset >= 0 ? 0 : (stride - 1 - offset) / stride);
  const std::int64_t last = src_w - 1 - offset;
  const std::int64_t hi =
      std::clamp<std::int64_t>(last < 0 ? 0 : last / stride + 1, lo, dst_w);
  std::fill(dst, dst + lo, 0.0f);
  if (stride == 1) {
    std::copy(src + lo + offset, src + hi + offset, dst + lo);
  } else {
    for (std::int64_t x = lo; x < hi; ++x) dst[x] = src[x * stride + offset];
  }
  std::fill(dst + hi, dst + dst_w, 0.0f);
}

/// dst[x * stride + offset] = src[x] for each x in [0, src_w) that lands in
/// [0, dst_w); every other dst entry is 0.
void scatter_row(float* dst, std::int64_t dst_w, const float* src,
                 std::int64_t src_w, std::int64_t stride,
                 std::int64_t offset) {
  std::fill(dst, dst + dst_w, 0.0f);
  for (std::int64_t x = 0; x < src_w; ++x) {
    const std::int64_t i = x * stride + offset;
    if (i >= 0 && i < dst_w) dst[i] = src[x];
  }
}

/// out (m planes of rows x width) = wmat (m x kdim) * columns, one GEMM per
/// strip of whole rows, strips in parallel. fill_row(kq, y, dst) writes the
/// `width` column-matrix entries of GEMM row kq for image row y.
template <typename FillRow>
void strip_gemm(const float* wmat, std::int64_t m, std::int64_t kdim,
                std::int64_t rows, std::int64_t width, float* out,
                const FillRow& fill_row) {
  if (rows == 0 || width == 0) return;
  const std::int64_t strip = std::max<std::int64_t>(1, kStripPixels / width);
  const std::int64_t strips = (rows + strip - 1) / strip;
  kernels::parallel_for(
      strips, kernels::grain_for(m * kdim * strip * width),
      [&](std::int64_t s0, std::int64_t s1) {
        thread_local std::vector<float> cols_scratch;
        thread_local std::vector<float> res_scratch;
        for (std::int64_t s = s0; s < s1; ++s) {
          const std::int64_t y0 = s * strip;
          const std::int64_t y1 = std::min(rows, y0 + strip);
          const std::int64_t np = (y1 - y0) * width;
          float* cols = grow(cols_scratch, kdim * np);
          float* res = grow(res_scratch, m * np);
          for (std::int64_t kq = 0; kq < kdim; ++kq) {
            for (std::int64_t y = y0; y < y1; ++y) {
              fill_row(kq, y, cols + kq * np + (y - y0) * width);
            }
          }
          kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, m, np, kdim,
                        wmat, cols, res);
          for (std::int64_t c = 0; c < m; ++c) {
            std::copy(res + c * np, res + (c + 1) * np,
                      out + (c * rows + y0) * width);
          }
        }
      });
}

}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec) {
  ORBIT2_REQUIRE(input.rank() == 3, "conv2d input must be [C,H,W]");
  const std::int64_t oh =
      conv2d_out_dim(input.dim(1), spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t ow =
      conv2d_out_dim(input.dim(2), spec.kernel_w, spec.stride, spec.pad);
  Tensor out(Shape{weight.dim(0), oh, ow});
  conv2d_forward_into(input, weight, bias, spec, out);
  return out;
}

void conv2d_forward_into(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv2dSpec& spec,
                         Tensor& out) {
  ORBIT2_REQUIRE(input.rank() == 3, "conv2d input must be [C,H,W]");
  ORBIT2_REQUIRE(weight.rank() == 4, "conv2d weight must be [O,C,kh,kw]");
  const std::int64_t cin = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t cout = weight.dim(0);
  ORBIT2_REQUIRE(weight.dim(1) == cin, "conv2d channel mismatch: input "
                                           << cin << " vs weight "
                                           << weight.dim(1));
  ORBIT2_REQUIRE(weight.dim(2) == spec.kernel_h && weight.dim(3) == spec.kernel_w,
                 "conv2d weight kernel dims disagree with spec");
  ORBIT2_REQUIRE(bias.rank() == 1 && bias.dim(0) == cout,
                 "conv2d bias must be [Cout]");

  const std::int64_t oh = conv2d_out_dim(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t ow = conv2d_out_dim(w, spec.kernel_w, spec.stride, spec.pad);
  ORBIT2_REQUIRE(out.shape() == Shape({cout, oh, ow}),
                 "conv2d_forward_into out shape mismatch");
  const std::int64_t taps = spec.kernel_h * spec.kernel_w;
  const std::int64_t conv_flops = 2 * cout * cin * taps * oh * ow;
  ORBIT2_OBS_SPAN_ARG("conv2d_forward", "tensor", "flops", conv_flops);
  ORBIT2_OBS_COUNT("tensor.conv2d_flops", conv_flops);

  // GEMM k = 0 carries the bias: a bias column in the weights times a row
  // of ones in the columns, so each dot starts from the bias. k = 1 + (ic,
  // ky, kx) follows, the order weight rows already have.
  const std::int64_t kdim = 1 + cin * taps;
  thread_local std::vector<float> weights_scratch;
  float* wmat = grow(weights_scratch, cout * kdim);
  const float* wt = weight.data().data();
  for (std::int64_t oc = 0; oc < cout; ++oc) {
    wmat[oc * kdim] = bias.data()[static_cast<std::size_t>(oc)];
    std::copy(wt + oc * (kdim - 1), wt + (oc + 1) * (kdim - 1),
              wmat + oc * kdim + 1);
  }

  const float* in = input.data().data();
  strip_gemm(wmat, cout, kdim, oh, ow, out.data().data(),
             [&](std::int64_t kq, std::int64_t oy, float* dst) {
               if (kq == 0) {
                 std::fill(dst, dst + ow, 1.0f);
                 return;
               }
               const std::int64_t ic = (kq - 1) / taps;
               const std::int64_t ky = (kq - 1) % taps / spec.kernel_w;
               const std::int64_t kx = (kq - 1) % spec.kernel_w;
               const std::int64_t iy = oy * spec.stride - spec.pad + ky;
               if (iy < 0 || iy >= h) {
                 std::fill(dst, dst + ow, 0.0f);
               } else {
                 gather_row(dst, ow, in + (ic * h + iy) * w, w, spec.stride,
                            kx - spec.pad);
               }
             });
}

Tensor conv2d_backward_input(const Tensor& grad_output, const Tensor& weight,
                             std::int64_t in_h, std::int64_t in_w,
                             const Conv2dSpec& spec) {
  ORBIT2_REQUIRE(grad_output.rank() == 3 && weight.rank() == 4,
                 "conv2d_backward_input rank mismatch");
  const std::int64_t cout = grad_output.dim(0);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  const std::int64_t cin = weight.dim(1);
  ORBIT2_REQUIRE(weight.dim(0) == cout, "conv2d_backward_input channel mismatch");

  // Gather form: gi[ic, iy, ix] = sum over k = (oc, ky, kx) of
  // w[oc, ic, ky, kx] * go[oc, oy, ox] at the unique (oy, ox) that reads
  // (iy, ix) through tap (ky, kx), or 0 when none lies on the stride grid.
  // The weights become a cin x (oc, ky, kx) matrix.
  const std::int64_t taps = spec.kernel_h * spec.kernel_w;
  const std::int64_t kdim = cout * taps;
  thread_local std::vector<float> weights_scratch;
  float* wmat = grow(weights_scratch, cin * kdim);
  const float* wt = weight.data().data();
  for (std::int64_t ic = 0; ic < cin; ++ic) {
    for (std::int64_t oc = 0; oc < cout; ++oc) {
      std::copy(wt + (oc * cin + ic) * taps, wt + (oc * cin + ic + 1) * taps,
                wmat + ic * kdim + oc * taps);
    }
  }

  Tensor grad_input(Shape{cin, in_h, in_w});
  const float* go = grad_output.data().data();
  strip_gemm(wmat, cin, kdim, in_h, in_w, grad_input.data().data(),
             [&](std::int64_t kq, std::int64_t iy, float* dst) {
               const std::int64_t oc = kq / taps;
               const std::int64_t ky = kq % taps / spec.kernel_w;
               const std::int64_t kx = kq % spec.kernel_w;
               const std::int64_t ty = iy + spec.pad - ky;
               if (ty < 0 || ty % spec.stride != 0 || ty / spec.stride >= oh) {
                 std::fill(dst, dst + in_w, 0.0f);
               } else {
                 scatter_row(dst, in_w, go + (oc * oh + ty / spec.stride) * ow,
                             ow, spec.stride, kx - spec.pad);
               }
             });
  return grad_input;
}

void conv2d_backward_params(const Tensor& grad_output, const Tensor& input,
                            Tensor& grad_weight, Tensor& grad_bias,
                            const Conv2dSpec& spec) {
  ORBIT2_REQUIRE(grad_output.rank() == 3 && input.rank() == 3,
                 "conv2d_backward_params rank mismatch");
  const std::int64_t cout = grad_output.dim(0);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  const std::int64_t cin = input.dim(0);
  const std::int64_t h = input.dim(1), w = input.dim(2);
  ORBIT2_REQUIRE(grad_weight.shape() ==
                     Shape({cout, cin, spec.kernel_h, spec.kernel_w}),
                 "grad_weight shape mismatch");
  ORBIT2_REQUIRE(grad_bias.shape() == Shape({cout}), "grad_bias shape mismatch");

  const float* go = grad_output.data().data();
  const float* in = input.data().data();
  float* gw = grad_weight.data().data();
  float* gb = grad_bias.data().data();

  // Each output channel owns disjoint slices of grad_weight/grad_bias, so
  // channels parallelize with no races; the inner accumulation keeps the
  // original serial (oy, ox) order per channel.
  const std::int64_t work_per_oc = oh * ow * cin * spec.kernel_h * spec.kernel_w;
  kernels::parallel_for(
      cout, kernels::grain_for(work_per_oc),
      [&](std::int64_t oc0, std::int64_t oc1) {
        for (std::int64_t oc = oc0; oc < oc1; ++oc) {
          double bias_acc = 0.0;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const float g = go[(oc * oh + oy) * ow + ox];
              bias_acc += g;
              const std::int64_t iy0 = oy * spec.stride - spec.pad;
              const std::int64_t ix0 = ox * spec.stride - spec.pad;
              for (std::int64_t ic = 0; ic < cin; ++ic) {
                const float* in_c = in + ic * h * w;
                float* gw_c =
                    gw + ((oc * cin + ic) * spec.kernel_h) * spec.kernel_w;
                for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
                  const std::int64_t iy = iy0 + ky;
                  if (iy < 0 || iy >= h) continue;
                  for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
                    const std::int64_t ix = ix0 + kx;
                    if (ix < 0 || ix >= w) continue;
                    gw_c[ky * spec.kernel_w + kx] += g * in_c[iy * w + ix];
                  }
                }
              }
            }
          }
          gb[oc] += static_cast<float>(bias_acc);
        }
      });
}

}  // namespace orbit2
