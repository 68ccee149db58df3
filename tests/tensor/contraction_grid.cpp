// Bitwise reference grid for the contractions that run on kernels::gemm and
// the simd tier's lane-wise GELU.
//
// conv2d forward and backward-input (im2col + GEMM) and flash attention
// (GEMM-NT score tiles, P·V row blocks) must reproduce, byte for byte, the
// direct loop nests they replaced. Those loop nests live on here, serial
// and written with plain loops, as the references. One invocation checks
// one kernel family under one forced ISA and one kernel thread count over a
// grid of shapes; tests/CMakeLists.txt generates one ctest per (kernel,
// ISA, threads) cell.
//
// The gelu family sweeps float bit patterns through the active table's
// gelu_f32 and gelu_backward_f32 against the scalar reference
// (simd::gelu_ref / gelu_grad_ref): every 2^32 pattern at --stride=1, or
// every stride-th pattern plus every branch-boundary pattern otherwise.
// tanh_libm (not a ctest cell: it depends on the host's libm) runs the same
// sweep of simd::tanh_ref against std::tanh.
//
//   contraction_grid --kernel=conv_fwd|conv_bwd_input|flash|gelu|tanh_libm
//                    --isa=scalar|avx2|avx512|neon --threads=N [--stride=S]
//
// Exit 0 when every case matches, 1 on any mismatch (each one is printed),
// 2 on a usage error, 77 when the host cannot run the ISA (ctest SKIP).
//
// The conv inputs avoid the two documented edge cases where the GEMM path
// differs on purpose (Inf/NaN weights on padded taps, a -0.0 bias over
// all-zero products); test_tensor.cpp pins those separately.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "attention/attention.hpp"
#include "core/kernels.hpp"
#include "core/rng.hpp"
#include "core/simd/simd.hpp"
#include "tensor/conv.hpp"
#include "tensor/tensor.hpp"

namespace orbit2 {
namespace {

// ---- references: the direct loop nests the GEMM paths replaced -----------

Tensor ref_conv2d_forward(const Tensor& input, const Tensor& weight,
                          const Tensor& bias, const Conv2dSpec& spec) {
  const std::int64_t cin = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t oh =
      conv2d_out_dim(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t ow =
      conv2d_out_dim(w, spec.kernel_w, spec.stride, spec.pad);
  Tensor out(Shape{cout, oh, ow});
  const float* in = input.data().data();
  const float* wt = weight.data().data();
  float* po = out.data().data();
  for (std::int64_t oc = 0; oc < cout; ++oc) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        double acc = bias.data()[static_cast<std::size_t>(oc)];
        const std::int64_t iy0 = oy * spec.stride - spec.pad;
        const std::int64_t ix0 = ox * spec.stride - spec.pad;
        for (std::int64_t ic = 0; ic < cin; ++ic) {
          const float* in_c = in + ic * h * w;
          const float* wt_c =
              wt + ((oc * cin + ic) * spec.kernel_h) * spec.kernel_w;
          for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
            const std::int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
              const std::int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= w) continue;
              acc += static_cast<double>(in_c[iy * w + ix]) *
                     wt_c[ky * spec.kernel_w + kx];
            }
          }
        }
        po[(oc * oh + oy) * ow + ox] = static_cast<float>(acc);
      }
    }
  }
  return out;
}

Tensor ref_conv2d_backward_input(const Tensor& grad_output,
                                 const Tensor& weight, std::int64_t in_h,
                                 std::int64_t in_w, const Conv2dSpec& spec) {
  const std::int64_t cout = grad_output.dim(0);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  const std::int64_t cin = weight.dim(1);
  Tensor grad_input(Shape{cin, in_h, in_w});
  const float* go = grad_output.data().data();
  const float* wt = weight.data().data();
  float* gi = grad_input.data().data();
  for (std::int64_t ic = 0; ic < cin; ++ic) {
    for (std::int64_t iy = 0; iy < in_h; ++iy) {
      for (std::int64_t ix = 0; ix < in_w; ++ix) {
        double acc = 0.0;
        for (std::int64_t oc = 0; oc < cout; ++oc) {
          const float* go_c = go + oc * oh * ow;
          const float* wt_c =
              wt + ((oc * cin + ic) * spec.kernel_h) * spec.kernel_w;
          for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
            const std::int64_t ty = iy + spec.pad - ky;
            if (ty < 0 || ty % spec.stride != 0) continue;
            const std::int64_t oy = ty / spec.stride;
            if (oy >= oh) continue;
            for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
              const std::int64_t tx = ix + spec.pad - kx;
              if (tx < 0 || tx % spec.stride != 0) continue;
              const std::int64_t ox = tx / spec.stride;
              if (ox >= ow) continue;
              acc += static_cast<double>(go_c[oy * ow + ox]) *
                     wt_c[ky * spec.kernel_w + kx];
            }
          }
        }
        gi[(ic * in_h + iy) * in_w + ix] = static_cast<float>(acc);
      }
    }
  }
  return grad_input;
}

/// Scalar score dot: ascending-t double sum, rounded to float once.
float score_dot(const float* x, const float* y, std::int64_t n) {
  double acc = 0.0;
  for (std::int64_t t = 0; t < n; ++t) {
    acc += static_cast<double>(x[t]) * y[t];
  }
  return static_cast<float>(acc);
}

void axpy(float* y, const float* x, float a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void scale_row(float* y, float a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] *= a;
}

struct FlashForward {
  Tensor out;
  Tensor lse;
};

FlashForward ref_flash_forward(const Tensor& q, const Tensor& k,
                               const Tensor& v, float scale,
                               const FlashParams& params) {
  const std::int64_t nq = q.dim(0), nk = k.dim(0), d = q.dim(1), dv = v.dim(1);
  FlashForward r{Tensor::zeros(Shape{nq, dv}), Tensor(Shape{nq})};
  const float* pq = q.data().data();
  const float* pk = k.data().data();
  const float* pv = v.data().data();
  float* po = r.out.data().data();
  std::vector<float> scores(static_cast<std::size_t>(params.block_kv));
  // Rows are independent, so the query blocking does not enter; the key
  // blocks set where the online softmax rescales.
  for (std::int64_t i = 0; i < nq; ++i) {
    float row_max = -std::numeric_limits<float>::infinity();
    float row_sum = 0.0f;
    float* orow = po + i * dv;
    for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
      const std::int64_t bk = std::min(nk, k0 + params.block_kv) - k0;
      for (std::int64_t j = 0; j < bk; ++j) {
        scores[static_cast<std::size_t>(j)] =
            score_dot(pq + i * d, pk + (k0 + j) * d, d) * scale;
      }
      float block_max = scores[0];
      for (std::int64_t j = 1; j < bk; ++j) {
        block_max = std::max(block_max, scores[static_cast<std::size_t>(j)]);
      }
      const float new_max = std::max(row_max, block_max);
      const float correction =
          row_max == -std::numeric_limits<float>::infinity()
              ? 0.0f
              : std::exp(row_max - new_max);
      scale_row(orow, correction, dv);
      row_sum *= correction;
      for (std::int64_t j = 0; j < bk; ++j) {
        const float p = std::exp(scores[static_cast<std::size_t>(j)] - new_max);
        row_sum += p;
        axpy(orow, pv + (k0 + j) * dv, p, dv);
      }
      row_max = new_max;
    }
    scale_row(orow, 1.0f / row_sum, dv);
    r.lse.data()[static_cast<std::size_t>(i)] = row_max + std::log(row_sum);
  }
  return r;
}

AttentionGrads ref_flash_backward(const Tensor& q, const Tensor& k,
                                  const Tensor& v, const FlashForward& fwd,
                                  const Tensor& grad_output, float scale,
                                  const FlashParams& params) {
  const std::int64_t nq = q.dim(0), nk = k.dim(0), d = q.dim(1), dv = v.dim(1);
  AttentionGrads g{Tensor::zeros(q.shape()), Tensor::zeros(k.shape()),
                   Tensor::zeros(v.shape())};
  const float* pq = q.data().data();
  const float* pk = k.data().data();
  const float* pv = v.data().data();
  const float* pgo = grad_output.data().data();
  const float* plse = fwd.lse.data().data();
  std::vector<float> delta(static_cast<std::size_t>(nq));
  for (std::int64_t i = 0; i < nq; ++i) {
    delta[static_cast<std::size_t>(i)] =
        score_dot(pgo + i * dv, fwd.out.data().data() + i * dv, dv);
  }
  const auto prob = [&](std::int64_t i, std::int64_t j) {
    return std::exp(score_dot(pq + i * d, pk + j * d, d) * scale - plse[i]);
  };
  const auto ds = [&](std::int64_t i, std::int64_t j, float p) {
    return p * (score_dot(pgo + i * dv, pv + j * dv, dv) -
                delta[static_cast<std::size_t>(i)]) *
           scale;
  };
  // dQ: per query row, keys ascending.
  for (std::int64_t i = 0; i < nq; ++i) {
    for (std::int64_t j = 0; j < nk; ++j) {
      axpy(g.dq.data().data() + i * d, pk + j * d, ds(i, j, prob(i, j)), d);
    }
  }
  // dK, dV: per key block, query blocks ascending, then rows, then keys —
  // the order each dk/dv row receives its terms.
  for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
    const std::int64_t k1 = std::min(nk, k0 + params.block_kv);
    for (std::int64_t i = 0; i < nq; ++i) {
      for (std::int64_t j = k0; j < k1; ++j) {
        const float p = prob(i, j);
        axpy(g.dv.data().data() + j * dv, pgo + i * dv, p, dv);
        axpy(g.dk.data().data() + j * d, pq + i * d, ds(i, j, p), d);
      }
    }
  }
  return g;
}

// ---- the grid ---------------------------------------------------------------

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::uniform(std::move(shape), rng, -1.0f, 1.0f);
  // Exact zeros and negative zeros in the operands, where a reassociated or
  // zero-skipping kernel would show.
  float* p = t.data().data();
  for (std::int64_t i = 0; i < t.numel(); i += 7) {
    p[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  }
  return t;
}

bool same_bytes(const Tensor& got, const Tensor& want) {
  const auto bytes = static_cast<std::size_t>(want.numel()) * sizeof(float);
  return got.shape() == want.shape() &&
         std::memcmp(got.data().data(), want.data().data(), bytes) == 0;
}

struct Tally {
  int cases = 0;
  int failures = 0;

  void check(bool ok, const std::string& what) {
    ++cases;
    if (!ok) {
      ++failures;
      std::printf("MISMATCH %s\n", what.c_str());
    }
  }
};

struct ConvCase {
  std::int64_t cin, cout, h, w, kernel, stride, pad;

  std::string name() const {
    return "cin=" + std::to_string(cin) + " cout=" + std::to_string(cout) +
           " hw=" + std::to_string(h) + "x" + std::to_string(w) +
           " k=" + std::to_string(kernel) + " s=" + std::to_string(stride) +
           " p=" + std::to_string(pad);
  }
};

/// Odd and non-power-of-two images; the 47x45 and 3x600 shapes span
/// several im2col strips (whole rows, about 512 pixels each), the latter
/// with one row per strip.
std::vector<ConvCase> conv_cases() {
  const std::int64_t dims[][2] = {{1, 1}, {5, 7}, {20, 36}, {47, 45}, {3, 600}};
  std::vector<ConvCase> cases;
  for (const auto& hw : dims) {
    for (const std::int64_t kernel : {1, 3}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t pad : {0, 1}) {
          if (hw[0] + 2 * pad < kernel || hw[1] + 2 * pad < kernel) continue;
          for (const std::int64_t cin : {1, 2, 8}) {
            for (const std::int64_t cout : {1, 2, 8}) {
              cases.push_back({cin, cout, hw[0], hw[1], kernel, stride, pad});
            }
          }
        }
      }
    }
  }
  return cases;
}

void run_conv(bool backward_input, Tally& tally) {
  std::uint64_t seed = 1;
  for (const ConvCase& c : conv_cases()) {
    const Conv2dSpec spec{c.kernel, c.kernel, c.stride, c.pad};
    const Tensor weight =
        random_tensor(Shape{c.cout, c.cin, c.kernel, c.kernel}, seed++);
    if (!backward_input) {
      const Tensor input = random_tensor(Shape{c.cin, c.h, c.w}, seed++);
      Rng bias_rng(seed++);
      const Tensor bias = Tensor::uniform(Shape{c.cout}, bias_rng, 0.25f, 1.0f);
      tally.check(same_bytes(conv2d_forward(input, weight, bias, spec),
                             ref_conv2d_forward(input, weight, bias, spec)),
                  "conv_fwd " + c.name());
      continue;
    }
    const std::int64_t oh = conv2d_out_dim(c.h, c.kernel, c.stride, c.pad);
    const std::int64_t ow = conv2d_out_dim(c.w, c.kernel, c.stride, c.pad);
    const Tensor grad = random_tensor(Shape{c.cout, oh, ow}, seed++);
    tally.check(
        same_bytes(conv2d_backward_input(grad, weight, c.h, c.w, spec),
                   ref_conv2d_backward_input(grad, weight, c.h, c.w, spec)),
        "conv_bwd_input " + c.name());
  }
}

void run_flash(Tally& tally) {
  // {nq, nk, d, dv, block_q, block_kv}: nq and nk are never multiples of
  // both blocks; d and dv span the P·V blocks' vector remainders (8, 16,
  // 24, 33 against 8- and 16-float vectors); the 180x180 rows are one
  // padded 20x36 TILES tile's tokens.
  const std::int64_t shapes[][6] = {
      {1, 5, 3, 2, 4, 4},       {17, 23, 8, 8, 4, 8},
      {33, 47, 4, 5, 7, 5},     {65, 63, 16, 16, 64, 64},
      {100, 37, 9, 13, 16, 8},  {180, 180, 16, 16, 64, 64},
      {45, 70, 24, 24, 16, 32}, {38, 29, 33, 33, 5, 64},
      {66, 67, 16, 24, 64, 65}, {180, 180, 8, 33, 64, 64}};
  std::uint64_t seed = 100;
  for (const auto& s : shapes) {
    const std::string name =
        "nq=" + std::to_string(s[0]) + " nk=" + std::to_string(s[1]) +
        " d=" + std::to_string(s[2]) + " dv=" + std::to_string(s[3]) +
        " bq=" + std::to_string(s[4]) + " bkv=" + std::to_string(s[5]);
    const Tensor q = random_tensor(Shape{s[0], s[2]}, seed++);
    const Tensor k = random_tensor(Shape{s[1], s[2]}, seed++);
    const Tensor v = random_tensor(Shape{s[1], s[3]}, seed++);
    const Tensor grad = random_tensor(Shape{s[0], s[3]}, seed++);
    const FlashParams params{s[4], s[5]};
    const float scale = 1.0f / std::sqrt(static_cast<float>(s[2]));

    AttentionContext ctx;
    const Tensor out = attention_flash_forward(q, k, v, scale, &ctx, params);
    const FlashForward want = ref_flash_forward(q, k, v, scale, params);
    tally.check(same_bytes(out, want.out), "flash_fwd out " + name);
    tally.check(same_bytes(ctx.logsumexp, want.lse), "flash_fwd lse " + name);

    Tensor out_into(Shape{s[0], s[3]});
    Tensor lse_into(Shape{s[0]});
    attention_flash_forward_into(q, k, v, scale, out_into, lse_into, params);
    tally.check(same_bytes(out_into, want.out), "flash_fwd_into out " + name);

    const AttentionGrads got = attention_flash_backward(ctx, grad, params);
    const AttentionGrads ref =
        ref_flash_backward(q, k, v, want, grad, scale, params);
    tally.check(same_bytes(got.dq, ref.dq), "flash_bwd dq " + name);
    tally.check(same_bytes(got.dk, ref.dk), "flash_bwd dk " + name);
    tally.check(same_bytes(got.dv, ref.dv), "flash_bwd dv " + name);
  }
}

// ---- GELU: bit-pattern sweep against the scalar reference -------------------

// The approximation's tanh argument, in the reference's operation order;
// only used to place boundary patterns, so a contracted copy would merely
// shift them by an ulp.
float gelu_inner(float x) {
  return 0.7978845608028654f * (x + 0.044715f * x * x * x);
}

std::uint32_t bits_of(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

float float_of(std::uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// Smallest non-negative float bit pattern p with pred(p) true; pred must be
/// monotone over [0, 0x7f800000].
template <typename Pred>
std::uint32_t first_pattern(Pred pred) {
  std::uint32_t lo = 0, hi = 0x7f800000u;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Patterns around every branch boundary of the reference, both signs:
/// the x whose tanh argument first reaches each tanh/expm1 threshold (the
/// tanh ones, the expm1 reduction ones on +-2|arg|, and every expm1 k
/// edge), the float class edges, and NaN payloads.
std::vector<std::uint32_t> gelu_boundary_patterns() {
  // Thresholds on |tanh argument| bits.
  std::vector<std::uint32_t> arg_thresholds = {
      0x24000000u, 0x3f800000u, 0x41b00000u, 0x7f800000u,  // tanh
      0x32800000u, 0x3e317218u, 0x3f051592u,  // expm1 of 2|arg|, halved
  };
  // expm1's k = (int)(invln2*a + 0.5) steps up at these a = 2|arg|.
  for (int k = 2; k <= 64; ++k) {
    const std::uint32_t a = first_pattern([k](std::uint32_t p) {
      return static_cast<int>(1.4426950216f * float_of(p) + 0.5f) >= k;
    });
    arg_thresholds.push_back(a - 0x00800000u);  // a / 2
  }
  std::vector<std::uint32_t> out = {
      0x00000000u, 0x00000001u, 0x007fffffu, 0x00800000u, 0x7f7fffffu,
      0x7f800000u, 0x7f800001u, 0x7fc00000u, 0x7fc00001u, 0x7fffffffu,
  };
  for (const std::uint32_t t : arg_thresholds) {
    const std::uint32_t x0 = first_pattern([t](std::uint32_t p) {
      return (bits_of(gelu_inner(float_of(p))) & 0x7fffffffu) >= t;
    });
    for (std::uint32_t d = 0; d <= 6; ++d) {
      if (x0 + d >= 3) out.push_back(x0 + d - 3);
    }
  }
  const std::size_t positive = out.size();
  for (std::size_t i = 0; i < positive; ++i) out.push_back(out[i] | 0x80000000u);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// One batch of x patterns: the library's gelu_f32 and gelu_backward_f32
/// (at each gy) against the per-element scalar reference; tanh_libm checks
/// simd::tanh_ref against std::tanh instead. Returns the mismatch count and
/// prints the first few.
std::int64_t check_gelu_batch(const std::vector<float>& x, bool against_libm,
                              std::atomic<int>& printed) {
  constexpr float kGys[] = {1.0f, -0.75f, 0x1p-140f, 3e38f};
  const auto n = static_cast<std::int64_t>(x.size());
  std::vector<float> got(x.size()), want(x.size()), gy(x.size());
  std::int64_t bad = 0;
  const auto compare = [&](const char* what, float g) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (bits_of(got[i]) == bits_of(want[i])) continue;
      ++bad;
      if (printed.fetch_add(1) < 10) {
        std::printf("MISMATCH %s x=0x%08x gy=%a got=0x%08x want=0x%08x\n",
                    what, bits_of(x[i]), static_cast<double>(g),
                    bits_of(got[i]), bits_of(want[i]));
      }
    }
  };
  if (against_libm) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      got[i] = simd::tanh_ref(x[i]);
      want[i] = std::tanh(x[i]);
    }
    compare("tanh_ref vs std::tanh", 0.0f);
    return bad;
  }
  const simd::Ops& sops = simd::ops();
  got = x;
  sops.gelu_f32(got.data(), n);
  for (std::size_t i = 0; i < x.size(); ++i) want[i] = simd::gelu_ref(x[i]);
  compare("gelu_f32", 0.0f);
  std::vector<float> grad(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    grad[i] = simd::gelu_grad_ref(x[i]);
  }
  for (const float g : kGys) {
    std::fill(gy.begin(), gy.end(), g);
    sops.gelu_backward_f32(got.data(), x.data(), gy.data(), n);
    for (std::size_t i = 0; i < x.size(); ++i) want[i] = g * grad[i];
    compare("gelu_backward_f32", g);
  }
  return bad;
}

void run_gelu(std::uint32_t stride, bool against_libm, Tally& tally) {
  // Batches of swept patterns spread over the kernel threads; the boundary
  // patterns form one extra batch. The batch length is odd, so every batch
  // ends in a partial vector and the tails are exercised too.
  constexpr std::uint64_t kBatch = 4095;
  const std::uint64_t swept = ((std::uint64_t{1} << 32) + stride - 1) / stride;
  const auto batches = static_cast<std::int64_t>((swept + kBatch - 1) / kBatch);
  std::atomic<std::int64_t> mismatches{0};
  std::atomic<int> printed{0};
  kernels::parallel_for(batches + 1, 1, [&](std::int64_t b0, std::int64_t b1) {
    std::vector<float> x;
    for (std::int64_t b = b0; b < b1; ++b) {
      x.clear();
      if (b == batches) {
        for (const std::uint32_t p : gelu_boundary_patterns()) {
          x.push_back(float_of(p));
        }
      } else {
        const std::uint64_t first = static_cast<std::uint64_t>(b) * kBatch;
        const std::uint64_t last = std::min(swept, first + kBatch);
        for (std::uint64_t i = first; i < last; ++i) {
          x.push_back(float_of(static_cast<std::uint32_t>(i * stride)));
        }
      }
      mismatches += check_gelu_batch(x, against_libm, printed);
    }
  });
  std::printf("%llu patterns (stride %u) + boundary set: %lld mismatches\n",
              static_cast<unsigned long long>(swept), stride,
              static_cast<long long>(mismatches.load()));
  tally.check(mismatches.load() == 0,
              against_libm ? "tanh_ref vs std::tanh" : "gelu sweep");
}

int usage() {
  std::fprintf(stderr,
               "usage: contraction_grid "
               "--kernel=conv_fwd|conv_bwd_input|flash|gelu|tanh_libm "
               "--isa=scalar|avx2|avx512|neon --threads=N [--stride=S]\n");
  return 2;
}

}  // namespace
}  // namespace orbit2

int main(int argc, char** argv) {
  using namespace orbit2;
  std::string kernel, isa_text;
  long threads = 0;
  long stride = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--kernel=", 0) == 0) {
      kernel = arg.substr(9);
    } else if (arg.rfind("--isa=", 0) == 0) {
      isa_text = arg.substr(6);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::strtol(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--stride=", 0) == 0) {
      stride = std::strtol(arg.c_str() + 9, nullptr, 10);
    } else {
      return usage();
    }
  }
  simd::Isa isa = simd::Isa::kScalar;
  if (!simd::parse_isa_name(isa_text.c_str(), &isa) || threads < 1 ||
      stride < 1 || stride > 0x7fffffffL) {
    return usage();
  }
  if (!simd::isa_supported(isa)) {
    std::printf("skip: host cannot run isa=%s\n", isa_text.c_str());
    return 77;
  }
  simd::set_isa(isa);
  kernels::set_max_threads(static_cast<std::size_t>(threads));

  Tally tally;
  if (kernel == "conv_fwd" || kernel == "conv_bwd_input") {
    run_conv(kernel == "conv_bwd_input", tally);
  } else if (kernel == "flash") {
    run_flash(tally);
  } else if (kernel == "gelu" || kernel == "tanh_libm") {
    run_gelu(static_cast<std::uint32_t>(stride), kernel == "tanh_libm", tally);
  } else {
    return usage();
  }
  std::printf("%s isa=%s threads=%ld: %d/%d cases bitwise equal to the "
              "reference\n",
              kernel.c_str(), isa_text.c_str(), threads,
              tally.cases - tally.failures, tally.cases);
  return tally.failures == 0 && tally.cases > 0 ? 0 : 1;
}
