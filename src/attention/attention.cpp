#include "attention/attention.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/simd/simd.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace orbit2 {

namespace {

// Approximate FLOP accounting: 2*Nq*Nk*(d + d_v) for a forward pass (score
// GEMM + weighted sum), doubled for a backward pass. Exponentials and
// rescaling are ignored; the counter tracks GEMM-dominated work only.
std::int64_t attention_fwd_flops(std::int64_t nq, std::int64_t nk,
                                 std::int64_t d, std::int64_t dv) {
  return 2 * nq * nk * (d + dv);
}

void check_qkv(const Tensor& q, const Tensor& k, const Tensor& v) {
  ORBIT2_REQUIRE(q.rank() == 2 && k.rank() == 2 && v.rank() == 2,
                 "attention expects rank-2 Q,K,V");
  ORBIT2_REQUIRE(q.dim(1) == k.dim(1), "attention: Q/K head dim mismatch");
  ORBIT2_REQUIRE(k.dim(0) == v.dim(0), "attention: K/V length mismatch");
}

}  // namespace

Tensor attention_naive_forward(const Tensor& q, const Tensor& k,
                               const Tensor& v, float scale,
                               AttentionContext* ctx) {
  check_qkv(q, k, v);
  const std::int64_t naive_flops =
      attention_fwd_flops(q.dim(0), k.dim(0), q.dim(1), v.dim(1));
  ORBIT2_OBS_SPAN_ARG("attention_naive_forward", "attention", "flops",
                      naive_flops);
  ORBIT2_OBS_COUNT("attention.flops", naive_flops);
  Tensor scores = matmul_nt(q, k);          // [Nq, Nk]
  scores.scale_inplace(scale);
  const Tensor probs = softmax_rows(scores);  // [Nq, Nk]
  Tensor output = matmul(probs, v);           // [Nq, d_v]
  if (ctx) {
    ctx->q = q;
    ctx->k = k;
    ctx->v = v;
    ctx->output = output;
    ctx->probs = probs;
    ctx->scale = scale;
    ctx->used_flash = false;
  }
  return output;
}

void attention_naive_forward_into(const Tensor& q, const Tensor& k,
                                  const Tensor& v, float scale,
                                  Tensor& scores_ws, Tensor& out) {
  check_qkv(q, k, v);
  const std::int64_t nq = q.dim(0), nk = k.dim(0);
  const std::int64_t d = q.dim(1), dv = v.dim(1);
  ORBIT2_REQUIRE(scores_ws.shape() == Shape({nq, nk}),
                 "attention_naive_forward_into: scores workspace must be "
                     << nq << "x" << nk);
  ORBIT2_REQUIRE(out.shape() == Shape({nq, dv}),
                 "attention_naive_forward_into: out must be " << nq << "x"
                                                              << dv);
  const std::int64_t naive_flops = attention_fwd_flops(nq, nk, d, dv);
  ORBIT2_OBS_SPAN_ARG("attention_naive_forward", "attention", "flops",
                      naive_flops);
  ORBIT2_OBS_COUNT("attention.flops", naive_flops);
  // Same kernel sequence as attention_naive_forward, minus the allocations:
  // S = Q K^T (gemm NT), S *= scale, P = softmax(S) in place, O = P V.
  kernels::gemm(kernels::Trans::kN, kernels::Trans::kT, nq, nk, d,
                q.data().data(), k.data().data(), scores_ws.data().data());
  scores_ws.scale_inplace(scale);
  softmax_rows_into(scores_ws, scores_ws);
  kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, nq, dv, nk,
                scores_ws.data().data(), v.data().data(), out.data().data());
}

AttentionGrads attention_naive_backward(const AttentionContext& ctx,
                                        const Tensor& grad_output) {
  ORBIT2_REQUIRE(!ctx.used_flash, "context came from flash forward");
  const std::int64_t bwd_flops =
      2 * attention_fwd_flops(ctx.q.dim(0), ctx.k.dim(0), ctx.q.dim(1),
                              ctx.v.dim(1));
  ORBIT2_OBS_SPAN_ARG("attention_naive_backward", "attention", "flops",
                      bwd_flops);
  ORBIT2_OBS_COUNT("attention.flops", bwd_flops);
  const Tensor& probs = ctx.probs;
  // dV = P^T dO
  Tensor dv = matmul_tn(probs, grad_output);
  // dP = dO V^T
  const Tensor dp = matmul_nt(grad_output, ctx.v);
  // dS = softmax' , then scaled.
  Tensor ds = softmax_rows_backward(probs, dp);
  ds.scale_inplace(ctx.scale);
  // dQ = dS K ; dK = dS^T Q
  Tensor dq = matmul(ds, ctx.k);
  Tensor dk = matmul_tn(ds, ctx.q);
  return {std::move(dq), std::move(dk), std::move(dv)};
}

// The blocked online-softmax (flash) kernels parallelize over the dimension
// whose outputs they own — query blocks in the forward and dq pass, key
// blocks in the dk/dv pass — while walking the other dimension serially in
// ascending block order inside each chunk. Every output row is therefore
// produced by exactly one chunk in a fixed accumulation order, making
// results bit-identical for any thread count.

namespace {

/// Shared body of the flash forward: writes the (pre-zeroed) output and the
/// per-row log-sum-exp through raw pointers. Both the eager entry point and
/// the allocation-free _into entry point run exactly this code, which is
/// what makes their results bitwise identical.
void flash_forward_body(const float* pq, const float* pk, const float* pv,
                        float* po, float* plse, std::int64_t nq,
                        std::int64_t nk, std::int64_t d, std::int64_t dv,
                        float scale, const FlashParams& params) {
  const std::int64_t q_blocks = (nq + params.block_q - 1) / params.block_q;
  // Score tiles are GEMM-NT: each score is one ascending-t double dot, the
  // order the GEMM pins. Rescales and the P·V row block route through the
  // simd tier.
  const simd::Ops& sops = simd::ops();
  kernels::parallel_for(q_blocks, 1, [&](std::int64_t qb0, std::int64_t qb1) {
    // Per-thread grow-only scratch: score tile and running row statistics
    // (max m_i, normalizer l_i) for this chunk's query rows only. Every
    // entry read is written earlier in the same block iteration, so reuse
    // across calls cannot leak values — and steady-state replay of a fixed
    // shape allocates nothing.
    thread_local std::vector<float> scores;
    thread_local std::vector<float> row_max;
    thread_local std::vector<float> row_sum;
    const auto tile =
        static_cast<std::size_t>(params.block_q * params.block_kv);
    if (scores.size() < tile) scores.resize(tile);
    if (row_max.size() < static_cast<std::size_t>(params.block_q)) {
      row_max.resize(static_cast<std::size_t>(params.block_q));
      row_sum.resize(static_cast<std::size_t>(params.block_q));
    }
    for (std::int64_t qb = qb0; qb < qb1; ++qb) {
      const std::int64_t q0 = qb * params.block_q;
      const std::int64_t q1 = std::min(nq, q0 + params.block_q);
      std::fill(row_max.begin(),
                row_max.begin() + static_cast<std::size_t>(params.block_q),
                -std::numeric_limits<float>::infinity());
      std::fill(row_sum.begin(),
                row_sum.begin() + static_cast<std::size_t>(params.block_q),
                0.0f);

      for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
        const std::int64_t k1 = std::min(nk, k0 + params.block_kv);
        const std::int64_t bk = k1 - k0;

        // Score tile S = Qb Kb^T * scale, rows bk apart (fits in cache by
        // construction).
        kernels::gemm(kernels::Trans::kN, kernels::Trans::kT, q1 - q0, bk, d,
                      pq + q0 * d, pk + k0 * d, scores.data());
        sops.scale_f32(scores.data(), scale, (q1 - q0) * bk);

        // Online softmax update per row: rescale previous accumulators when
        // a new maximum appears, then fold in this block's contributions.
        for (std::int64_t i = q0; i < q1; ++i) {
          float* srow = scores.data() + (i - q0) * bk;
          float block_max = srow[0];
          for (std::int64_t j = 1; j < bk; ++j) {
            block_max = std::max(block_max, srow[j]);
          }

          const float old_max = row_max[static_cast<std::size_t>(i - q0)];
          const float new_max = std::max(old_max, block_max);
          const float correction =
              (old_max == -std::numeric_limits<float>::infinity())
                  ? 0.0f
                  : std::exp(old_max - new_max);

          float* orow = po + i * dv;
          sops.scale_f32(orow, correction, dv);
          row_sum[static_cast<std::size_t>(i - q0)] *= correction;

          // The score row becomes this block's probabilities.
          for (std::int64_t j = 0; j < bk; ++j) {
            const float p = std::exp(srow[j] - new_max);
            srow[j] = p;
            row_sum[static_cast<std::size_t>(i - q0)] += p;
          }
          row_max[static_cast<std::size_t>(i - q0)] = new_max;
        }
        // O_b += P V_b: each output row still gets its rescale first, then
        // one mul-then-add per key in ascending j.
        sops.pv_rows_f32(po + q0 * dv, dv, scores.data(), bk, pv + k0 * dv, dv,
                         q1 - q0, dv, bk);
      }

      // Final normalization and log-sum-exp bookkeeping for this block.
      for (std::int64_t i = q0; i < q1; ++i) {
        const float l = row_sum[static_cast<std::size_t>(i - q0)];
        ORBIT2_CHECK(l > 0.0f, "flash attention: zero normalizer at row " << i);
        const float inv = 1.0f / l;
        sops.scale_f32(po + i * dv, inv, dv);
        plse[i] = row_max[static_cast<std::size_t>(i - q0)] + std::log(l);
      }
    }
  });
}

}  // namespace

Tensor attention_flash_forward(const Tensor& q, const Tensor& k,
                               const Tensor& v, float scale,
                               AttentionContext* ctx,
                               const FlashParams& params) {
  check_qkv(q, k, v);
  ORBIT2_REQUIRE(params.block_q >= 1 && params.block_kv >= 1,
                 "flash block sizes must be positive");
  const std::int64_t nq = q.dim(0), nk = k.dim(0);
  const std::int64_t d = q.dim(1), dv = v.dim(1);
  const std::int64_t flash_flops = attention_fwd_flops(nq, nk, d, dv);
  ORBIT2_OBS_SPAN_ARG("attention_flash_forward", "attention", "flops",
                      flash_flops);
  ORBIT2_OBS_COUNT("attention.flops", flash_flops);

  Tensor output = Tensor::zeros(Shape{nq, dv});
  Tensor logsumexp(Shape{nq});
  flash_forward_body(q.data().data(), k.data().data(), v.data().data(),
                     output.data().data(), logsumexp.data().data(), nq, nk, d,
                     dv, scale, params);

  if (ctx) {
    ctx->q = q;
    ctx->k = k;
    ctx->v = v;
    ctx->output = output;
    ctx->logsumexp = logsumexp;
    ctx->scale = scale;
    ctx->used_flash = true;
  }
  return output;
}

void attention_flash_forward_into(const Tensor& q, const Tensor& k,
                                  const Tensor& v, float scale, Tensor& out,
                                  Tensor& logsumexp_ws,
                                  const FlashParams& params) {
  check_qkv(q, k, v);
  ORBIT2_REQUIRE(params.block_q >= 1 && params.block_kv >= 1,
                 "flash block sizes must be positive");
  const std::int64_t nq = q.dim(0), nk = k.dim(0);
  const std::int64_t d = q.dim(1), dv = v.dim(1);
  ORBIT2_REQUIRE(out.shape() == Shape({nq, dv}),
                 "attention_flash_forward_into: out must be " << nq << "x"
                                                              << dv);
  ORBIT2_REQUIRE(logsumexp_ws.shape() == Shape({nq}),
                 "attention_flash_forward_into: logsumexp workspace must be ["
                     << nq << "]");
  const std::int64_t flash_flops = attention_fwd_flops(nq, nk, d, dv);
  ORBIT2_OBS_SPAN_ARG("attention_flash_forward", "attention", "flops",
                      flash_flops);
  ORBIT2_OBS_COUNT("attention.flops", flash_flops);

  out.fill(0.0f);  // the body accumulates into the output
  flash_forward_body(q.data().data(), k.data().data(), v.data().data(),
                     out.data().data(), logsumexp_ws.data().data(), nq, nk, d,
                     dv, scale, params);
}

AttentionGrads attention_flash_backward(const AttentionContext& ctx,
                                        const Tensor& grad_output,
                                        const FlashParams& params) {
  ORBIT2_REQUIRE(ctx.used_flash, "context came from naive forward");
  const Tensor& q = ctx.q;
  const Tensor& k = ctx.k;
  const Tensor& v = ctx.v;
  const std::int64_t nq = q.dim(0), nk = k.dim(0);
  const std::int64_t d = q.dim(1), dv = v.dim(1);
  check_same_shape(grad_output, ctx.output, "attention_flash_backward");
  const std::int64_t fbwd_flops = 2 * attention_fwd_flops(nq, nk, d, dv);
  ORBIT2_OBS_SPAN_ARG("attention_flash_backward", "attention", "flops",
                      fbwd_flops);
  ORBIT2_OBS_COUNT("attention.flops", fbwd_flops);

  Tensor dq = Tensor::zeros(q.shape());
  Tensor dk = Tensor::zeros(k.shape());
  Tensor dvt = Tensor::zeros(v.shape());

  const float* pq = q.data().data();
  const float* pk = k.data().data();
  const float* pv = v.data().data();
  const float* po = ctx.output.data().data();
  const float* pgo = grad_output.data().data();
  const float* plse = ctx.logsumexp.data().data();
  float* pdq = dq.data().data();
  float* pdk = dk.data().data();
  float* pdv = dvt.data().data();

  // D_i = rowsum(dO_i * O_i): the softmax-backward dot term, computed once.
  std::vector<float> delta(static_cast<std::size_t>(nq));
  kernels::parallel_for(
      nq, kernels::grain_for(dv), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          double acc = 0.0;
          for (std::int64_t t = 0; t < dv; ++t) {
            acc += static_cast<double>(pgo[i * dv + t]) * po[i * dv + t];
          }
          delta[static_cast<std::size_t>(i)] = static_cast<float>(acc);
        }
      });

  const std::int64_t q_blocks = (nq + params.block_q - 1) / params.block_q;
  const std::int64_t k_blocks = (nk + params.block_kv - 1) / params.block_kv;

  // Fills the tiles for query rows [q0, q1) x keys [k0, k0+bk), rows bk
  // apart: probs from Q, K and the saved logsumexp, and dp = dO V^T — both
  // GEMM-NT score tiles.
  auto recompute_tiles = [&](std::int64_t q0, std::int64_t q1, std::int64_t k0,
                             std::int64_t bk, float* probs, float* dp) {
    kernels::gemm(kernels::Trans::kN, kernels::Trans::kT, q1 - q0, bk, d,
                  pq + q0 * d, pk + k0 * d, probs);
    for (std::int64_t i = q0; i < q1; ++i) {
      float* prow = probs + (i - q0) * bk;
      const float lse = plse[i];
      for (std::int64_t j = 0; j < bk; ++j) {
        prow[j] = std::exp(prow[j] * ctx.scale - lse);
      }
    }
    kernels::gemm(kernels::Trans::kN, kernels::Trans::kT, q1 - q0, bk, dv,
                  pgo + q0 * dv, pv + k0 * dv, dp);
  };
  // Grow-only per-thread tile scratch; recompute_tiles writes every entry
  // the passes read.
  const auto tile = static_cast<std::size_t>(params.block_q * params.block_kv);
  auto tiles_scratch = [tile]() -> std::pair<float*, float*> {
    thread_local std::vector<float> probs;
    thread_local std::vector<float> dp;
    if (probs.size() < tile) probs.resize(tile);
    if (dp.size() < tile) dp.resize(tile);
    return {probs.data(), dp.data()};
  };

  const simd::Ops& sops = simd::ops();

  // Pass 1 — dQ: query blocks own disjoint dq rows; key blocks are walked
  // serially in ascending order inside each chunk.
  kernels::parallel_for(q_blocks, 1, [&](std::int64_t qb0, std::int64_t qb1) {
    const auto [probs, dp] = tiles_scratch();
    for (std::int64_t qb = qb0; qb < qb1; ++qb) {
      const std::int64_t q0 = qb * params.block_q;
      const std::int64_t q1 = std::min(nq, q0 + params.block_q);
      for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
        const std::int64_t bk = std::min(nk, k0 + params.block_kv) - k0;
        recompute_tiles(q0, q1, k0, bk, probs, dp);
        // The probs tile becomes dS_ij = p * (dP_ij - D_i), scaled; then
        // dQ_b += dS K_b, ascending j per row.
        for (std::int64_t i = q0; i < q1; ++i) {
          float* prow = probs + (i - q0) * bk;
          const float* dprow = dp + (i - q0) * bk;
          for (std::int64_t j = 0; j < bk; ++j) {
            prow[j] = prow[j] *
                      (dprow[j] - delta[static_cast<std::size_t>(i)]) *
                      ctx.scale;
          }
        }
        sops.pv_rows_f32(pdq + q0 * d, d, probs, bk, pk + k0 * d, d, q1 - q0,
                         d, bk);
      }
    }
  });

  // Pass 2 — dK, dV: key blocks own disjoint dk/dv rows; query blocks are
  // walked serially in ascending order inside each chunk.
  kernels::parallel_for(k_blocks, 1, [&](std::int64_t kb0, std::int64_t kb1) {
    const auto [probs, dp] = tiles_scratch();
    for (std::int64_t kb = kb0; kb < kb1; ++kb) {
      const std::int64_t k0 = kb * params.block_kv;
      const std::int64_t bk = std::min(nk, k0 + params.block_kv) - k0;
      for (std::int64_t q0 = 0; q0 < nq; q0 += params.block_q) {
        const std::int64_t q1 = std::min(nq, q0 + params.block_q);
        recompute_tiles(q0, q1, k0, bk, probs, dp);
        for (std::int64_t i = q0; i < q1; ++i) {
          const float* prow = probs + (i - q0) * bk;
          const float* dprow = dp + (i - q0) * bk;
          const float* gorow = pgo + i * dv;
          const float* qrow = pq + i * d;
          for (std::int64_t j = 0; j < bk; ++j) {
            const float p = prow[j];
            sops.axpy_f32(pdv + (k0 + j) * dv, gorow, p, dv);
            const float ds = p *
                             (dprow[j] - delta[static_cast<std::size_t>(i)]) *
                             ctx.scale;
            sops.axpy_f32(pdk + (k0 + j) * d, qrow, ds, d);
          }
        }
      }
    }
  });

  return {std::move(dq), std::move(dk), std::move(dvt)};
}

}  // namespace orbit2
