// Single-layer probes of the traced run. Each probe calls one module's
// public functions on a fixed shape taken from the workloads (the tiny
// Reslim's MLP, a halo-padded 4x4 TILES tile of the 64x128 field, a 16x16
// serving tile, the 64x128 HR grid) and reports its median time; kernel
// probes also report operations and bytes computed from the shapes. Probes
// run with the library's own obs spans off, so per-dispatch span recording
// does not inflate microsecond-scale timings.

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "autograd/variable.hpp"
#include "attention/attention.hpp"
#include "bench.hpp"
#include "bench/common.hpp"
#include "core/debug_check.hpp"
#include "core/kernels.hpp"
#include "fft/fft.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "graph/plan.hpp"
#include "hwsim/workload.hpp"
#include "model/reslim.hpp"
#include "tensor/conv.hpp"
#include "tensor/resize.hpp"
#include "tiles/tiles.hpp"

namespace perfbench {
namespace {

using orbit2::Shape;
using orbit2::Tensor;
namespace kernels = orbit2::kernels;

constexpr int kReps = 31;
// Interior padded tile of the 4x4 split of a 64x128 LR field, halo 2.
constexpr std::int64_t kTileH = 20, kTileW = 36;
constexpr std::int64_t kTokens = (kTileH / 2) * (kTileW / 2);  // patch 2

Tensor uniform(Shape shape, std::uint64_t seed) {
  orbit2::Rng rng(seed);
  return Tensor::uniform(std::move(shape), rng, -1.0f, 1.0f);
}

double gflops(double flop, double ms) { return flop / (ms * 1e6); }

/// Captures `model` on `input` and compiles the plan (the graph layer's
/// capture + planning pass, as PlanCache runs it on a new shape).
std::shared_ptr<const orbit2::graph::Plan> capture(
    const orbit2::model::ReslimModel& model, const Tensor& input) {
  orbit2::autograd::InferenceModeScope no_tape;
  orbit2::graph::CaptureSink sink(input);
  Tensor out;
  {
    orbit2::graph::CaptureScope scope(sink);
    out = model.forward(input).value();
  }
  if (sink.failed()) throw std::runtime_error("capture failed: " + sink.fail_reason());
  return std::make_shared<const orbit2::graph::Plan>(
      orbit2::graph::compile_plan(sink.take(out)));
}

}  // namespace

void layer_probes(const Options& options, Sheet& sheet) {
  const std::size_t threads = kernel_threads();
  const std::uint64_t seed = options.seed;
  const orbit2::model::ModelConfig config = orbit2::bench::bench_model_config(0, 8, 2);
  orbit2::Rng model_rng(42);
  const orbit2::model::ReslimModel model(config, model_rng);

  // ---- core/kernels: dispatch cost and GEMM ---------------------------------
  kernels::set_max_threads(threads);
  {
    ScopedSpan span("probe/dispatch", "perfbench.kernels", 0);
    constexpr int kCalls = 1000;
    sheet.set("kernels.dispatch_empty_us", median_ms(kReps, [] {
                for (int i = 0; i < kCalls; ++i) {
                  kernels::parallel_for(4, 1, [](std::int64_t, std::int64_t) {});
                }
              }) * 1e3 / kCalls, "us");
  }
  kernels::set_max_threads(1);
  {
    // fc1 of the tiny model's MLP on one padded tile's tokens.
    const std::int64_t m = kTokens, k = config.embed_dim, n = config.mlp_hidden();
    const Tensor a = uniform(Shape{m, k}, seed), b = uniform(Shape{k, n}, seed + 1);
    Tensor c(Shape{m, n});
    ScopedSpan span("probe/gemm", "perfbench.kernels", 0);
    const double ms = median_ms(kReps, [&] {
      kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, m, n, k,
                    a.data().data(), b.data().data(), c.data().data());
    });
    const double flop = 2.0 * static_cast<double>(m * n * k);
    sheet.set("kernels.gemm_gflops", gflops(flop, ms), "GFLOP/s");
    sheet.set("kernels.gemm_mflop_computed", flop / 1e6, "MFLOP");
    sheet.set("kernels.gemm_kib_computed",
              4.0 * static_cast<double>(m * k + k * n + m * n) / 1024.0, "KiB");
  }

  // ---- tensor: conv2d forward/backward, bilinear resize ----------------------
  {
    // Residual conv1 (8 -> residual_hidden, 3x3) on the padded LR tile.
    const std::int64_t cin = config.in_channels, cout = config.residual_hidden;
    const Tensor input = uniform(Shape{cin, kTileH, kTileW}, seed + 2);
    const Tensor weight = uniform(Shape{cout, cin, 3, 3}, seed + 3);
    const Tensor bias = uniform(Shape{cout}, seed + 4);
    const orbit2::Conv2dSpec spec;
    Tensor out(Shape{cout, kTileH, kTileW});
    ScopedSpan span("probe/conv2d", "perfbench.tensor", 0);
    const double fwd_ms = median_ms(kReps, [&] {
      orbit2::conv2d_forward_into(input, weight, bias, spec, out);
    });
    const double flop = 2.0 * static_cast<double>(cout * cin * 9 * kTileH * kTileW);
    sheet.set("tensor.conv2d_fwd_gflops", gflops(flop, fwd_ms), "GFLOP/s");
    sheet.set("tensor.conv2d_fwd_mflop_computed", flop / 1e6, "MFLOP");
    sheet.set("tensor.conv2d_fwd_kib_computed",
              4.0 * static_cast<double>(input.numel() + weight.numel() + bias.numel() + out.numel()) /
                  1024.0,
              "KiB");
    Tensor grad_weight = Tensor::zeros(weight.shape()), grad_bias = Tensor::zeros(bias.shape());
    sheet.set("tensor.conv2d_bwd_ms", median_ms(kReps, [&] {
                (void)orbit2::conv2d_backward_input(out, weight, kTileH, kTileW, spec);
                orbit2::conv2d_backward_params(out, input, grad_weight, grad_bias, spec);
              }), "ms");
  }
  {
    // Residual-path upsample of the padded tile to HR.
    const Tensor lr = uniform(Shape{config.out_channels, kTileH, kTileW}, seed + 5);
    Tensor hr(Shape{config.out_channels, kTileH * config.upscale, kTileW * config.upscale});
    ScopedSpan span("probe/resize", "perfbench.tensor", 0);
    sheet.set("tensor.resize_bilinear_ms",
              median_ms(kReps, [&] { orbit2::resize_bilinear_into(lr, hr); }), "ms");
  }

  // ---- attention: flash vs naive at the tile's token count --------------------
  {
    const std::int64_t d = config.embed_dim / config.heads;
    const Tensor q = uniform(Shape{kTokens, d}, seed + 6), k = uniform(Shape{kTokens, d}, seed + 7),
                 v = uniform(Shape{kTokens, d}, seed + 8);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    Tensor out(Shape{kTokens, d}), lse(Shape{kTokens}), scores(Shape{kTokens, kTokens});
    const double flop = 4.0 * static_cast<double>(kTokens * kTokens * d);
    ScopedSpan span("probe/attention", "perfbench.attention", 0);
    sheet.set("attention.flash_fwd_gflops", gflops(flop, median_ms(kReps, [&] {
                orbit2::attention_flash_forward_into(q, k, v, scale, out, lse);
              })), "GFLOP/s");
    sheet.set("attention.naive_fwd_gflops", gflops(flop, median_ms(kReps, [&] {
                orbit2::attention_naive_forward_into(q, k, v, scale, scores, out);
              })), "GFLOP/s");
    sheet.set("attention.fwd_mflop_computed", flop / 1e6, "MFLOP");
    const double flash_bytes = 4.0 * static_cast<double>(4 * kTokens * d + kTokens);
    sheet.set("attention.flash_fwd_kib_computed", flash_bytes / 1024.0, "KiB");
    // The naive kernel also writes the N x N scores and reads them back.
    sheet.set("attention.naive_fwd_kib_computed",
              (flash_bytes + 8.0 * static_cast<double>(kTokens * kTokens)) / 1024.0, "KiB");
  }

  // ---- model: compiled replay of one padded tile vs hwsim FLOPs ---------------
  {
    const Tensor tile = uniform(Shape{config.in_channels, kTileH, kTileW}, seed + 9);
    orbit2::graph::Executor executor(capture(model, tile));
    orbit2::hwsim::WorkloadSpec spec;
    spec.config = config;
    spec.lr_h = kTileH;
    spec.lr_w = kTileW;
    const double flop = orbit2::hwsim::analyze_workload(spec).forward_flops;
    ScopedSpan span("probe/tile_forward", "perfbench.model", 0);
    const double ms = median_ms(kReps, [&] { (void)executor.run(tile); });
    sheet.set("model.tile_forward_gflops", gflops(flop, ms), "GFLOP/s");
    sheet.set("model.tile_forward_mflop_computed", flop / 1e6, "MFLOP");
  }

  // ---- graph: capture, replay at 4 and 1 threads, allocations, arena ----------
  {
    const Tensor tile = uniform(Shape{config.in_channels, 16, 16}, seed + 10);
    kernels::set_max_threads(threads);
    std::shared_ptr<const orbit2::graph::Plan> plan;
    {
      ScopedSpan span("probe/capture", "perfbench.graph", 0);
      sheet.set("graph.capture_ms", median_ms(9, [&] { plan = capture(model, tile); }), "ms");
    }
    orbit2::graph::Executor executor(plan);
    sheet.set("graph.arena_bytes", static_cast<double>(executor.arena_bytes()), "B");
    {
      ScopedSpan span("probe/replay", "perfbench.graph", 0);
      sheet.set("graph.replay_tile16_ms",
                median_ms(kReps, [&] { (void)executor.run(tile); }), "ms");
    }
    {
      constexpr int kCalls = 16;
      orbit2::debug::AllocCountScope allocs;
      for (int i = 0; i < kCalls; ++i) (void)executor.run(tile);
      sheet.set("graph.allocs_per_replay",
                static_cast<double>(allocs.delta()) / kCalls, "count");
    }
    kernels::set_max_threads(1);
    ScopedSpan span("probe/replay_t1", "perfbench.graph", 0);
    sheet.set("graph.replay_tile16_t1_ms",
              median_ms(kReps, [&] { (void)executor.run(tile); }), "ms");
  }
  kernels::set_max_threads(threads);

  // ---- tiles: split/extract/stitch without a model, gradient all-reduce -------
  {
    const orbit2::TileSpec spec{4, 4, 2};
    const Tensor field = uniform(Shape{config.in_channels, 64, 128}, seed + 11);
    const auto regions = orbit2::partition_tiles(64, 128, spec);
    std::vector<Tensor> outputs;
    for (const orbit2::TileRegion& r : regions) {
      outputs.push_back(uniform(
          Shape{config.out_channels, r.pad_h * config.upscale, r.pad_w * config.upscale},
          seed + 12));
    }
    ScopedSpan span("probe/split_stitch", "perfbench.tiles", 0);
    sheet.set("tiles.split_stitch_ms", median_ms(kReps, [&] {
                const auto parts = orbit2::partition_tiles(64, 128, spec);
                for (const orbit2::TileRegion& r : parts) (void)orbit2::extract_tile(field, r);
                (void)orbit2::stitch_tiles(outputs, parts, 64, 128, config.upscale);
              }), "ms");
  }
  {
    // Four replicas, as in train_tiles' 2x2 layout.
    std::vector<std::unique_ptr<orbit2::model::ReslimModel>> replicas;
    std::vector<std::vector<orbit2::autograd::ParamPtr>> params;
    for (int r = 0; r < 4; ++r) {
      orbit2::Rng rng(7);
      replicas.push_back(std::make_unique<orbit2::model::ReslimModel>(config, rng));
      params.push_back(replicas.back()->parameters());
      std::uint64_t i = 0;
      for (const auto& p : params.back()) p->grad = uniform(p->value.shape(), seed + 13 + r * 1000 + i++);
    }
    ScopedSpan span("probe/allreduce", "perfbench.tiles", 0);
    sheet.set("tiles.allreduce_ms",
              median_ms(kReps, [&] { orbit2::allreduce_mean_gradients(params); }), "ms");
  }

  // ---- fft: 2-D transform at the train_tiles HR grid --------------------------
  {
    const Tensor grid = uniform(Shape{64, 128}, seed + 14);
    ScopedSpan span("probe/fft2d", "perfbench.fft", 0);
    sheet.set("fft.fft2d_ms", median_ms(kReps, [&] { (void)orbit2::fft2d(grid); }), "ms");
  }
}

}  // namespace perfbench
