// infer_tiled: closed-loop TILES inference, one caller.
//
// A 64x128 LR field (8 -> 2 channels, 256x512 HR) is split into 4x4 tiles
// with a halo of 2; tiled_apply runs one task per tile on the kernel
// threads, each replaying the tile shape's compiled plan (predict_field),
// and stitches the cores. Inputs cycle through a seeded pool; each stitched
// field is compared bytewise with the eager per-tile downscale of the same
// input, outside the timed call.

#include <cstring>
#include <memory>
#include <vector>

#include "autograd/variable.hpp"
#include "bench.hpp"
#include "bench/common.hpp"
#include "model/reslim.hpp"
#include "tiles/tiles.hpp"

namespace perfbench {
namespace {

using orbit2::Tensor;
using orbit2::TileSpec;

constexpr int kSetupReps = 5;
constexpr std::size_t kInputPool = 4;
constexpr std::int64_t kLrH = 64, kLrW = 128, kUpscale = 4;
const TileSpec kTiles{4, 4, 2};

struct InferFixture {
  std::unique_ptr<orbit2::model::ReslimModel> model;
  std::vector<Tensor> inputs;
  std::vector<Tensor> references;
};

Tensor random_field(std::uint64_t seed) {
  orbit2::Rng rng(seed);
  return Tensor::uniform(orbit2::Shape{8, kLrH, kLrW}, rng, -1.0f, 1.0f);
}

/// One stitched field; per-tile wall times land in `tile_ms` when given.
Tensor run_field(const InferFixture& f, const Tensor& input, std::int64_t id,
                 std::vector<double>* tile_ms) {
  ScopedSpan field_span("tiles/field", "perfbench.infer", id);
  return orbit2::tiled_apply(
      input, kTiles, kUpscale, [&](std::size_t tile, const Tensor& padded) {
        ScopedSpan tile_span("tiles/tile", "perfbench.infer", id);
        const std::int64_t t0 = now_ns();
        Tensor out = f.model->predict_field(padded);
        if (tile_ms != nullptr) (*tile_ms)[tile] = ms_since(t0);
        return out;
      });
}

/// Model build + plan capture for every tile shape (one warm-up field).
double setup_fixture(InferFixture& f, std::uint64_t seed) {
  std::vector<double> seconds;
  const Tensor warm = random_field(derive_seed(seed, 999));
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    orbit2::Rng rng(42);
    f.model = std::make_unique<orbit2::model::ReslimModel>(
        orbit2::bench::bench_model_config(0, 8, 2), rng);
    (void)run_field(f, warm, -1, nullptr);
    seconds.push_back(ms_since(t0) / 1e3);
  }
  f.inputs.clear();
  f.references.clear();
  for (std::size_t k = 0; k < kInputPool; ++k) {
    f.inputs.push_back(random_field(derive_seed(seed, k)));
    f.references.push_back(orbit2::tiled_apply(
        f.inputs.back(), kTiles, kUpscale,
        [&](std::size_t, const Tensor& padded) {
          orbit2::autograd::InferenceModeScope no_tape;  // per pool thread
          return f.model->downscale(padded).value();
        }));
  }
  return median(std::move(seconds));
}

struct LoopResult {
  LatencySample sample;
  std::vector<double> imbalance;  // slowest / mean tile time, per field
  std::int64_t mismatched = 0;
};

LoopResult run_loop(const InferFixture& f, double seconds, std::int64_t id0) {
  LoopResult result;
  std::vector<double> tile_ms(static_cast<std::size_t>(kTiles.tile_count()));
  const std::int64_t end_ns = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t i = 0; result.sample.ms.empty() || now_ns() < end_ns; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % kInputPool;
    const std::int64_t steal0 = steal_ticks();
    const std::int64_t t0 = now_ns();
    const Tensor out = run_field(f, f.inputs[k], id0 + i, &tile_ms);
    result.sample.add(ms_since(t0), steal_ticks() - steal0);
    double sum = 0.0, slowest = 0.0;
    for (const double ms : tile_ms) {
      sum += ms;
      slowest = std::max(slowest, ms);
    }
    result.imbalance.push_back(slowest * static_cast<double>(tile_ms.size()) / sum);
    const Tensor& want = f.references[k];
    if (out.shape() != want.shape() ||
        std::memcmp(out.data().data(), want.data().data(),
                    static_cast<std::size_t>(want.numel()) * sizeof(float)) != 0) {
      ++result.mismatched;
    }
  }
  return result;
}

void count_ops(const LoopResult& r, Sheet& sheet) {
  sheet.ops(static_cast<std::int64_t>(r.sample.ms.size()), r.mismatched);
  if (r.mismatched > 0) sheet.correct = false;
}

}  // namespace

void infer_workload(const Options& options, Sheet& sheet) {
  InferFixture f;
  const double setup_s = setup_fixture(f, options.seed);
  count_ops(run_loop(f, kWarmupSeconds, -1'000'000), sheet);
  if (options.trace) {
    const double seconds = std::min(options.seconds / 2.0, kMaxTracedSeconds);
    const LoopResult traced = [&] {
      TracingScope tracing;
      return run_loop(f, seconds, 0);
    }();
    const LoopResult plain = run_loop(f, seconds, 1'000'000);
    const double traced_ms = median(traced.sample.least_stolen());
    const double plain_ms = median(plain.sample.least_stolen());
    std::fprintf(stderr, "infer_tiled: traced p50 %.3f ms (%zu fields), untraced p50 %.3f ms (%zu fields)\n",
                 traced_ms, traced.sample.ms.size(), plain_ms, plain.sample.ms.size());
    sheet.set("trace.overhead_ms", traced_ms - plain_ms, "ms");
    count_ops(traced, sheet);
    count_ops(plain, sheet);
    return;
  }
  const LoopResult r = run_loop(f, options.seconds, 0);
  const std::vector<double> ms = r.sample.least_stolen();
  double busy_ms = 0.0;
  for (const double v : ms) busy_ms += v;
  std::fprintf(stderr,
               "infer_tiled: %zu fields (%lld mismatched), %zu least-stolen: p50 %.3f ms  "
               "p95 %.3f ms  max %.3f ms (all fields: p50 %.3f ms  p95 %.3f ms)\n",
               r.sample.ms.size(), static_cast<long long>(r.mismatched), ms.size(), median(ms),
               quantile(ms, 0.95), quantile(ms, 1.0), median(r.sample.ms),
               quantile(r.sample.ms, 0.95));
  sheet.set("setup_s", setup_s, "s");
  sheet.set("p50_ms", median(ms), "ms");
  sheet.set("tail_ms", quantile(ms, 0.95), "ms");
  sheet.set("throughput_per_s", static_cast<double>(ms.size()) / (busy_ms / 1e3), "1/s");
  count_ops(r, sheet);
}

void tiles_layers(const Options& options, Sheet& sheet) {
  InferFixture f;
  setup_fixture(f, options.seed);
  const LoopResult r = [&] {
    TracingScope tracing;
    return run_loop(f, 0.5, 2'000'000);
  }();
  sheet.set("tiles.tile_imbalance", median(r.imbalance), "ratio");
  count_ops(r, sheet);
}

}  // namespace perfbench
