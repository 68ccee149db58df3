// train_tiles: closed-loop TILES training, one caller.
//
// TilesTrainer with 2x2 tiles (halo 2) on the regional DAYMET-analogue set
// (HR 64x128, fixed region), batch 2: one train_epoch call over two fresh
// sample indices is one optimizer step, with sample synthesis (GRF/FFT, the
// terrain memo warm) inside it. Steps run in rounds of kRoundSteps from the
// same initial state over the same indices; every round must reproduce the
// first round's losses and replica-0 parameter bytes, with zero replica
// divergence and finite losses. Trainer construction between rounds is
// outside the timed steps.

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "autograd/optim.hpp"
#include "bench.hpp"
#include "bench/common.hpp"
#include "core/kernels.hpp"
#include "data/generator.hpp"
#include "model/loss.hpp"
#include "model/reslim.hpp"
#include "train/tiles_trainer.hpp"

namespace perfbench {
namespace {

using orbit2::Tensor;

constexpr int kSetupReps = 5;
constexpr int kRoundSteps = 4;
const orbit2::TileSpec kTiles{2, 2, 2};

std::unique_ptr<orbit2::train::TilesTrainer> make_trainer() {
  const orbit2::model::ModelConfig config =
      orbit2::bench::bench_model_config(0, 8, 2);
  orbit2::train::TrainerConfig train_config;
  train_config.batch_size = 2;
  return std::make_unique<orbit2::train::TilesTrainer>(
      [config] {
        orbit2::Rng rng(7);
        return std::make_unique<orbit2::model::ReslimModel>(config, rng);
      },
      kTiles, train_config);
}

struct TrainFixture {
  std::unique_ptr<orbit2::data::SyntheticDataset> dataset;
  std::int64_t first_index = 0;
};

/// Dataset + terrain memo (first sample) + trainer replicas.
double setup_fixture(TrainFixture& f, std::uint64_t seed) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    f.dataset = std::make_unique<orbit2::data::SyntheticDataset>(
        orbit2::bench::us_dataset_config(seed));
    (void)f.dataset->sample(0);
    (void)make_trainer();
    seconds.push_back(ms_since(t0) / 1e3);
  }
  f.first_index = static_cast<std::int64_t>(derive_seed(seed, 3) % 100000) * 16 + 1;
  return median(std::move(seconds));
}

std::vector<unsigned char> replica0_bytes(orbit2::train::TilesTrainer& trainer) {
  std::vector<unsigned char> bytes;
  for (const orbit2::autograd::ParamPtr& p : trainer.replica(0).parameters()) {
    const auto* begin = reinterpret_cast<const unsigned char*>(p->value.data().data());
    bytes.insert(bytes.end(), begin, begin + p->numel() * static_cast<std::int64_t>(sizeof(float)));
  }
  return bytes;
}

struct LoopResult {
  LatencySample sample;
  std::int64_t failed = 0;  // steps of rounds that failed verification
  int rounds = 0;
};

LoopResult run_loop(const TrainFixture& f, double seconds, std::int64_t id0) {
  LoopResult result;
  std::vector<double> first_losses;
  std::vector<unsigned char> first_bytes;
  const std::int64_t end_ns = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (result.rounds == 0 || now_ns() < end_ns) {
    auto trainer = make_trainer();
    std::vector<double> losses;
    trainer->set_step_hook([&](std::int64_t, double loss) { losses.push_back(loss); });
    for (int s = 0; s < kRoundSteps; ++s) {
      const std::int64_t a = f.first_index + 2 * s;
      const std::int64_t id = id0 + result.rounds * kRoundSteps + s;
      const std::int64_t steal0 = steal_ticks();
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span("train/step", "perfbench.train", id);
        trainer->train_epoch(*f.dataset, {a, a + 1});
      }
      result.sample.add(ms_since(t0), steal_ticks() - steal0);
    }
    bool ok = losses.size() == static_cast<std::size_t>(kRoundSteps) &&
              trainer->replica_divergence() == 0.0f;
    for (const double loss : losses) ok = ok && std::isfinite(loss);
    const std::vector<unsigned char> bytes = replica0_bytes(*trainer);
    if (result.rounds == 0) {
      first_losses = losses;
      first_bytes = bytes;
    } else {
      ok = ok && bytes == first_bytes && losses.size() == first_losses.size() &&
           std::memcmp(losses.data(), first_losses.data(),
                       losses.size() * sizeof(double)) == 0;
    }
    if (!ok) result.failed += kRoundSteps;
    ++result.rounds;
  }
  return result;
}

void count_ops(const LoopResult& r, Sheet& sheet) {
  sheet.ops(static_cast<std::int64_t>(r.sample.ms.size()), r.failed);
  if (r.failed > 0) sheet.correct = false;
}

}  // namespace

void train_workload(const Options& options, Sheet& sheet) {
  TrainFixture f;
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
    std::fprintf(stderr, "train_tiles: traced p50 %.3f ms (%zu steps), untraced p50 %.3f ms (%zu steps)\n",
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
               "train_tiles: %zu steps in %d rounds (%lld failed), %zu least-stolen: p50 %.3f ms  "
               "p95 %.3f ms  max %.3f ms (all steps: p50 %.3f ms  p95 %.3f ms)\n",
               r.sample.ms.size(), r.rounds, static_cast<long long>(r.failed), ms.size(),
               median(ms), quantile(ms, 0.95), quantile(ms, 1.0), median(r.sample.ms),
               quantile(r.sample.ms, 0.95));
  sheet.set("setup_s", setup_s, "s");
  sheet.set("p50_ms", median(ms), "ms");
  sheet.set("tail_ms", quantile(ms, 0.95), "ms");
  sheet.set("throughput_per_s", static_cast<double>(ms.size()) / (busy_ms / 1e3), "1/s");
  count_ops(r, sheet);
}

void train_layers(const Options& options, Sheet& sheet) {
  TrainFixture f;
  setup_fixture(f, options.seed);

  // Share of a step spent in sample synthesis, from the library's own
  // train/data spans inside traced steps (the only train/data spans yet:
  // this probe runs before any traced workload loop).
  const LoopResult r = [&] {
    TracingScope tracing;
    return run_loop(f, 0.0, 2'000'000);
  }();
  double data_ms = 0.0, step_ms = 0.0;
  for (const orbit2::obs::SpanRecord& span : orbit2::obs::snapshot_spans()) {
    if (span.name == "train/data") data_ms += static_cast<double>(span.dur_ns) / 1e6;
  }
  for (const double ms : r.sample.ms) step_ms += ms;
  sheet.set("data.share_of_step", data_ms / step_ms, "ratio");
  count_ops(r, sheet);

  // Fresh-index sample synthesis, as inside a step.
  std::int64_t index = f.first_index + 1000;
  sheet.set("data.sample_ms", median_ms(5, [&] {
              ScopedSpan span("data/sample", "perfbench.data", index);
              (void)f.dataset->sample(index++);
            }), "ms");

  // One replica at the padded tile shape: forward + loss, autograd
  // backward, AdamW step. Tiles run one per kernel thread with nested
  // kernels inline, so forward and backward are timed at one thread.
  const orbit2::data::Sample sample = f.dataset->sample(f.first_index);
  const auto regions = orbit2::partition_tiles(sample.input.dim(1), sample.input.dim(2), kTiles);
  const orbit2::TileRegion& region = regions.front();
  const std::int64_t up = f.dataset->config().upscale;
  orbit2::TileRegion hr = region;
  hr.pad_y0 *= up;
  hr.pad_x0 *= up;
  hr.pad_h *= up;
  hr.pad_w *= up;
  const Tensor tile_input = orbit2::extract_tile(sample.input, region);
  const Tensor tile_target = orbit2::extract_tile(sample.target, hr);
  const Tensor weights = orbit2::data::latitude_weights(tile_target.dim(1));
  orbit2::Rng rng(7);
  orbit2::model::ReslimModel replica(orbit2::bench::bench_model_config(0, 8, 2), rng);
  orbit2::autograd::AdamW adam(replica.parameters());
  orbit2::model::BayesianLossParams loss_params;
  loss_params.tv_weight = orbit2::train::TrainerConfig{}.tv_weight;

  std::vector<double> forward_ms, backward_ms, optimizer_ms;
  for (int rep = 0; rep < 6; ++rep) {
    orbit2::kernels::set_max_threads(1);
    std::int64_t t0 = now_ns();
    orbit2::autograd::Var loss;
    {
      ScopedSpan span("train/replica_forward", "perfbench.train", rep);
      loss = orbit2::model::bayesian_loss(replica.downscale(tile_input), tile_target,
                                          weights, loss_params);
    }
    forward_ms.push_back(ms_since(t0));
    t0 = now_ns();
    {
      ScopedSpan span("train/replica_backward", "perfbench.train", rep);
      orbit2::autograd::backward(loss);
    }
    backward_ms.push_back(ms_since(t0));
    orbit2::kernels::set_max_threads(kernel_threads());
    t0 = now_ns();
    {
      ScopedSpan span("train/replica_optimizer", "perfbench.train", rep);
      adam.step(1.0f);
    }
    optimizer_ms.push_back(ms_since(t0));
    for (const auto& p : replica.parameters()) p->zero_grad();
  }
  // The first repetition warms lazily sized scratch; drop it.
  forward_ms.erase(forward_ms.begin());
  backward_ms.erase(backward_ms.begin());
  optimizer_ms.erase(optimizer_ms.begin());
  sheet.set("train.forward_ms", median(forward_ms), "ms");
  sheet.set("train.backward_ms", median(backward_ms), "ms");
  sheet.set("train.optimizer_ms", median(optimizer_ms), "ms");
}

}  // namespace perfbench
