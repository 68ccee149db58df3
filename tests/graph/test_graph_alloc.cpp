// Zero-allocation replay contract: at 1 and 4 kernel threads with tracing
// disabled, a warmed-up Executor::run performs ZERO heap allocations — the
// arena owns every temporary, the kernels' scratch is thread-local and
// grow-only, and kernel dispatch itself never touches the heap. Lives in its own binary because ORBIT2_INSTALL_ALLOC_COUNTER
// replaces the global allocator for the whole process.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "autograd/variable.hpp"
#include "core/debug_check.hpp"
#include "core/kernels.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "graph/plan.hpp"
#include "model/reslim.hpp"
#include "model/vit_baseline.hpp"
#include "support/alloc_steady_state.hpp"

ORBIT2_INSTALL_ALLOC_COUNTER();

namespace orbit2::graph {
namespace {

Tensor make_input(std::int64_t c, std::int64_t h, std::int64_t w) {
  Tensor input(Shape{c, h, w});
  float* p = input.data().data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    p[i] = std::sin(0.017f * static_cast<float>(i));
  }
  return input;
}

template <typename Model>
std::shared_ptr<const Plan> compile(const Model& m, const Tensor& input) {
  autograd::InferenceModeScope no_tape;
  CaptureSink sink(input);
  Tensor out;
  {
    CaptureScope scope(sink);
    out = m.forward(input).value();
  }
  EXPECT_FALSE(sink.failed()) << sink.fail_reason();
  return std::make_shared<const Plan>(compile_plan(sink.take(out)));
}

template <typename Model>
void expect_zero_alloc_replay(const Model& m, const Tensor& input) {
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  const std::shared_ptr<const Plan> plan = compile(m, input);
  Executor executor(plan);
  for (std::size_t threads : {1, 4}) {
    kernels::set_max_threads(threads);
    // The warm-up grows the kernels' thread-local scratch (gemm pack
    // buffers, flash rows, resize taps) on every kernel thread to this
    // plan's high-water mark; afterwards replay must touch the heap zero
    // times.
    test::warm_every_kernel_thread([&] { Executor(plan).run(input); });
    const std::int64_t delta =
        test::steady_state_allocs([&] { executor.run(input); });
    EXPECT_EQ(delta, 0) << "steady-state replay allocated at " << threads
                        << " kernel threads";
  }
  kernels::set_max_threads(0);
}

TEST(GraphAlloc, ReslimReplayIsAllocationFree) {
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(1);
  model::ReslimModel model(config, rng);
  expect_zero_alloc_replay(model, make_input(3, 12, 20));
}

TEST(GraphAlloc, ReslimWindowedReplayIsAllocationFree) {
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  config.attention_window = 2;
  Rng rng(2);
  model::ReslimModel model(config, rng);
  expect_zero_alloc_replay(model, make_input(3, 12, 20));
}

TEST(GraphAlloc, ViTReplayIsAllocationFree) {
  model::ModelConfig config = model::preset_tiny();
  config.architecture = model::Architecture::kViTBaseline;
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(3);
  model::ViTBaselineModel model(config, rng);
  expect_zero_alloc_replay(model, make_input(3, 12, 20));
}

TEST(GraphAlloc, EagerForwardAllocatesButReplayDoesNot) {
  // Sanity check on the measurement itself: the eager forward allocates
  // (fresh tensor per op), so a zero reading for replay is meaningful.
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(4);
  model::ReslimModel model(config, rng);
  const Tensor input = make_input(3, 12, 20);

  kernels::set_max_threads(1);
  autograd::InferenceModeScope no_tape;
  (void)model.forward(input).value();  // warm scratch
  std::int64_t eager_delta = 0;
  {
    debug::AllocCountScope scope;
    (void)model.forward(input).value();
    eager_delta = scope.delta();
  }
  kernels::set_max_threads(0);
  EXPECT_GT(eager_delta, 0);
}

}  // namespace
}  // namespace orbit2::graph
