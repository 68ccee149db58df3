// Zero-allocation serving contract: at 1 and 4 kernel threads, tracing
// disabled, a warmed plan (pooled executor + compiled plan cached), a
// pre-sized response buffer, and a warmed service (grow-only staging
// scratch), one submit -> poll -> complete cycle performs ZERO heap
// allocations. Lives in its own binary because ORBIT2_INSTALL_ALLOC_COUNTER
// replaces the global allocator for the whole process.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "core/debug_check.hpp"
#include "core/kernels.hpp"
#include "graph/compiled.hpp"
#include "model/reslim.hpp"
#include "serve/clock.hpp"
#include "serve/service.hpp"
#include "support/alloc_steady_state.hpp"

ORBIT2_INSTALL_ALLOC_COUNTER();

namespace orbit2::serve {
namespace {

Tensor make_input(std::int64_t c, std::int64_t h, std::int64_t w) {
  Tensor input(Shape{c, h, w});
  float* p = input.data().data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    p[i] = std::sin(0.017f * static_cast<float>(i));
  }
  return input;
}

TEST(ServeAlloc, SteadyStateRequestIsAllocationFree) {
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(1);
  model::ReslimModel model(config, rng);

  ServiceConfig sc;
  sc.manual = true;
  sc.max_batch = 1;
  SimClock clock;
  Service service(sc, &clock);

  Request request;
  request.model = &model;
  request.input = make_input(3, 12, 20);
  ASSERT_TRUE(service.warm(model, request.input, 1));
  const std::shared_ptr<const graph::CompiledShape> compiled =
      model.compiled_for(request.input);

  for (std::size_t threads : {1, 4}) {
    kernels::set_max_threads(threads);
    // The warm-up compiles nothing new (warm() did) but sizes
    // request.output, grows the service's staging scratch, and grows the
    // kernels' thread-local scratch on every kernel thread to this plan's
    // high-water mark.
    test::warm_every_kernel_thread([&] { (void)compiled->run(request.input); });
    std::int64_t cycles = 0;
    std::int64_t completed = 0;
    const std::int64_t delta = test::steady_state_allocs([&] {
      service.submit(&request);
      service.poll();
      ++cycles;
      completed += request.status() == RequestStatus::kOk ? 1 : 0;
      request.rearm();
    });
    EXPECT_EQ(completed, cycles) << "at " << threads << " kernel threads";
    EXPECT_EQ(delta, 0) << "steady-state serve cycle allocated at "
                        << threads << " kernel threads";
  }
  kernels::set_max_threads(0);
}

TEST(ServeAlloc, RejectionPathIsAllocationFree) {
  // Backpressure must stay allocation-free too: a full queue's rejection
  // is the path that runs exactly when the process is under the most load.
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(2);
  model::ReslimModel model(config, rng);

  kernels::set_max_threads(1);
  ServiceConfig sc;
  sc.manual = true;
  sc.queue_capacity = 1;
  sc.drain_on_stop = false;
  SimClock clock;
  Service service(sc, &clock);

  Request occupant;
  occupant.model = &model;
  occupant.input = make_input(3, 12, 20);
  ASSERT_TRUE(service.submit(&occupant));

  Request rejected;
  rejected.model = &model;
  rejected.input = make_input(3, 12, 20);
  std::int64_t delta = -1;
  {
    debug::AllocCountScope scope;
    service.submit(&rejected);
    delta = scope.delta();
  }
  // Resolve the still-queued occupant while it is alive: the service holds
  // its raw pointer until a terminal status, so stop() must run before the
  // Request objects (declared after `service`) are destroyed.
  service.stop();
  kernels::set_max_threads(0);
  EXPECT_EQ(rejected.status(), RequestStatus::kRejected);
  EXPECT_EQ(occupant.status(), RequestStatus::kRejected);
  EXPECT_EQ(delta, 0) << "admission rejection allocated";
}

}  // namespace
}  // namespace orbit2::serve
