// Data-pipeline determinism suite: the caching + kernel-routing pass must
// leave SyntheticDataset::sample bit-identical to the established reference
// values, invariant to the kernel thread count, and free of aliasing between
// cached state and returned samples. Golden CRC32 hashes below were captured
// from the pre-cache serial implementation; any drift is a correctness
// regression, not a tolerance issue.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/cache.hpp"
#include "core/crc32.hpp"
#include "core/kernels.hpp"
#include "data/dataset.hpp"
#include "tensor/resize.hpp"

namespace orbit2::data {
namespace {

std::uint32_t sample_crc(const Sample& s) {
  Crc32 crc;
  crc.update(s.input.data().data(), s.input.data().size() * sizeof(float));
  crc.update(s.target.data().data(), s.target.data().size() * sizeof(float));
  return crc.value();
}

DatasetConfig small_config(bool fixed_region) {
  DatasetConfig config;
  config.hr_h = 32;
  config.hr_w = 64;
  config.upscale = 4;
  config.seed = 1234;
  config.fixed_region = fixed_region;
  return config;
}

// A catalogue in which no output has an input analogue (no t2m, no
// total_precipitation among the inputs), so every target channel takes the
// fresh-field split, followed by the observation split.
DatasetConfig fresh_output_config(bool fixed_region) {
  DatasetConfig config = small_config(fixed_region);
  const auto& full = era5_input_variables();
  config.input_variables.assign(full.begin(), full.begin() + 5);
  config.input_variables.push_back(full[variable_index(full, "u10")]);
  config.input_variables.push_back(full[variable_index(full, "msl_pressure")]);
  config.observation_targets = true;
  return config;
}

// Reference hashes from the pre-cache, fully serial data pipeline. They pin
// the exact bits of normalized samples across the terrain/filter caches and
// every kernel-layer routed loop (FFT lines, filter multiply, blur rows,
// normalizer, physical_from_anomaly).
TEST(PipelineGolden, FreshTerrainMatchesPreCacheBits) {
  SyntheticDataset dataset(small_config(/*fixed_region=*/false));
  EXPECT_EQ(sample_crc(dataset.sample(0)), 0x9757b96fu);
  EXPECT_EQ(sample_crc(dataset.sample(3)), 0x0edc3d18u);
}

TEST(PipelineGolden, FixedRegionWithObservationTargetsMatchesPreCacheBits) {
  DatasetConfig config = small_config(/*fixed_region=*/true);
  config.observation_targets = true;
  SyntheticDataset dataset(config);
  EXPECT_EQ(sample_crc(dataset.sample(0)), 0x2512bac1u);
  EXPECT_EQ(sample_crc(dataset.sample(1)), 0xfb21a17bu);
}

TEST(PipelineGolden, NonPowerOfTwoGridMatchesPreCacheBits) {
  DatasetConfig config;
  config.hr_h = 24;
  config.hr_w = 36;  // exercises the Bluestein FFT path
  config.upscale = 4;
  config.seed = 77;
  config.fixed_region = true;
  SyntheticDataset dataset(config);
  EXPECT_EQ(sample_crc(dataset.sample(0)), 0x6fa46777u);
  EXPECT_EQ(sample_crc(dataset.sample(2)), 0xd283061cu);
}

// Pinned from the serial per-field build: every output takes the fresh-field
// split, then the observation split, so this fixes the split order the
// analogue paths above never reach.
TEST(PipelineGolden, FreshOutputsWithObservationTargetsMatchSerialBits) {
  SyntheticDataset fixed(fresh_output_config(/*fixed_region=*/true));
  EXPECT_EQ(sample_crc(fixed.sample(0)), 0x54edf92fu);
  EXPECT_EQ(sample_crc(fixed.sample(2)), 0xfb6119a6u);
  SyntheticDataset fresh(fresh_output_config(/*fixed_region=*/false));
  EXPECT_EQ(sample_crc(fresh.sample(0)), 0x8ba890bcu);
  EXPECT_EQ(sample_crc(fresh.sample(2)), 0x0c7d89a7u);
}

// Same (seed, index) must produce the same bits no matter how many kernel
// threads the dispatch layer uses, for the default catalogue and for the
// benchmark's (8 inputs; tmin + prcp outputs).
TEST(PipelineDeterminism, SampleBitsInvariantToThreadCount) {
  const std::vector<std::pair<const char*, DatasetConfig>> configs = {
      {"fresh terrain", small_config(/*fixed_region=*/false)},
      {"fixed region", small_config(/*fixed_region=*/true)},
      {"bench catalogue", bench::us_dataset_config(31)},
  };
  for (const auto& [label, config] : configs) {
    std::vector<std::uint32_t> serial_crcs;
    kernels::set_max_threads(1);
    {
      SyntheticDataset dataset(config);
      for (std::int64_t i = 0; i < 3; ++i) {
        serial_crcs.push_back(sample_crc(dataset.sample(i)));
      }
    }
    for (const std::size_t threads : {2u, 3u, 4u}) {
      kernels::set_max_threads(threads);
      SyntheticDataset dataset(config);
      for (std::int64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(sample_crc(dataset.sample(i)),
                  serial_crcs[static_cast<std::size_t>(i)])
            << label << " threads=" << threads << " index=" << i;
      }
    }
    kernels::set_max_threads(0);
  }
}

// sample() called from inside a team chunk runs its own dispatches inline
// (nested regions are serial) and must still produce the serial bits.
TEST(PipelineDeterminism, SampleInsideTeamChunkMatchesSerialBits) {
  const DatasetConfig config = small_config(/*fixed_region=*/true);
  SyntheticDataset dataset(config);
  constexpr std::int64_t kSamples = 4;
  std::vector<std::uint32_t> expected;
  for (std::int64_t i = 0; i < kSamples; ++i) {
    expected.push_back(sample_crc(dataset.sample(i)));
  }
  kernels::set_max_threads(4);
  std::vector<std::uint32_t> nested(kSamples, 0);
  kernels::parallel_for(kSamples, 1, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      nested[static_cast<std::size_t>(i)] = sample_crc(dataset.sample(i));
    }
  });
  kernels::set_max_threads(0);
  EXPECT_EQ(nested, expected);
}

// A cache hit must be indistinguishable from a cache miss: the first sample
// of a fresh dataset (terrain computed) and a repeat sample on a primed
// dataset (terrain from cache) agree bitwise, as do two datasets built from
// the same config.
TEST(PipelineDeterminism, FixedRegionCacheHitEqualsCacheMiss) {
  const DatasetConfig config = small_config(/*fixed_region=*/true);
  SyntheticDataset cold(config);
  const std::uint32_t miss = sample_crc(cold.sample(0));  // topo computed here
  const std::uint32_t hit = sample_crc(cold.sample(0));   // topo from cache
  EXPECT_EQ(miss, hit);
  SyntheticDataset fresh(config);
  EXPECT_EQ(sample_crc(fresh.sample(0)), miss);
}

// Returned samples own their storage: scribbling on one must not leak into
// the dataset's terrain cache or later samples.
TEST(PipelineDeterminism, ReturnedSamplesDoNotAliasCachedState) {
  SyntheticDataset dataset(small_config(/*fixed_region=*/true));
  const std::uint32_t reference = sample_crc(dataset.sample(0));
  Sample scribbled = dataset.sample(0);
  for (float& v : scribbled.input.data()) v = -1234.5f;
  for (float& v : scribbled.target.data()) v = 5432.1f;
  EXPECT_EQ(sample_crc(dataset.sample(0)), reference);
}

// sample() is documented thread-safe; hammer the shared terrain cache from
// several threads and require every thread to observe identical bits.
TEST(PipelineDeterminism, ConcurrentSamplingIsConsistent) {
  SyntheticDataset dataset(small_config(/*fixed_region=*/true));
  const std::uint32_t expected0 = sample_crc(dataset.sample(0));
  const std::uint32_t expected1 = sample_crc(dataset.sample(1));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int rep = 0; rep < 3; ++rep) {
        if (sample_crc(dataset.sample(0)) != expected0) ++mismatches;
        if (sample_crc(dataset.sample(1)) != expected1) ++mismatches;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Analogue-channel aliasing: with observation_targets off, the prcp target
// plane IS the HR precip input field, so area-coarsening it must reproduce
// the physical input channel exactly. With observation_targets on, the
// perturbation must change the target (while inputs stay identical).
TEST(PipelineAliasing, PrcpAnalogueMatchesInputChannelUnderCoarsening) {
  DatasetConfig config = small_config(/*fixed_region=*/true);
  const auto& inputs = config.input_variables;
  std::size_t precip_src = variable_index(inputs, "total_precipitation");
  std::size_t prcp_out = variable_index(config.output_variables, "prcp");

  SyntheticDataset dataset(config);
  const Sample physical = dataset.sample_physical(0);
  const Tensor target_plane =
      physical.target.slice(0, static_cast<std::int64_t>(prcp_out), 1);
  const Tensor coarse = coarsen_area(target_plane, config.upscale);
  const Tensor input_plane =
      physical.input.slice(0, static_cast<std::int64_t>(precip_src), 1);
  ASSERT_EQ(coarse.shape(), input_plane.shape());
  for (std::int64_t i = 0; i < coarse.numel(); ++i) {
    EXPECT_FLOAT_EQ(coarse.data()[i], input_plane.data()[i]) << "i=" << i;
  }
}

TEST(PipelineAliasing, ObservationTargetsPerturbTargetsButNotInputs) {
  DatasetConfig clean_config = small_config(/*fixed_region=*/true);
  DatasetConfig obs_config = clean_config;
  obs_config.observation_targets = true;
  SyntheticDataset clean(clean_config);
  SyntheticDataset observed(obs_config);

  const Sample a = clean.sample_physical(0);
  const Sample b = observed.sample_physical(0);
  EXPECT_EQ(std::memcmp(a.input.data().data(), b.input.data().data(),
                        a.input.data().size() * sizeof(float)),
            0);
  bool target_changed = false;
  for (std::int64_t i = 0; i < a.target.numel(); ++i) {
    if (a.target.data()[i] != b.target.data()[i]) {
      target_changed = true;
      break;
    }
  }
  EXPECT_TRUE(target_changed);
}

// Mutating one target channel of a returned sample must not bleed into its
// sibling channels or the inputs (slice() copies; nothing aliases).
TEST(PipelineAliasing, TargetChannelsOwnTheirStorage) {
  DatasetConfig config = small_config(/*fixed_region=*/true);
  SyntheticDataset dataset(config);
  Sample s = dataset.sample_physical(0);
  const std::uint32_t input_before = [&] {
    Crc32 crc;
    crc.update(s.input.data().data(), s.input.data().size() * sizeof(float));
    return crc.value();
  }();
  const std::int64_t plane = s.target.dim(1) * s.target.dim(2);
  for (std::int64_t i = 0; i < plane; ++i) s.target.data()[i] = 7.0f;
  Crc32 crc_after;
  crc_after.update(s.input.data().data(), s.input.data().size() * sizeof(float));
  EXPECT_EQ(crc_after.value(), input_before);
}

// ---- LruCache unit coverage -----------------------------------------------

TEST(LruCacheTest, HitReturnsSameEntryAndMissRunsFactory) {
  LruCache<int, int> cache(4);
  int factory_runs = 0;
  auto first = cache.get_or_create(7, [&] {
    ++factory_runs;
    return 70;
  });
  auto second = cache.get_or_create(7, [&] {
    ++factory_runs;
    return 71;  // must not run
  });
  EXPECT_EQ(factory_runs, 1);
  EXPECT_EQ(*second, 70);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  LruCache<int, int> cache(2);
  (void)cache.get_or_create(1, [] { return 10; });
  (void)cache.get_or_create(2, [] { return 20; });
  (void)cache.lookup(1);  // refresh 1; 2 becomes LRU
  (void)cache.get_or_create(3, [] { return 30; });
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, EvictedEntriesSurviveThroughHeldHandles) {
  LruCache<int, std::vector<int>> cache(1);
  auto held = cache.get_or_create(1, [] { return std::vector<int>{1, 2, 3}; });
  (void)cache.get_or_create(2, [] { return std::vector<int>{4}; });
  EXPECT_EQ(cache.lookup(1), nullptr);  // evicted
  ASSERT_EQ(held->size(), 3u);          // but the handle stays valid
  EXPECT_EQ((*held)[2], 3);
}

TEST(LruCacheTest, ConcurrentMissesConvergeOnOneEntry) {
  LruCache<int, int> cache(4);
  std::vector<std::thread> workers;
  std::vector<std::shared_ptr<const int>> results(8);
  for (std::size_t t = 0; t < results.size(); ++t) {
    workers.emplace_back([&cache, &results, t] {
      results[t] = cache.get_or_create(
          5, [] { return 55; });  // value is a pure function of the key
    });
  }
  for (auto& worker : workers) worker.join();
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(*r, 55);
  }
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace orbit2::data
