// Synthetic climate data tests: variable catalogue shape, GRF spectral
// behaviour, field statistics, dataset pairing/determinism, normalization
// round trips, latitude weights, file IO, and the prefetch loader.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "data/io.hpp"
#include "data/variables.hpp"
#include "fft/fft.hpp"
#include "tensor/resize.hpp"

namespace orbit2::data {
namespace {

TEST(Variables, CatalogueMatchesPaper) {
  const auto& inputs = era5_input_variables();
  EXPECT_EQ(inputs.size(), 23u);
  EXPECT_EQ(count_kind(inputs, VariableKind::kStatic), 5);
  EXPECT_EQ(count_kind(inputs, VariableKind::kAtmospheric), 12);
  EXPECT_EQ(count_kind(inputs, VariableKind::kSurface), 6);
  EXPECT_EQ(daymet_output_variables().size(), 3u);
}

TEST(Variables, NamesUniqueAndLookupWorks) {
  const auto& inputs = era5_input_variables();
  std::set<std::string> names;
  for (const auto& v : inputs) names.insert(v.name);
  EXPECT_EQ(names.size(), inputs.size());
  EXPECT_EQ(variable_index(inputs, "t2m"),
            static_cast<std::size_t>(17));
  EXPECT_THROW(variable_index(inputs, "no_such_var"), Error);
}

TEST(Grf, ZeroMeanUnitVariance) {
  Rng rng(1);
  Tensor field = gaussian_random_field(64, 64, 3.0f, rng);
  EXPECT_NEAR(field.mean(), 0.0f, 1e-5f);
  EXPECT_NEAR(field.sum_squares() / field.numel(), 1.0f, 1e-4f);
}

TEST(Grf, SpectralSlopeControlsSmoothness) {
  Rng rng1(2), rng2(2);
  Tensor rough = gaussian_random_field(64, 64, 1.0f, rng1);
  Tensor smooth = gaussian_random_field(64, 64, 4.0f, rng2);
  const auto spec_rough = radial_power_spectrum(rough);
  const auto spec_smooth = radial_power_spectrum(smooth);
  // High-frequency fraction of total power must be smaller for high beta.
  auto high_fraction = [](const std::vector<double>& spec) {
    double total = 0.0, high = 0.0;
    for (std::size_t k = 1; k < spec.size(); ++k) {
      total += spec[k];
      if (k >= spec.size() / 2) high += spec[k];
    }
    return high / total;
  };
  EXPECT_LT(high_fraction(spec_smooth), 0.3 * high_fraction(spec_rough));
}

TEST(Grf, DeterministicGivenRngState) {
  Rng a(7), b(7);
  Tensor fa = gaussian_random_field(32, 32, 2.5f, a);
  Tensor fb = gaussian_random_field(32, 32, 2.5f, b);
  for (std::int64_t i = 0; i < fa.numel(); ++i) EXPECT_EQ(fa[i], fb[i]);
}

TEST(Grf, WorksOnNonPowerOfTwoGrids) {
  Rng rng(3);
  Tensor field = gaussian_random_field(30, 45, 3.0f, rng);
  EXPECT_EQ(field.shape(), Shape({30, 45}));
  for (float v : field.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Topography, NormalizedAndDeterministic) {
  Tensor a = synthetic_topography(32, 64, 42);
  Tensor b = synthetic_topography(32, 64, 42);
  Tensor c = synthetic_topography(32, 64, 43);
  EXPECT_NEAR(a.mean(), 0.0f, 1e-4f);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
  float diff = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) diff += std::fabs(a[i] - c[i]);
  EXPECT_GT(diff, 1.0f);
}

TEST(VariableField, GaussianFieldHasCatalogueStats) {
  Rng rng(4);
  const Tensor topo = synthetic_topography(64, 64, 1);
  VariableSpec spec;
  spec.mean = 280.0f;
  spec.stddev = 10.0f;
  spec.spectral_slope = 3.0f;
  spec.topography_coupling = 0.0f;
  Tensor field = generate_variable_field(spec, 64, 64, topo, rng);
  EXPECT_NEAR(field.mean(), 280.0f, 1.5f);
  const float std_est = std::sqrt(
      field.map([&](float v) { return (v - 280.0f) * (v - 280.0f); }).mean());
  EXPECT_NEAR(std_est, 10.0f, 1.0f);
}

TEST(VariableField, TemperatureAnticorrelatedWithTerrain) {
  Rng rng(5);
  const Tensor topo = synthetic_topography(64, 64, 2);
  VariableSpec spec;
  spec.mean = 280.0f;
  spec.stddev = 10.0f;
  spec.topography_coupling = -0.9f;  // lapse rate: cold on mountains
  Tensor field = generate_variable_field(spec, 64, 64, topo, rng);
  double cov = 0.0;
  const float fm = field.mean();
  for (std::int64_t i = 0; i < topo.numel(); ++i) {
    cov += (field[i] - fm) * topo[i];
  }
  EXPECT_LT(cov, 0.0);
}

TEST(VariableField, PrecipitationIsNonNegativeAndIntermittent) {
  Rng rng(6);
  const Tensor topo = synthetic_topography(64, 64, 3);
  VariableSpec spec;
  spec.distribution = Distribution::kLogNormal;
  spec.mean = 2.5f;
  Tensor field = generate_variable_field(spec, 64, 64, topo, rng);
  std::int64_t dry = 0;
  for (float v : field.data()) {
    EXPECT_GE(v, 0.0f);
    dry += (v == 0.0f);
  }
  // Substantial dry fraction (intermittency) but not all dry.
  EXPECT_GT(dry, field.numel() / 5);
  EXPECT_LT(dry, field.numel() * 9 / 10);
}

TEST(Observation, PerturbationPreservesLargeScales) {
  Rng rng(7);
  const Tensor topo = synthetic_topography(64, 64, 4);
  VariableSpec spec;
  spec.mean = 280.0f;
  spec.stddev = 10.0f;
  Rng field_rng(8);
  Tensor truth = generate_variable_field(spec, 64, 64, topo, field_rng);
  Tensor observed = perturb_as_observation(truth, rng);
  // Correlated but not identical.
  double cov = 0.0, var_t = 0.0, var_o = 0.0;
  const float mt = truth.mean(), mo = observed.mean();
  for (std::int64_t i = 0; i < truth.numel(); ++i) {
    cov += (truth[i] - mt) * (observed[i] - mo);
    var_t += (truth[i] - mt) * (truth[i] - mt);
    var_o += (observed[i] - mo) * (observed[i] - mo);
  }
  const double correlation = cov / std::sqrt(var_t * var_o);
  EXPECT_GT(correlation, 0.6);
  EXPECT_LT(correlation, 0.99999);
}

TEST(LatitudeWeights, CosineShapeAndMeanOne) {
  Tensor weights = latitude_weights(64);
  EXPECT_NEAR(weights.mean(), 1.0f, 1e-5f);
  // Poles (first/last rows) lighter than equator (middle).
  EXPECT_LT(weights[0], weights[32]);
  EXPECT_LT(weights[63], weights[31]);
  EXPECT_NEAR(weights[0], weights[63], 1e-5f);  // symmetric
}

TEST(Dataset, ShapesFollowConfig) {
  DatasetConfig config;
  config.hr_h = 32;
  config.hr_w = 64;
  config.upscale = 4;
  SyntheticDataset dataset(config);
  const Sample s = dataset.sample(0);
  EXPECT_EQ(s.input.shape(), Shape({23, 8, 16}));
  EXPECT_EQ(s.target.shape(), Shape({3, 32, 64}));
}

TEST(Dataset, DeterministicPerIndex) {
  DatasetConfig config;
  config.hr_h = 16;
  config.hr_w = 32;
  config.seed = 9;
  SyntheticDataset d1(config), d2(config);
  const Sample a = d1.sample(5);
  const Sample b = d2.sample(5);
  for (std::int64_t i = 0; i < a.input.numel(); ++i) EXPECT_EQ(a.input[i], b.input[i]);
  for (std::int64_t i = 0; i < a.target.numel(); ++i) EXPECT_EQ(a.target[i], b.target[i]);
  const Sample c = d1.sample(6);
  float diff = 0.0f;
  for (std::int64_t i = 0; i < a.input.numel(); ++i) diff += std::fabs(a.input[i] - c.input[i]);
  EXPECT_GT(diff, 1.0f);
}

TEST(Dataset, InputIsCoarsenedFromTargetPhysics) {
  // The precip input channel must equal the area-coarsened precip target.
  DatasetConfig config;
  config.hr_h = 32;
  config.hr_w = 64;
  config.upscale = 4;
  SyntheticDataset dataset(config);
  const Sample s = dataset.sample_physical(3);
  const std::size_t precip_in =
      variable_index(config.input_variables, "total_precipitation");
  const std::size_t precip_out = variable_index(config.output_variables, "prcp");
  Tensor coarse_target = coarsen_area(
      s.target.slice(0, static_cast<std::int64_t>(precip_out), 1), 4);
  Tensor input_channel =
      s.input.slice(0, static_cast<std::int64_t>(precip_in), 1);
  for (std::int64_t i = 0; i < coarse_target.numel(); ++i) {
    EXPECT_NEAR(input_channel[i], coarse_target[i], 1e-4f);
  }
}

TEST(Dataset, FixedRegionSharesTerrain) {
  DatasetConfig config;
  config.hr_h = 16;
  config.hr_w = 32;
  config.fixed_region = true;
  SyntheticDataset dataset(config);
  // Static variables (strong terrain coupling) should correlate strongly
  // across samples when the region is fixed.
  const Sample a = dataset.sample_physical(0);
  const Sample b = dataset.sample_physical(1);
  const Tensor za = a.input.slice(0, 0, 1);  // z_surface
  const Tensor zb = b.input.slice(0, 0, 1);
  double cov = 0.0, va = 0.0, vb = 0.0;
  const float ma = za.mean(), mb = zb.mean();
  for (std::int64_t i = 0; i < za.numel(); ++i) {
    cov += (za[i] - ma) * (zb[i] - mb);
    va += (za[i] - ma) * (za[i] - ma);
    vb += (zb[i] - mb) * (zb[i] - mb);
  }
  EXPECT_GT(cov / std::sqrt(va * vb), 0.5);
}

TEST(Normalizer, RoundTripsExactly) {
  Normalizer norm(daymet_output_variables());
  Rng rng(10);
  Tensor stack = Tensor::randn(Shape{3, 4, 4}, rng, 5.0f).add_scalar(280.0f);
  Tensor original = stack.clone();
  norm.normalize(stack);
  EXPECT_LT(std::fabs(stack.mean()), 30.0f);  // roughly standardized
  norm.denormalize(stack);
  for (std::int64_t i = 0; i < stack.numel(); ++i) {
    EXPECT_NEAR(stack[i], original[i], 1e-3f);
  }
}

TEST(Split, ProportionsAndDisjointness) {
  auto split = split_dataset(1000);
  EXPECT_EQ(split.train.size() + split.val.size() + split.test.size(), 1000u);
  EXPECT_NEAR(static_cast<double>(split.train.size()), 927.0, 1.0);
  EXPECT_GT(split.val.size(), 0u);
  EXPECT_GT(split.test.size(), 0u);
  EXPECT_LT(split.train.back(), split.val.front());
  EXPECT_LT(split.val.back(), split.test.front());
}

TEST(DataIo, SaveLoadRoundTrip) {
  DatasetConfig config;
  config.hr_h = 16;
  config.hr_w = 32;
  SyntheticDataset dataset(config);
  const std::string path = "/tmp/orbit2_test_dataset.o2ds";
  save_dataset(path, dataset, 0, 3);
  FileDataset loaded(path);
  EXPECT_EQ(loaded.size(), 3);
  const Sample original = dataset.sample(1);
  const Sample& restored = loaded.sample(1);
  for (std::int64_t i = 0; i < original.input.numel(); ++i) {
    EXPECT_EQ(restored.input[i], original.input[i]);
  }
  EXPECT_THROW(loaded.sample(3), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace orbit2::data
