#pragma once
// Paired LR -> HR downscaling datasets (paper Table I).
//
// A sample is generated at high resolution for every variable, the target
// keeps the HR output variables, and the input is the area-average
// coarsening of all input variables — exactly the 4x refinement pairing the
// paper trains on (622->156 km, 112->28 km, 16->4 km, 28->7 km). Sample i of
// a dataset is fully determined by (config.seed, i): no storage needed, and
// any subset can be regenerated on any worker.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cache.hpp"
#include "data/generator.hpp"
#include "data/variables.hpp"
#include "tensor/tensor.hpp"

namespace orbit2::data {

/// One training pair.
struct Sample {
  Tensor input;   // [Cin, h, w]   coarse resolution, normalized
  Tensor target;  // [Cout, H, W]  fine resolution, normalized
};

struct DatasetConfig {
  /// High-resolution grid (target). Input grid is H/upscale x W/upscale.
  std::int64_t hr_h = 128;
  std::int64_t hr_w = 256;
  std::int64_t upscale = 4;
  std::vector<VariableSpec> input_variables = era5_input_variables();
  std::vector<VariableSpec> output_variables = daymet_output_variables();
  std::uint64_t seed = 0;
  /// Fresh terrain per sample (global pretraining) vs one fixed terrain
  /// (regional fine-tuning over a single geography like the US).
  bool fixed_region = false;
  /// Apply the observation operator to targets (IMERG-style evaluation).
  bool observation_targets = false;

  std::int64_t lr_h() const { return hr_h / upscale; }
  std::int64_t lr_w() const { return hr_w / upscale; }
};

/// Per-variable affine normalization (x - mean) / std.
class Normalizer {
 public:
  /// Statistics straight from the variable catalogue.
  explicit Normalizer(const std::vector<VariableSpec>& catalogue);

  /// Normalizes/denormalizes a [C, H, W] stack in place.
  void normalize(Tensor& stack) const;
  void denormalize(Tensor& stack) const;

  std::size_t channels() const { return means_.size(); }

 private:
  std::vector<float> means_;
  std::vector<float> stds_;
};

/// Deterministic synthetic paired dataset.
class SyntheticDataset {
 public:
  explicit SyntheticDataset(DatasetConfig config);

  /// Generates sample `index` (deterministic, thread-safe: no shared
  /// mutable state). Fields are normalized per variable. The sample's
  /// fields are synthesized concurrently on the kernel worker team, one
  /// field per chunk (serially when called from inside a team chunk); the
  /// bits do not depend on the thread count.
  Sample sample(std::int64_t index) const;

  /// Same sample in physical units (no normalization); used by metrics.
  Sample sample_physical(std::int64_t index) const;

  const DatasetConfig& config() const { return config_; }
  const Normalizer& input_normalizer() const { return input_norm_; }
  const Normalizer& output_normalizer() const { return output_norm_; }

 private:
  Sample build(std::int64_t index, bool normalized) const;

  DatasetConfig config_;
  Normalizer input_norm_;
  Normalizer output_norm_;
  // Terrain memo per terrain seed (grid size is fixed per dataset). With
  // fixed_region the single terrain is computed once and every sample hits;
  // with fresh terrain per sample the cache still bounds repeat cost when
  // the same indices are revisited across epochs. Guarded internally, so
  // sample() stays safe to call from multiple threads; cached tensors are
  // only ever read (build() never writes through the shared handle).
  mutable LruCache<std::uint64_t, Tensor> topo_cache_{8};
};

/// Deterministic train/val/test split over [0, count): the paper splits
/// ERA5 38/2/1 years; we mirror the proportions by index stripes.
struct SplitIndices {
  std::vector<std::int64_t> train;
  std::vector<std::int64_t> val;
  std::vector<std::int64_t> test;
};
SplitIndices split_dataset(std::int64_t count, float train_fraction = 0.927f,
                           float val_fraction = 0.049f);

}  // namespace orbit2::data
