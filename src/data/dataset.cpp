#include "data/dataset.hpp"

#include <cmath>

#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "tensor/resize.hpp"

namespace orbit2::data {

Normalizer::Normalizer(const std::vector<VariableSpec>& catalogue) {
  means_.reserve(catalogue.size());
  stds_.reserve(catalogue.size());
  for (const auto& spec : catalogue) {
    means_.push_back(spec.mean);
    // Log-normal fields are heavily skewed; their std understates range but
    // keeps the transform affine and invertible, which is all training needs.
    stds_.push_back(spec.stddev > 0 ? spec.stddev : 1.0f);
  }
}

void Normalizer::normalize(Tensor& stack) const {
  ORBIT2_REQUIRE(stack.rank() == 3, "normalize expects [C,H,W]");
  ORBIT2_REQUIRE(stack.dim(0) == static_cast<std::int64_t>(means_.size()),
                 "channel count " << stack.dim(0) << " vs catalogue "
                                  << means_.size());
  const std::int64_t plane = stack.dim(1) * stack.dim(2);
  float* p = stack.data().data();
  for (std::size_t c = 0; c < means_.size(); ++c) {
    const float mean = means_[c];
    const float inv_std = 1.0f / stds_[c];
    float* channel = p + static_cast<std::int64_t>(c) * plane;
    kernels::parallel_for(plane, kernels::grain_for(2),
                          [&](std::int64_t i0, std::int64_t i1) {
                            for (std::int64_t i = i0; i < i1; ++i) {
                              channel[i] = (channel[i] - mean) * inv_std;
                            }
                          });
  }
}

void Normalizer::denormalize(Tensor& stack) const {
  ORBIT2_REQUIRE(stack.rank() == 3, "denormalize expects [C,H,W]");
  ORBIT2_REQUIRE(stack.dim(0) == static_cast<std::int64_t>(means_.size()),
                 "channel count mismatch");
  const std::int64_t plane = stack.dim(1) * stack.dim(2);
  float* p = stack.data().data();
  for (std::size_t c = 0; c < means_.size(); ++c) {
    const float std_c = stds_[c];
    const float mean = means_[c];
    float* channel = p + static_cast<std::int64_t>(c) * plane;
    kernels::parallel_for(plane, kernels::grain_for(2),
                          [&](std::int64_t i0, std::int64_t i1) {
                            for (std::int64_t i = i0; i < i1; ++i) {
                              channel[i] = channel[i] * std_c + mean;
                            }
                          });
  }
}

SyntheticDataset::SyntheticDataset(DatasetConfig config)
    : config_(std::move(config)),
      input_norm_(config_.input_variables),
      output_norm_(config_.output_variables) {
  ORBIT2_REQUIRE(config_.upscale >= 1, "upscale must be >= 1");
  ORBIT2_REQUIRE(config_.hr_h % config_.upscale == 0 &&
                     config_.hr_w % config_.upscale == 0,
                 "HR grid must divide by the upscale factor");
  ORBIT2_REQUIRE(!config_.input_variables.empty() &&
                     !config_.output_variables.empty(),
                 "empty variable catalogue");
}

Sample SyntheticDataset::sample(std::int64_t index) const {
  return build(index, /*normalized=*/true);
}

Sample SyntheticDataset::sample_physical(std::int64_t index) const {
  return build(index, /*normalized=*/false);
}

Sample SyntheticDataset::build(std::int64_t index, bool normalized) const {
  ORBIT2_REQUIRE(index >= 0, "negative sample index");
  ORBIT2_OBS_SPAN_ARG("data/sample_build", "data", "index", index);
  const std::int64_t h = config_.hr_h, w = config_.hr_w;

  // Terrain: shared across samples for a fixed region, fresh otherwise.
  // synthetic_topography is a pure function of (h, w, terrain_seed), so the
  // memo hands back the bit-identical field the direct call would produce.
  const std::uint64_t terrain_seed =
      config_.fixed_region
          ? config_.seed
          : config_.seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1));
  std::shared_ptr<const Tensor> topo_entry = topo_cache_.lookup(terrain_seed);
  if (topo_entry) {
    ORBIT2_OBS_COUNT("data.topo_cache_hits", 1);
  } else {
    ORBIT2_OBS_COUNT("data.topo_cache_misses", 1);
    topo_entry = topo_cache_.get_or_create(
        terrain_seed, [&] { return synthetic_topography(h, w, terrain_seed); });
  }
  const Tensor& topo = *topo_entry;  // read-only below; never written through

  // Weather RNG: unique per (seed, index).
  std::uint64_t sm = config_.seed ^
                     (0xd1b54a32d192ed03ull * static_cast<std::uint64_t>(index + 1));
  Rng weather(splitmix64(sm));

  // Every HR input field is generated; output variables draw from the same
  // weather stream so inputs and targets are physically consistent (e.g.
  // the precip input channel correlates with the prcp target).
  const auto& in_vars = config_.input_variables;
  const auto& out_vars = config_.output_variables;
  const auto n_in = static_cast<std::int64_t>(in_vars.size());
  const auto n_out = static_cast<std::int64_t>(out_vars.size());

  // Where an output variable has an input analogue (same name family), the
  // target reuses the input channel so downscaling is a well-posed inverse
  // task; otherwise a correlated fresh field is generated. Analogue lookup
  // tolerates trimmed catalogues (tests/examples use reduced variable
  // lists): absent analogues fall back to fresh fields.
  auto maybe_index = [&](const char* name) -> std::int64_t {
    for (std::size_t i = 0; i < in_vars.size(); ++i) {
      if (in_vars[i].name == name) return static_cast<std::int64_t>(i);
    }
    return -1;
  };
  const std::int64_t precip_src = maybe_index("total_precipitation");
  const std::int64_t t2m_src = maybe_index("t2m");

  // One job per generated field. Every field's stream is split from
  // `weather` here, serially and in catalogue order, so each field is a
  // pure function of its own Rng and the read-only terrain.
  struct FieldJob {
    const VariableSpec* spec;  // null: a bare GRF (the diurnal range)
    float beta;
    Rng rng;
    Tensor field;
  };
  struct TargetPlan {
    std::int64_t analogue = -1;  // input channel the target starts from
    float diurnal_sign = 0.0f;   // tmin -1, tmax +1, else 0
    std::int64_t job = -1;       // fresh field or diurnal range
    Rng obs_rng;                 // used only with observation_targets
  };
  std::vector<FieldJob> jobs;
  jobs.reserve(in_vars.size() + out_vars.size());
  for (const VariableSpec& spec : in_vars) {
    jobs.push_back({&spec, spec.spectral_slope, weather.split(), Tensor()});
  }
  std::vector<TargetPlan> targets(out_vars.size());
  for (std::size_t v = 0; v < out_vars.size(); ++v) {
    const VariableSpec& spec = out_vars[v];
    TargetPlan& plan = targets[v];
    if (spec.name == "prcp" && precip_src >= 0) {
      plan.analogue = precip_src;
    } else if ((spec.name == "tmin" || spec.name == "tmax") && t2m_src >= 0) {
      // tmin/tmax offset from t2m with a smooth diurnal-range field.
      plan.analogue = t2m_src;
      plan.diurnal_sign = spec.name == "tmin" ? -1.0f : 1.0f;
      plan.job = static_cast<std::int64_t>(jobs.size());
      jobs.push_back({nullptr, 3.5f, weather.split(), Tensor()});
    } else {
      plan.job = static_cast<std::int64_t>(jobs.size());
      jobs.push_back({&spec, spec.spectral_slope, weather.split(), Tensor()});
    }
    if (config_.observation_targets) plan.obs_rng = weather.split();
  }

  // The fields are independent, so one team dispatch runs one field per
  // chunk; the FFT and elementwise dispatches inside each field are nested
  // and run inline, with the same chunk boundaries and therefore the same
  // bits as a serial build.
  kernels::parallel_for(
      static_cast<std::int64_t>(jobs.size()), 1,
      [&](std::int64_t j0, std::int64_t j1) {
        for (std::int64_t j = j0; j < j1; ++j) {
          FieldJob& job = jobs[static_cast<std::size_t>(j)];
          Tensor anomaly = gaussian_random_field(h, w, job.beta, job.rng);
          job.field = job.spec ? physical_from_anomaly(*job.spec, anomaly, topo)
                               : std::move(anomaly);
        }
      });

  const std::int64_t plane = h * w;
  Tensor hr_inputs(Shape{n_in, h, w});
  float* in_dst = hr_inputs.data().data();
  for (std::int64_t v = 0; v < n_in; ++v) {
    const Tensor& field = jobs[static_cast<std::size_t>(v)].field;
    std::copy(field.data().begin(), field.data().end(), in_dst + v * plane);
  }

  Tensor target(Shape{n_out, h, w});
  for (std::int64_t v = 0; v < n_out; ++v) {
    TargetPlan& plan = targets[static_cast<std::size_t>(v)];
    // Tensor::slice copies the analogue channel into fresh storage (it is
    // not a view) and the reshape is a view of that private copy, so the
    // offset below never writes through to hr_inputs.
    Tensor field =
        plan.analogue >= 0
            ? hr_inputs.slice(0, plan.analogue, 1).reshape(Shape{h, w})
            : std::move(jobs[static_cast<std::size_t>(plan.job)].field);
    if (plan.diurnal_sign != 0.0f) {
      float* p = field.data().data();
      const float* d = jobs[static_cast<std::size_t>(plan.job)].field.data().data();
      for (std::int64_t i = 0; i < plane; ++i) {
        p[i] += plan.diurnal_sign * (4.0f + 1.5f * d[i]);
      }
    }
    if (config_.observation_targets) {
      field = perturb_as_observation(field, plan.obs_rng);
    }
    std::copy(field.data().begin(), field.data().end(),
              target.data().begin() + v * plane);
  }

  Sample out;
  out.input = coarsen_area(hr_inputs, config_.upscale);
  out.target = std::move(target);
  if (normalized) {
    input_norm_.normalize(out.input);
    output_norm_.normalize(out.target);
  }
  return out;
}

SplitIndices split_dataset(std::int64_t count, float train_fraction,
                           float val_fraction) {
  ORBIT2_REQUIRE(count >= 0, "negative count");
  ORBIT2_REQUIRE(train_fraction >= 0 && val_fraction >= 0 &&
                     train_fraction + val_fraction <= 1.0f,
                 "invalid split fractions");
  SplitIndices split;
  const auto train_end = static_cast<std::int64_t>(
      std::llround(static_cast<double>(count) * train_fraction));
  const auto val_end = train_end + static_cast<std::int64_t>(std::llround(
                                       static_cast<double>(count) * val_fraction));
  for (std::int64_t i = 0; i < count; ++i) {
    if (i < train_end) {
      split.train.push_back(i);
    } else if (i < val_end) {
      split.val.push_back(i);
    } else {
      split.test.push_back(i);
    }
  }
  return split;
}

}  // namespace orbit2::data
