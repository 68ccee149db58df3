#pragma once
// TILES-mode training and inference (paper §III-B).
//
// Each tile is owned by a model replica on its own virtual GPU (kernel
// team thread). Per sample, every replica downscales its halo-padded tile and
// computes the loss on the corresponding target tile; gradients are
// all-reduced (averaged) once per batch — the paper's single low-frequency
// collective — and every replica applies the identical optimizer step, so
// replicas never diverge (an invariant the tests assert).
//
// Resumable like Trainer: full state is checkpointed at optimizer-step
// boundaries (replica-0 parameters + optimizer moments stand in for all
// replicas, which the sync invariant makes exact), and `fit` continues
// bit-identically after `load_state`.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "model/downscaler.hpp"
#include "tiles/tiles.hpp"
#include "train/trainer.hpp"

namespace orbit2::train {

/// Builds one model replica; called once per tile with identical seeds so
/// replicas start in sync.
using ReplicaFactory = std::function<std::unique_ptr<model::Downscaler>()>;

class TilesTrainer {
 public:
  TilesTrainer(ReplicaFactory factory, TileSpec tile_spec,
               TrainerConfig config);

  /// One epoch over `indices`; loss is the tile-mean of replica losses.
  EpochStats train_epoch(const data::SyntheticDataset& dataset,
                         const std::vector<std::int64_t>& indices);

  /// Full run from the current (epoch, cursor) position; writes latest/best
  /// checkpoints when `config.checkpoint_dir` is set.
  EpochStats fit(const data::SyntheticDataset& dataset,
                 const std::vector<std::int64_t>& indices);

  /// Writes a full-state v2 checkpoint of replica 0 (parameters + AdamW
  /// moments + cursor state) atomically to `path`.
  void save_state(const std::string& path) const;

  /// Restores a full-state checkpoint into every replica (load into replica
  /// 0, broadcast parameters, copy optimizer state).
  void load_state(const std::string& path);

  /// Observes optimizer-step boundaries (testing/logging).
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

  /// Tiled inference: each replica downscales its tile, cores are stitched.
  Tensor predict(const Tensor& input) const;

  /// Max |param difference| across replicas (0 when in sync).
  float replica_divergence() const;

  std::size_t replica_count() const { return replicas_.size(); }
  model::Downscaler& replica(std::size_t i) { return *replicas_[i]; }
  /// Replica i's AdamW (all replicas hold identical state in sync runs;
  /// elastic tests compare moments across layouts through this).
  const autograd::AdamW& optimizer(std::size_t i) const {
    return *optimizers_[i];
  }
  std::int64_t global_step() const { return global_step_; }
  std::int64_t epoch() const { return epoch_; }
  std::int64_t sample_cursor() const { return cursor_; }

 private:
  Rng order_rng_for_epoch(std::int64_t epoch) const;
  std::vector<std::int64_t> epoch_order(
      const std::vector<std::int64_t>& indices, Rng& order_rng) const;
  EpochStats run_samples(const data::SyntheticDataset& dataset,
                         const std::vector<std::int64_t>& order,
                         std::int64_t start, CheckpointManager* manager);
  TrainState snapshot_state() const;

  TileSpec tile_spec_;
  TrainerConfig config_;
  std::vector<std::unique_ptr<model::Downscaler>> replicas_;
  std::vector<std::vector<autograd::ParamPtr>> replica_params_;
  std::vector<std::unique_ptr<autograd::AdamW>> optimizers_;
  autograd::CosineSchedule schedule_;
  std::int64_t global_step_ = 0;
  std::int64_t epoch_ = 0;
  std::int64_t cursor_ = 0;
  std::int64_t steps_since_checkpoint_ = 0;
  RngState epoch_rng_state_{};
  std::optional<RngState> pending_order_rng_;
  StepHook step_hook_;
};

}  // namespace orbit2::train
