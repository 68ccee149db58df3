#pragma once
// TILES: Tilewise Efficient Sequence Scaling (paper §III-B, Fig 4).
//
// Downscaling is spatially local (the remote-sensing "point spread" effect),
// so TILES partitions each input/output into spatial tiles, runs the model
// independently per tile on a separate GPU — here, a kernel team thread
// acting as a virtual GPU — with self-attention restricted to the tile, then discards
// the halo padding and stitches the cores back together. Restricting
// attention to fixed-size tiles turns the O(N^2) global cost into
// O(N^2 / T), i.e. linear in N for fixed tile size.
//
// Halo padding (clamped at the image border) restores cross-tile context
// for pixels near tile edges; halo width trades accuracy for compute.

#include <functional>
#include <vector>

#include "autograd/variable.hpp"
#include "tensor/tensor.hpp"

namespace orbit2 {

/// Tiling layout: rows x cols tiles with a halo of `halo` input pixels.
struct TileSpec {
  std::int64_t rows = 4;
  std::int64_t cols = 4;
  std::int64_t halo = 2;

  std::int64_t tile_count() const { return rows * cols; }
};

/// One tile: the core region it owns and the padded region it reads.
struct TileRegion {
  // Core (owned) region in input coordinates.
  std::int64_t core_y0 = 0, core_x0 = 0, core_h = 0, core_w = 0;
  // Padded region = core + halo, clamped to the image.
  std::int64_t pad_y0 = 0, pad_x0 = 0, pad_h = 0, pad_w = 0;

  /// Offset of the core within the padded tile.
  std::int64_t core_off_y() const { return core_y0 - pad_y0; }
  std::int64_t core_off_x() const { return core_x0 - pad_x0; }
};

/// Splits an H x W image into spec.rows x spec.cols tiles. H must divide by
/// rows and W by cols (climate grids are chosen to satisfy this, as in the
/// paper's 720x1440 / 16-tile setup).
std::vector<TileRegion> partition_tiles(std::int64_t h, std::int64_t w,
                                        const TileSpec& spec);

/// Extracts the padded region of `region` from a [C, H, W] tensor.
Tensor extract_tile(const Tensor& image, const TileRegion& region);

/// Stitches per-tile outputs back into a [C, H*s, W*s] image, where
/// s = `upscale` is the downscaling refinement factor. Each `outputs[i]`
/// must be the model output for the padded tile i (shape
/// [C, pad_h*s, pad_w*s]); only the upscaled core region is copied out.
/// Tiles stitch in parallel through the shared kernel layer; each tile's
/// core write is declared through debug::WriteRegion, so in
/// ORBIT2_DEBUG_CHECKS builds an overlapping (racy) tile layout throws
/// instead of corrupting the output.
Tensor stitch_tiles(const std::vector<Tensor>& outputs,
                    const std::vector<TileRegion>& regions, std::int64_t h,
                    std::int64_t w, std::int64_t upscale);

/// Runs `process(tile_index, padded_tile)` for every tile on the kernel
/// worker team (one chunk per tile — each team thread is a virtual GPU),
/// then stitches.
Tensor tiled_apply(
    const Tensor& image, const TileSpec& spec, std::int64_t upscale,
    const std::function<Tensor(std::size_t, const Tensor&)>& process);

/// Mean squared difference restricted to pixels within `band` of any tile
/// boundary of the upscaled image; measures residual border artifacts.
float border_band_mse(const Tensor& a, const Tensor& b,
                      const std::vector<TileRegion>& regions,
                      std::int64_t upscale, std::int64_t band);

// ---- Gradient averaging (the TILES collective) ---------------------------
// Each tile trains its own model replica; after the batch, gradients are
// averaged across replicas (one all-reduce per batch — the paper's "minimal
// communication frequency") and every replica applies the same update.

/// Averages gradients elementwise across replicas: replicas[r][p] is
/// parameter p of replica r. All replicas must have identical layouts.
/// After the call every replica holds the mean gradient.
void allreduce_mean_gradients(
    const std::vector<std::vector<autograd::ParamPtr>>& replicas);

/// Copies parameter values from `source` into every replica (broadcast);
/// used to initialize replicas identically.
void broadcast_parameters(
    const std::vector<autograd::ParamPtr>& source,
    const std::vector<std::vector<autograd::ParamPtr>>& replicas);

/// Largest elementwise |difference| across replicas' parameter values;
/// zero when replicas are in sync.
float max_parameter_divergence(
    const std::vector<std::vector<autograd::ParamPtr>>& replicas);

}  // namespace orbit2
