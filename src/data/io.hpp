#pragma once
// Dataset persistence.
//
// A minimal binary container ("O2DS") stores paired samples so trainings
// can run from disk like the paper's pipelines.

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace orbit2::data {

/// Writes samples [first, first+count) of `dataset` to `path`.
void save_dataset(const std::string& path, const SyntheticDataset& dataset,
                  std::int64_t first, std::int64_t count);

/// In-memory dataset loaded from an O2DS file.
class FileDataset {
 public:
  explicit FileDataset(const std::string& path);

  std::int64_t size() const { return static_cast<std::int64_t>(samples_.size()); }
  const Sample& sample(std::int64_t index) const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace orbit2::data
