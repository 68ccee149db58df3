#include "data/io.hpp"

#include <fstream>

namespace orbit2::data {

namespace {

constexpr char kMagic[4] = {'O', '2', 'D', 'S'};
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ofstream& out, std::uint32_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::uint32_t read_u32(std::ifstream& in) {
  std::uint32_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return value;
}

void write_tensor(std::ofstream& out, const Tensor& t) {
  write_u32(out, static_cast<std::uint32_t>(t.rank()));
  for (int i = 0; i < t.rank(); ++i) {
    write_u32(out, static_cast<std::uint32_t>(t.dim(i)));
  }
  out.write(reinterpret_cast<const char*>(t.data().data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

Tensor read_tensor(std::ifstream& in) {
  const std::uint32_t rank = read_u32(in);
  ORBIT2_REQUIRE(rank <= 4, "corrupt O2DS: rank " << rank);
  std::vector<std::int64_t> dims(rank);
  for (auto& d : dims) d = read_u32(in);
  Shape shape;
  switch (rank) {
    case 0: shape = Shape{}; break;
    case 1: shape = Shape{dims[0]}; break;
    case 2: shape = Shape{dims[0], dims[1]}; break;
    case 3: shape = Shape{dims[0], dims[1], dims[2]}; break;
    case 4: shape = Shape{dims[0], dims[1], dims[2], dims[3]}; break;
  }
  Tensor t(shape);
  in.read(reinterpret_cast<char*>(t.data().data()),
          static_cast<std::streamsize>(t.numel() * sizeof(float)));
  ORBIT2_REQUIRE(in.good(), "corrupt O2DS: short tensor payload");
  return t;
}

}  // namespace

void save_dataset(const std::string& path, const SyntheticDataset& dataset,
                  std::int64_t first, std::int64_t count) {
  ORBIT2_REQUIRE(first >= 0 && count >= 0, "invalid sample range");
  std::ofstream out(path, std::ios::binary);
  ORBIT2_REQUIRE(out.good(), "cannot open " << path << " for writing");
  out.write(kMagic, sizeof(kMagic));
  write_u32(out, kVersion);
  write_u32(out, static_cast<std::uint32_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    const Sample s = dataset.sample(first + i);
    write_tensor(out, s.input);
    write_tensor(out, s.target);
  }
  ORBIT2_REQUIRE(out.good(), "short write to " << path);
}

FileDataset::FileDataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ORBIT2_REQUIRE(in.good(), "cannot open " << path);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  ORBIT2_REQUIRE(std::equal(magic, magic + 4, kMagic),
                 "not an O2DS file: " << path);
  const std::uint32_t version = read_u32(in);
  ORBIT2_REQUIRE(version == kVersion, "unsupported O2DS version " << version);
  const std::uint32_t count = read_u32(in);
  samples_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Sample s;
    s.input = read_tensor(in);
    s.target = read_tensor(in);
    samples_.push_back(std::move(s));
  }
}

const Sample& FileDataset::sample(std::int64_t index) const {
  ORBIT2_REQUIRE(index >= 0 && index < size(),
                 "sample index " << index << " out of " << size());
  return samples_[static_cast<std::size_t>(index)];
}

}  // namespace orbit2::data
