#include "io/tensor_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/contracts.hpp"

namespace rahooi::io {

namespace {

constexpr std::uint32_t kTensorMagic = 0x31544852;  // "RHT1"
constexpr std::uint32_t kTuckerMagic = 0x314b4852;  // "RHK1"

template <typename T>
constexpr std::uint32_t element_kind() {
  return sizeof(T) == 4 ? 1u : 2u;  // 1 = float32, 2 = float64
}

void write_u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_i64(std::ofstream& out, std::int64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::ifstream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}

std::int64_t read_i64(std::ifstream& in) {
  std::int64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}

template <typename T>
void write_block(std::ofstream& out, const T* data, std::int64_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

template <typename T>
void read_block(std::ifstream& in, T* data, std::int64_t count) {
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(count * sizeof(T)));
}

}  // namespace

template <typename T>
void write_tensor(const tensor::Tensor<T>& x, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  RAHOOI_REQUIRE(out.good(), "cannot open tensor file for writing: " + path);
  write_u32(out, kTensorMagic);
  write_u32(out, element_kind<T>());
  write_u32(out, static_cast<std::uint32_t>(x.ndims()));
  for (int j = 0; j < x.ndims(); ++j) write_i64(out, x.dim(j));
  write_block(out, x.data(), x.size());
  RAHOOI_REQUIRE(out.good(), "failed writing tensor file: " + path);
}

template <typename T>
tensor::Tensor<T> read_tensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RAHOOI_REQUIRE(in.good(), "cannot open tensor file: " + path);
  RAHOOI_REQUIRE(read_u32(in) == kTensorMagic,
                 "not a rahooi tensor file: " + path);
  RAHOOI_REQUIRE(read_u32(in) == element_kind<T>(),
                 "tensor file element type mismatch: " + path);
  const std::uint32_t d = read_u32(in);
  RAHOOI_REQUIRE(d >= 1 && d <= 16, "corrupt tensor header: " + path);
  std::vector<la::idx_t> dims(d);
  for (auto& v : dims) v = read_i64(in);
  tensor::Tensor<T> x(dims);
  read_block(in, x.data(), x.size());
  RAHOOI_REQUIRE(in.good(), "truncated tensor file: " + path);
  return x;
}

namespace {

// Header size of a tensor file of order d.
std::streamoff tensor_header_bytes(int d) {
  return static_cast<std::streamoff>(3 * sizeof(std::uint32_t) +
                                     d * sizeof(std::int64_t));
}

// Invokes fn(file_offset_elements, run_elements, local_offset_elements) for
// every contiguous run of this rank's block within the global linear
// (first-mode-fastest) element order.
template <typename T, typename Fn>
void for_each_block_run(const dist::DistTensor<T>& x, Fn&& fn) {
  const int d = x.ndims();
  const tensor::Tensor<T>& loc = x.local();
  if (loc.size() == 0) return;
  const la::idx_t run = loc.dim(0);  // mode-0 extent is contiguous in both
  std::vector<la::idx_t> idx(d, 0);  // higher-mode local indices
  std::vector<la::idx_t> offs(d);
  for (int j = 0; j < d; ++j) offs[j] = x.local_offset(j);
  const la::idx_t runs = loc.size() / run;
  for (la::idx_t rr = 0; rr < runs; ++rr) {
    la::idx_t gpos = offs[0];
    la::idx_t stride = x.global_dim(0);
    for (int j = 1; j < d; ++j) {
      gpos += (offs[j] + idx[j]) * stride;
      stride *= x.global_dim(j);
    }
    fn(gpos, run, rr * run);
    for (int j = 1; j < d; ++j) {
      if (++idx[j] < loc.dim(j)) break;
      idx[j] = 0;
    }
  }
}

}  // namespace

template <typename T>
dist::DistTensor<T> read_dist_tensor(const dist::ProcessorGrid& grid,
                                     const std::vector<la::idx_t>& global_dims,
                                     const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RAHOOI_REQUIRE(in.good(), "cannot open tensor file: " + path);
  RAHOOI_REQUIRE(read_u32(in) == kTensorMagic,
                 "not a rahooi tensor file: " + path);
  RAHOOI_REQUIRE(read_u32(in) == element_kind<T>(),
                 "tensor file element type mismatch: " + path);
  const std::uint32_t d = read_u32(in);
  RAHOOI_REQUIRE(d == global_dims.size(),
                 "tensor file order does not match the expected dims");
  for (std::uint32_t j = 0; j < d; ++j) {
    RAHOOI_REQUIRE(read_i64(in) == global_dims[j],
                   "tensor file dimensions do not match the expected dims");
  }

  dist::DistTensor<T> x(grid, global_dims);
  const std::streamoff base = tensor_header_bytes(static_cast<int>(d));
  for_each_block_run(x, [&](la::idx_t gpos, la::idx_t run, la::idx_t lpos) {
    in.seekg(base + static_cast<std::streamoff>(gpos) *
                        static_cast<std::streamoff>(sizeof(T)));
    read_block(in, x.local().data() + lpos, run);
  });
  RAHOOI_REQUIRE(in.good(), "truncated tensor file: " + path);
  return x;
}

template <typename T>
void write_dist_tensor(const dist::DistTensor<T>& x,
                       const std::string& path) {
  const comm::Comm& world = x.grid().world();
  if (world.rank() == 0) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    RAHOOI_REQUIRE(out.good(),
                   "cannot open tensor file for writing: " + path);
    write_u32(out, kTensorMagic);
    write_u32(out, element_kind<T>());
    write_u32(out, static_cast<std::uint32_t>(x.ndims()));
    for (int j = 0; j < x.ndims(); ++j) write_i64(out, x.global_dim(j));
    // Presize so every rank can seek-write its disjoint runs.
    const std::streamoff total =
        tensor_header_bytes(x.ndims()) +
        static_cast<std::streamoff>(x.global_size()) *
            static_cast<std::streamoff>(sizeof(T));
    out.seekp(total - 1);
    const char zero = 0;
    out.write(&zero, 1);
    RAHOOI_REQUIRE(out.good(), "failed presizing tensor file: " + path);
  }
  world.barrier();

  std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
  RAHOOI_REQUIRE(out.good(), "cannot reopen tensor file: " + path);
  const std::streamoff base = tensor_header_bytes(x.ndims());
  for_each_block_run(x, [&](la::idx_t gpos, la::idx_t run, la::idx_t lpos) {
    out.seekp(base + static_cast<std::streamoff>(gpos) *
                         static_cast<std::streamoff>(sizeof(T)));
    out.write(reinterpret_cast<const char*>(x.local().data() + lpos),
              static_cast<std::streamsize>(run * sizeof(T)));
  });
  RAHOOI_REQUIRE(out.good(), "failed writing tensor file: " + path);
  out.close();
  world.barrier();
}

template <typename T>
void write_tucker(const tensor::TuckerTensor<T>& t, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  RAHOOI_REQUIRE(out.good(), "cannot open Tucker file for writing: " + path);
  write_u32(out, kTuckerMagic);
  write_u32(out, element_kind<T>());
  write_u32(out, static_cast<std::uint32_t>(t.ndims()));
  for (int j = 0; j < t.ndims(); ++j) {
    write_i64(out, t.factors[j].rows());
    write_i64(out, t.factors[j].cols());
  }
  write_block(out, t.core.data(), t.core.size());
  for (const auto& u : t.factors) write_block(out, u.data(), u.size());
  RAHOOI_REQUIRE(out.good(), "failed writing Tucker file: " + path);
}

template <typename T>
tensor::TuckerTensor<T> read_tucker(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RAHOOI_REQUIRE(in.good(), "cannot open Tucker file: " + path);
  RAHOOI_REQUIRE(read_u32(in) == kTuckerMagic,
                 "not a rahooi Tucker file: " + path);
  RAHOOI_REQUIRE(read_u32(in) == element_kind<T>(),
                 "Tucker file element type mismatch: " + path);
  const std::uint32_t d = read_u32(in);
  RAHOOI_REQUIRE(d >= 1 && d <= 16, "corrupt Tucker header: " + path);
  std::vector<la::idx_t> dims(d), ranks(d);
  for (std::uint32_t j = 0; j < d; ++j) {
    dims[j] = read_i64(in);
    ranks[j] = read_i64(in);
  }
  tensor::TuckerTensor<T> t;
  t.core = tensor::Tensor<T>(ranks);
  read_block(in, t.core.data(), t.core.size());
  for (std::uint32_t j = 0; j < d; ++j) {
    la::Matrix<T> u(dims[j], ranks[j]);
    read_block(in, u.data(), u.size());
    t.factors.push_back(std::move(u));
  }
  RAHOOI_REQUIRE(in.good(), "truncated Tucker file: " + path);
  return t;
}

std::size_t tucker_element_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RAHOOI_REQUIRE(in.good(), "cannot open Tucker file: " + path);
  RAHOOI_REQUIRE(read_u32(in) == kTuckerMagic,
                 "not a rahooi Tucker file: " + path);
  // Any other kind is left for read_tucker<float> to reject.
  return read_u32(in) == element_kind<double>() ? sizeof(double)
                                                 : sizeof(float);
}

#define RAHOOI_INSTANTIATE_IO(T)                                          \
  template void write_tensor<T>(const tensor::Tensor<T>&,                 \
                                const std::string&);                      \
  template tensor::Tensor<T> read_tensor<T>(const std::string&);          \
  template dist::DistTensor<T> read_dist_tensor<T>(                       \
      const dist::ProcessorGrid&, const std::vector<la::idx_t>&,          \
      const std::string&);                                                \
  template void write_dist_tensor<T>(const dist::DistTensor<T>&,          \
                                     const std::string&);                 \
  template void write_tucker<T>(const tensor::TuckerTensor<T>&,           \
                                const std::string&);                      \
  template tensor::TuckerTensor<T> read_tucker<T>(const std::string&);

RAHOOI_INSTANTIATE_IO(float)
RAHOOI_INSTANTIATE_IO(double)

#undef RAHOOI_INSTANTIATE_IO

}  // namespace rahooi::io
