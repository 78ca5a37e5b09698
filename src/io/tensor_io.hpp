#pragma once
// Raw binary tensor files, for persisting compressed results and exchanging
// data with TuckerMPI-style tooling. Format: a small self-describing header
// (magic "RHT1", element kind, order, dims) followed by the entries in the
// library's first-mode-fastest order, little-endian.

#include <cstddef>
#include <string>

#include "dist/dist_tensor.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tucker_tensor.hpp"

namespace rahooi::io {

template <typename T>
void write_tensor(const tensor::Tensor<T>& x, const std::string& path);

template <typename T>
tensor::Tensor<T> read_tensor(const std::string& path);

/// Parallel-style read: every rank opens the file and reads only its own
/// block with strided (seek + contiguous-run) accesses — the single-node
/// stand-in for MPI-IO. The file must contain a tensor whose dims match
/// `global_dims`. Collective over the grid (all ranks must call).
template <typename T>
dist::DistTensor<T> read_dist_tensor(const dist::ProcessorGrid& grid,
                                     const std::vector<la::idx_t>& global_dims,
                                     const std::string& path);

/// Parallel-style write: rank 0 writes the header and presizes the file;
/// each rank then writes its own block's contiguous runs at their global
/// offsets. Collective over the grid. The resulting file is identical to
/// write_tensor of the gathered tensor.
template <typename T>
void write_dist_tensor(const dist::DistTensor<T>& x, const std::string& path);

/// Tucker container: header "RHK1", order, per-mode (n_j, r_j), then the
/// core and each factor in sequence.
template <typename T>
void write_tucker(const tensor::TuckerTensor<T>& t, const std::string& path);

template <typename T>
tensor::TuckerTensor<T> read_tucker(const std::string& path);

/// Element size in bytes (4 = float, 8 = double) recorded in a Tucker
/// file's header, so a reader can pick the read_tucker<T> that accepts it.
std::size_t tucker_element_size(const std::string& path);

}  // namespace rahooi::io
