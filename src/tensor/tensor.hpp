#pragma once
// Dense d-way tensor with first-mode-fastest ("generalized column-major")
// layout, matching TuckerMPI's local tensor layout. With this layout the
// mode-1 unfolding is a column-major matrix over the buffer with no copy,
// and the mode-j unfolding decomposes into `right_size(j)` contiguous
// column-major slabs of shape (left_size(j) x dim(j)) — the geometry every
// TTM/Gram kernel in this library is built on.

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/contracts.hpp"
#include "la/matrix.hpp"
#include "metrics/metrics.hpp"

namespace rahooi::tensor {

using la::idx_t;

/// Product of a dimension vector (the tensor's entry count).
inline idx_t volume(const std::vector<idx_t>& dims) {
  return std::accumulate(dims.begin(), dims.end(), idx_t{1},
                         std::multiplies<>());
}

template <typename T>
class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<idx_t> dims) : dims_(std::move(dims)) {
    for (const idx_t d : dims_) {
      RAHOOI_REQUIRE(d >= 0, "tensor dimensions must be nonnegative");
    }
    data_.assign(static_cast<std::size_t>(volume(dims_)), T{});
    mem_.acquire(static_cast<double>(data_.size()) * sizeof(T));
  }

  int ndims() const { return static_cast<int>(dims_.size()); }
  idx_t dim(int j) const { return dims_[j]; }
  const std::vector<idx_t>& dims() const { return dims_; }
  idx_t size() const { return static_cast<idx_t>(data_.size()); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator[](idx_t i) { return data_[static_cast<std::size_t>(i)]; }
  const T& operator[](idx_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// Product of dimensions before mode j (1 if j == 0).
  idx_t left_size(int j) const {
    idx_t p = 1;
    for (int i = 0; i < j; ++i) p *= dims_[i];
    return p;
  }

  /// Product of dimensions after mode j (1 if j == ndims()-1).
  idx_t right_size(int j) const {
    idx_t p = 1;
    for (int i = j + 1; i < ndims(); ++i) p *= dims_[i];
    return p;
  }

  idx_t linear_index(const std::vector<idx_t>& idx) const {
    RAHOOI_DEBUG_ASSERT(static_cast<int>(idx.size()) == ndims());
    idx_t lin = 0, stride = 1;
    for (int j = 0; j < ndims(); ++j) {
      RAHOOI_DEBUG_ASSERT(idx[j] >= 0 && idx[j] < dims_[j]);
      lin += idx[j] * stride;
      stride *= dims_[j];
    }
    return lin;
  }

  T& at(const std::vector<idx_t>& idx) { return (*this)[linear_index(idx)]; }
  const T& at(const std::vector<idx_t>& idx) const {
    return (*this)[linear_index(idx)];
  }

  /// Sum of squared entries accumulated in double (norm^2), over 16 fixed
  /// lanes combined in a fixed order: deterministic, but not the bits of a
  /// single serial accumulator (la::sum_squares).
  double sum_squares() const;

  /// Frobenius-style tensor norm.
  double norm() const;

  /// Slab `s` of the mode-j unfolding geometry: a column-major
  /// (left_size(j) x dim(j)) matrix at offset s * left*dim(j).
  la::ConstMatrixRef<T> slab(int j, idx_t s) const {
    const idx_t left = left_size(j);
    return la::ConstMatrixRef<T>(data() + s * left * dims_[j], left, dims_[j],
                                 left);
  }
  la::MatrixRef<T> slab(int j, idx_t s) {
    const idx_t left = left_size(j);
    return la::MatrixRef<T>{data() + s * left * dims_[j], left, dims_[j],
                            left};
  }

  /// Copy of the leading subtensor with dimensions `sub` (sub[j] <= dim(j)),
  /// used when the rank-adaptive driver truncates the core.
  Tensor leading_subtensor(const std::vector<idx_t>& sub) const;

  /// Moves this tensor's byte accounting to metrics scope `s` (the
  /// DistTensor/dimension-tree layers retag their local blocks; no-op when
  /// metrics are off).
  void set_mem_scope(metrics::MemScope s) { mem_.retag(s); }

 private:
  std::vector<idx_t> dims_;
  std::vector<T> data_;
  // Byte-accounted allocator tag (docs/OBSERVABILITY.md): copies re-acquire
  // under the source's scope, moves transfer the charge with the buffer.
  metrics::TrackedBytes mem_;
};

/// Explicit materialization of the mode-j unfolding as a (dim(j) x
/// left*right) matrix, columns ordered by TuckerMPI/Kolda convention for
/// this layout (left index fastest, then right). Test and small-use helper;
/// production kernels use the slab geometry instead.
template <typename T>
la::Matrix<T> unfold(const Tensor<T>& x, int mode);

}  // namespace rahooi::tensor
