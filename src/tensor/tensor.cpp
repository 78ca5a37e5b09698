#include "tensor/tensor.hpp"

#include <cmath>

namespace rahooi::tensor {

template <typename T>
double Tensor<T>::sum_squares() const {
  // Fixed-lane accumulation: lane l sums the entries i with i mod kLanes ==
  // l in index order, and the lanes are combined by a fixed pairwise tree,
  // so the lanes vectorize and the result stays a fixed function of the
  // data.
  constexpr idx_t kLanes = 16;
  const T* x = data();
  const idx_t n = size();
  double acc[kLanes] = {};
  idx_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (idx_t l = 0; l < kLanes; ++l) {
      const double v = static_cast<double>(x[i + l]);
      acc[l] += v * v;
    }
  }
  for (idx_t l = 0; i < n; ++i, ++l) {
    const double v = static_cast<double>(x[i]);
    acc[l] += v * v;
  }
  for (idx_t w = kLanes / 2; w > 0; w /= 2) {
    for (idx_t l = 0; l < w; ++l) acc[l] += acc[l + w];
  }
  return acc[0];
}

template <typename T>
double Tensor<T>::norm() const {
  return std::sqrt(sum_squares());
}

template <typename T>
Tensor<T> Tensor<T>::leading_subtensor(const std::vector<idx_t>& sub) const {
  RAHOOI_REQUIRE(static_cast<int>(sub.size()) == ndims(),
                 "leading_subtensor: wrong number of dimensions");
  for (int j = 0; j < ndims(); ++j) {
    RAHOOI_REQUIRE(sub[j] >= 0 && sub[j] <= dims_[j],
                   "leading_subtensor: out of range");
  }
  Tensor<T> out(sub);
  if (out.size() == 0) return out;
  std::vector<idx_t> idx(ndims(), 0);
  for (idx_t o = 0; o < out.size(); ++o) {
    out[o] = at(idx);
    for (int j = 0; j < ndims(); ++j) {
      if (++idx[j] < sub[j]) break;
      idx[j] = 0;
    }
  }
  return out;
}

template <typename T>
la::Matrix<T> unfold(const Tensor<T>& x, int mode) {
  RAHOOI_REQUIRE(mode >= 0 && mode < x.ndims(), "unfold: bad mode");
  const idx_t n = x.dim(mode);
  const idx_t left = x.left_size(mode);
  const idx_t right = x.right_size(mode);
  la::Matrix<T> out(n, left * right);
  for (idx_t s = 0; s < right; ++s) {
    auto sl = x.slab(mode, s);
    for (idx_t i = 0; i < n; ++i) {
      for (idx_t l = 0; l < left; ++l) {
        out(i, s * left + l) = sl(l, i);
      }
    }
  }
  return out;
}

#define RAHOOI_INSTANTIATE_TENSOR(T)               \
  template class Tensor<T>;                        \
  template la::Matrix<T> unfold<T>(const Tensor<T>&, int);

RAHOOI_INSTANTIATE_TENSOR(float)
RAHOOI_INSTANTIATE_TENSOR(double)

#undef RAHOOI_INSTANTIATE_TENSOR

}  // namespace rahooi::tensor
