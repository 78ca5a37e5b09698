#include "dist/dist_ops.hpp"

#include <algorithm>
#include <numeric>

#include "la/qr.hpp"
#include "metrics/metrics.hpp"
#include "prof/trace.hpp"
#include "tensor/ttm.hpp"

namespace rahooi::dist {

template <typename T>
DistTensor<T> dist_ttm(const DistTensor<T>& x, int mode,
                       la::ConstMatrixRef<T> u) {
  prof::TraceSpan span("dist_ttm", static_cast<std::int64_t>(mode));
  const ProcessorGrid& grid = x.grid();
  RAHOOI_REQUIRE(mode >= 0 && mode < x.ndims(), "dist_ttm: bad mode");
  RAHOOI_REQUIRE(u.rows == x.global_dim(mode),
                 "dist_ttm: factor rows must equal the global mode dim");
  const idx_t r = u.cols;
  const int pj = grid.dim(mode);

  // Local partial: contract this rank's block with its row slice of U,
  // producing the full r extent in `mode`.
  const idx_t my_off = x.local_offset(mode);
  const idx_t my_len = x.local_dim(mode);
  auto u_slice = u.block(my_off, 0, my_len, r);
  tensor::Tensor<T> partial;
  {
    // The partial product is communication scratch, not a live tensor:
    // charge it (and the kernel pack panels underneath) to pack_buffer.
    const metrics::MemScopeGuard pack_scope(metrics::MemScope::pack_buffer);
    partial = tensor::ttm(x.local(), mode, u_slice, la::Op::transpose);
  }

  std::vector<idx_t> out_global = x.global_dims();
  out_global[mode] = r;
  DistTensor<T> y(grid, std::move(out_global));

  if (pj == 1) {
    y.local() = std::move(partial);
    // The moved buffer carries its pack_buffer charge; it just became the
    // result's local block, so re-tag it like the DistTensor ctor would.
    y.local().set_mem_scope(metrics::dist_scope());
    return y;
  }

  // Reduce-scatter the partials along the mode's grid dimension, straight
  // from the partial's own layout: it is `right` consecutive groups of
  // left*r entries, and destination q's slice of each group is its block of
  // the r extent, left*len_q entries at offset left*off_q, already in q's
  // local first-mode-fastest order.
  const idx_t left = partial.left_size(mode);
  std::vector<idx_t> counts(pj);
  for (int q = 0; q < pj; ++q) counts[q] = left * block_size(r, pj, q);
  grid.mode_comm(mode).reduce_scatter_sum(partial.data(), y.local().data(),
                                          counts, partial.right_size(mode));
  return y;
}

template <typename T>
la::Matrix<T> redistribute_mode(const DistTensor<T>& x, int mode) {
  prof::TraceSpan span("redistribute", static_cast<std::int64_t>(mode));
  const ProcessorGrid& grid = x.grid();
  RAHOOI_REQUIRE(mode >= 0 && mode < x.ndims(),
                 "redistribute_mode: bad mode");
  const int pj = grid.dim(mode);
  RAHOOI_REQUIRE(pj > 1,
                 "redistribute_mode: an undistributed mode is already local");
  const idx_t n = x.global_dim(mode);
  const idx_t m_loc = x.local_dim(mode);
  const idx_t left = x.local().left_size(mode);
  const idx_t right = x.local().right_size(mode);
  const idx_t fibers = left * right;  // identical across the mode comm

  // My chunk of the fiber range after redistribution.
  const idx_t my_fibers = block_size(fibers, pj, grid.coord(mode));
  la::Matrix<T> cols(n, my_fibers);

  // Pack: destination q receives my m_loc-segment of each fiber in q's
  // chunk, fibers in chunk order, segment entries contiguous.
  std::vector<T> sendbuf(static_cast<std::size_t>(x.local().size()));
  const metrics::ScopedBytes sendbuf_bytes(
      metrics::MemScope::pack_buffer,
      static_cast<double>(sendbuf.size()) * sizeof(T));
  std::vector<idx_t> sdispls(pj), recvcounts(pj), rdispls(pj);
  idx_t base = 0;
  for (int q = 0; q < pj; ++q) {
    sdispls[q] = base;
    const idx_t f0 = block_offset(fibers, pj, q);
    const idx_t fc = block_size(fibers, pj, q);
    for (idx_t f = f0; f < f0 + fc; ++f) {
      const idx_t l = f % left;
      const idx_t s = f / left;
      auto sl = x.local().slab(mode, s);
      T* dst = sendbuf.data() + base + (f - f0) * m_loc;
      for (idx_t a = 0; a < m_loc; ++a) dst[a] = sl(l, a);
    }
    base += fc * m_loc;
  }

  idx_t rbase = 0;
  for (int q = 0; q < pj; ++q) {
    recvcounts[q] = block_size(n, pj, q) * my_fibers;
    rdispls[q] = rbase;
    rbase += recvcounts[q];
  }
  std::vector<T> recvbuf(static_cast<std::size_t>(rbase));
  const metrics::ScopedBytes recvbuf_bytes(
      metrics::MemScope::pack_buffer,
      static_cast<double>(recvbuf.size()) * sizeof(T));
  grid.mode_comm(mode).alltoallv(sendbuf.data(), sdispls, recvbuf.data(),
                                 recvcounts, rdispls);

  // Assemble: source q supplies rows [row_off_q, +m_q) of every column.
  for (int q = 0; q < pj; ++q) {
    const idx_t row_off = block_offset(n, pj, q);
    const idx_t m_q = block_size(n, pj, q);
    const T* src = recvbuf.data() + rdispls[q];
    for (idx_t f = 0; f < my_fibers; ++f) {
      std::copy(src + f * m_q, src + (f + 1) * m_q,
                cols.data() + f * n + row_off);
    }
  }
  return cols;
}

template <typename T>
la::Matrix<T> dist_mode_gram(const DistTensor<T>& x, int mode) {
  prof::TraceSpan span("dist_gram", static_cast<std::int64_t>(mode));
  la::Matrix<T> gram;
  if (x.grid().dim(mode) == 1) {
    // The local block already holds whole mode fibers: Gram it in place.
    gram = tensor::mode_gram(x.local(), mode);
  } else {
    la::Matrix<T> cols = redistribute_mode(x, mode);
    gram = la::Matrix<T>(x.global_dim(mode), x.global_dim(mode));
    la::syrk(T{1}, cols.cref(), T{0}, gram.ref());
  }
  x.grid().world().allreduce_sum(gram.data(), gram.size());
  return gram;
}

template <typename T>
la::Matrix<T> dist_contract_all_but_one(const DistTensor<T>& y,
                                        const DistTensor<T>& g, int mode) {
  prof::TraceSpan span("contract", static_cast<std::int64_t>(mode));
  RAHOOI_REQUIRE(&y.grid() == &g.grid(),
                 "contraction operands must share a processor grid");
  for (int j = 0; j < y.ndims(); ++j) {
    RAHOOI_REQUIRE(j == mode || y.global_dim(j) == g.global_dim(j),
                   "contraction operands must agree in non-contracted dims");
  }
  la::Matrix<T> z;
  if (y.grid().dim(mode) == 1) {
    // Both local blocks hold whole mode fibers: contract them in place.
    z = tensor::contract_all_but_one(y.local(), g.local(), mode);
  } else {
    la::Matrix<T> ycols = redistribute_mode(y, mode);
    la::Matrix<T> gcols = redistribute_mode(g, mode);
    RAHOOI_REQUIRE(ycols.cols() == gcols.cols(),
                   "contraction fiber chunks must align");
    z = la::Matrix<T>(y.global_dim(mode), g.global_dim(mode));
    la::gemm(la::Op::none, la::Op::transpose, T{1}, ycols.cref(),
             gcols.cref(), T{0}, z.ref());
  }
  y.grid().world().allreduce_sum(z.data(), z.size());
  return z;
}

template <typename T>
la::Matrix<T> dist_mode_tsqr_r(const DistTensor<T>& x, int mode) {
  prof::TraceSpan span("tsqr", static_cast<std::int64_t>(mode));
  const idx_t n = x.global_dim(mode);

  // Local stage: rows of the transposed unfolding this rank owns. When the
  // rank holds at least n columns, compress them to an n x n R factor;
  // otherwise the (fewer-than-n)-row block itself is this rank's
  // contribution (its Gram is preserved either way).
  la::Matrix<T> colsT;
  if (x.grid().dim(mode) == 1) {
    // Rows [s*left, (s+1)*left) of the transposed unfolding are slab s
    // itself: copy each slab column straight into place.
    const tensor::Tensor<T>& loc = x.local();
    const idx_t left = loc.left_size(mode);
    const idx_t right = loc.right_size(mode);
    colsT = la::Matrix<T>(left * right, n);
    for (idx_t s = 0; s < right; ++s) {
      const auto slab = loc.slab(mode, s);
      for (idx_t a = 0; a < n; ++a) {
        std::copy(slab.col(a), slab.col(a) + left,
                  colsT.data() + a * colsT.rows() + s * left);
      }
    }
  } else {
    la::Matrix<T> cols = redistribute_mode(x, mode);
    colsT = la::Matrix<T>(cols.cols(), n);
    la::transpose(cols.cref(), colsT.ref());
  }
  la::Matrix<T> local =
      colsT.rows() >= n ? la::qr_thin<T>(colsT.cref()).r : std::move(colsT);

  // Combine stage: gather every rank's factor (allgatherv of at-most-n-row
  // blocks) and QR the stack. Replicated result; the gathered payload is
  // O(P n^2), far below the Gram allreduce of the EVD path for n << F.
  const comm::Comm& world = x.grid().world();
  const int p = world.size();
  std::vector<idx_t> counts(p);
  const idx_t mine = local.rows() * n;
  {
    std::vector<idx_t> rows(p);
    idx_t my_rows = local.rows();
    world.allgather(&my_rows, rows.data(), 1);
    for (int r = 0; r < p; ++r) counts[r] = rows[r] * n;
  }
  idx_t total_rows = 0;
  for (int r = 0; r < p; ++r) total_rows += counts[r] / n;
  std::vector<T> gathered(static_cast<std::size_t>(total_rows * n));
  const metrics::ScopedBytes gathered_bytes(
      metrics::MemScope::pack_buffer,
      static_cast<double>(gathered.size()) * sizeof(T));
  world.allgatherv(local.data(), gathered.data(), counts);
  RAHOOI_REQUIRE(mine == local.rows() * n, "tsqr: inconsistent local rows");

  // Each rank's block is column-major (rows_r x n); restack into one
  // column-major (total_rows x n) matrix.
  la::Matrix<T> stacked(total_rows, n);
  idx_t base = 0, row0 = 0;
  for (int r = 0; r < p; ++r) {
    const idx_t rows_r = counts[r] / n;
    for (idx_t j = 0; j < n; ++j) {
      for (idx_t i = 0; i < rows_r; ++i) {
        stacked(row0 + i, j) = gathered[base + i + j * rows_r];
      }
    }
    base += counts[r];
    row0 += rows_r;
  }
  if (stacked.rows() < n) {
    // Degenerate global case (fewer unfolding columns than n): pad with
    // zero rows so the final QR is well-defined.
    la::Matrix<T> padded(n, n);
    for (idx_t j = 0; j < n; ++j) {
      for (idx_t i = 0; i < stacked.rows(); ++i) {
        padded(i, j) = stacked(i, j);
      }
    }
    stacked = std::move(padded);
  }
  return la::qr_thin<T>(stacked.cref()).r;
}

#define RAHOOI_INSTANTIATE_DIST_OPS(T)                                  \
  template DistTensor<T> dist_ttm<T>(const DistTensor<T>&, int,         \
                                     la::ConstMatrixRef<T>);            \
  template la::Matrix<T> redistribute_mode<T>(const DistTensor<T>&,     \
                                              int);                     \
  template la::Matrix<T> dist_mode_gram<T>(const DistTensor<T>&, int);  \
  template la::Matrix<T> dist_contract_all_but_one<T>(                  \
      const DistTensor<T>&, const DistTensor<T>&, int);                 \
  template la::Matrix<T> dist_mode_tsqr_r<T>(const DistTensor<T>&, int);

RAHOOI_INSTANTIATE_DIST_OPS(float)
RAHOOI_INSTANTIATE_DIST_OPS(double)

#undef RAHOOI_INSTANTIATE_DIST_OPS

}  // namespace rahooi::dist
