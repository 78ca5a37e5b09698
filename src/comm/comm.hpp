#pragma once
// Communicator handle: the MPI-like API the distributed tensor layer and the
// paper's algorithms are written against.
//
// Semantics mirror the MPI collectives TuckerMPI uses. All ranks of a
// communicator must call the same collective with compatible arguments
// (counts arrays must match across ranks, as in MPI). Collectives are
// blocking and bulk-synchronous.
//
// Every collective records the bytes this rank communicates, using the
// communication volume of the standard large-message algorithm for that
// collective (ring allgather, recursive-halving reduce-scatter, Rabenseifner
// allreduce, binomial bcast/reduce). This is what the Table 2 reproduction
// measures.

// Instrumentation and fault tolerance (docs/ROBUSTNESS.md): every entry
// point opens one CollectiveGuard before its first rendezvous — prof span,
// park-registry bookkeeping for the hang watchdog, flight-recorder post,
// and the fault-injection entry hook (transient injected faults retried
// with bounded backoff) — and reports its byte figure once through
// guard.done(). Every blocking wait underneath observes the world's sticky
// abort flag, so a dead rank releases its peers via AbortedError instead
// of deadlocking them.
//
// Schedule sanitizing (docs/STATIC_ANALYSIS.md): when the world's
// comm_check flag is up (RunOptions::comm_check / RAHOOI_COMM_CHECK), every
// collective — not send/recv, which involve only two ranks — cross-validates
// a fingerprint of its replicated arguments at an extra rendezvous before
// running, so a divergent collective schedule aborts the world with a
// two-rank report instead of deadlocking or corrupting replicated state.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "comm/context.hpp"
#include "comm/monitor.hpp"
#include "common/contracts.hpp"

namespace rahooi::comm {

using idx_t = std::int64_t;

class Comm {
 public:
  Comm() = default;
  Comm(std::shared_ptr<Context> ctx, int rank)
      : ctx_(std::move(ctx)), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return ctx_ ? ctx_->size() : 1; }
  bool valid() const { return ctx_ != nullptr; }

  void barrier() const {
    const CollectiveGuard guard(ctx_.get(), rank_, SchedOp::barrier);
    guard.check();
    ctx_->barrier_wait();
  }

  /// Root's buffer is copied to every rank.
  template <typename T>
  void bcast(T* data, idx_t n, int root) const {
    CollectiveGuard guard(ctx_.get(), rank_, SchedOp::bcast);
    RAHOOI_REQUIRE(root >= 0 && root < size(), "bcast: bad root");
    if (size() == 1) return;
    guard.check(sched_dtype_tag<T>(), root, payload_of<T>(n));
    ctx_->post(rank_, SlotEntry{data, data, nullptr, 0});
    ctx_->barrier_wait();
    if (rank_ != root) {
      const T* src = static_cast<const T*>(ctx_->slot(root).in);
      std::copy(src, src + n, data);
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    guard.inject_payload(data, sizeof(T) * n);
    guard.done(bytes_of<T>(n));
  }

  /// Element-wise sum of all ranks' `in` arrays lands in `out` on root.
  template <typename T>
  void reduce_sum(const T* in, T* out, idx_t n, int root) const {
    CollectiveGuard guard(ctx_.get(), rank_, SchedOp::reduce);
    RAHOOI_REQUIRE(root >= 0 && root < size(), "reduce: bad root");
    if (size() == 1) {
      if (out != in) std::copy(in, in + n, out);
      return;
    }
    guard.check(sched_dtype_tag<T>(), root, payload_of<T>(n));
    ctx_->post(rank_, SlotEntry{in, out, nullptr, 0});
    ctx_->barrier_wait();
    if (rank_ == root) {
      std::copy(in, in + n, out);
      for (int r = 0; r < size(); ++r) {
        if (r == root) continue;
        const T* src = static_cast<const T*>(ctx_->slot(r).in);
        for (idx_t i = 0; i < n; ++i) out[i] += src[i];
      }
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    guard.done(bytes_of<T>(n));
  }

  /// In-place element-wise sum across all ranks; every rank gets the total.
  ///
  /// As required of MPI_Allreduce, every rank receives the *identical*
  /// result: the reduction runs in canonical rank order on each rank, so
  /// floating-point rounding cannot make replicated state (factor
  /// matrices, Gram spectra) diverge across ranks — divergence there would
  /// let ranks take different truncation decisions and desynchronize the
  /// subsequent collectives.
  template <typename T>
  void allreduce_sum(T* data, idx_t n) const {
    allreduce(data, n, SchedOp::allreduce, [](T a, T b) { return a + b; });
  }

  /// Convenience scalar allreduce.
  double allreduce_scalar(double v) const {
    allreduce_sum(&v, 1);
    return v;
  }

  /// In-place element-wise max across all ranks; every rank receives the
  /// identical result. Max over a fixed rank order is exact (no rounding),
  /// so this collective can never desynchronize replicated state — the
  /// deterministic sketch path uses it to agree on a global quantization
  /// scale (dist/sketch.cpp) before an integer allreduce.
  template <typename T>
  void allreduce_max(T* data, idx_t n) const {
    allreduce(data, n, SchedOp::allreduce_max,
              [](T a, T b) { return std::max(a, b); });
  }

  /// Sums all ranks' `in` arrays, then scatters the total. `in` is `blocks`
  /// equal consecutive groups, each holding the P destination segments in
  /// rank order (segment r has counts[r] elements); rank r receives segment
  /// r of every group, groups in order, into `out` (blocks * counts[r]
  /// elements). With blocks = 1 this is MPI_Reduce_scatter. `counts` and
  /// `blocks` must be identical on all ranks.
  ///
  /// Each rank sums its segments straight from the posted inputs in one
  /// pass and writes `out` once: every element is +0 plus the ranks'
  /// entries in canonical rank order, so the result does not depend on
  /// which rank computes it. `in` stays posted until the exit barrier.
  template <typename T>
  void reduce_scatter_sum(const T* in, T* out,
                          const std::vector<idx_t>& counts,
                          idx_t blocks = 1) const {
    CollectiveGuard guard(ctx_.get(), rank_, SchedOp::reduce_scatter);
    RAHOOI_REQUIRE(static_cast<int>(counts.size()) == size(),
                   "reduce_scatter: counts size != communicator size");
    RAHOOI_REQUIRE(blocks >= 0, "reduce_scatter: negative block count");
    const idx_t group = std::accumulate(counts.begin(), counts.end(),
                                        idx_t{0});
    const idx_t total = group * blocks;
    idx_t offset = 0;
    for (int r = 0; r < rank_; ++r) offset += counts[r];
    const idx_t mine = counts[rank_];
    if (size() == 1) {
      std::copy(in, in + total, out);
      return;
    }
    // `counts` and `blocks` must be replicated, so the total byte count and
    // the block geometry are part of the schedule contract.
    guard.check(sched_dtype_tag<T>(), -1, payload_of<T>(total),
                static_cast<std::uint64_t>(blocks));
    ctx_->post(rank_, SlotEntry{in, nullptr, nullptr, 0});
    ctx_->barrier_wait();
    // Sum through a small stack accumulator so the rank loop stays outside
    // the vectorizable element loops while `out` is still written once.
    constexpr idx_t kChunk = 1024 / static_cast<idx_t>(sizeof(T));
    T acc[kChunk] = {};
    for (idx_t b = 0; b < blocks; ++b) {
      const idx_t src0 = b * group + offset;
      for (idx_t c0 = 0; c0 < mine; c0 += kChunk) {
        const idx_t len = std::min(kChunk, mine - c0);
        const T* s = static_cast<const T*>(ctx_->slot(0).in) + src0 + c0;
        for (idx_t i = 0; i < len; ++i) acc[i] = T{} + s[i];
        for (int r = 1; r < size(); ++r) {
          s = static_cast<const T*>(ctx_->slot(r).in) + src0 + c0;
          for (idx_t i = 0; i < len; ++i) acc[i] += s[i];
        }
        std::copy(acc, acc + len, out + b * mine + c0);
      }
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    // Recursive halving: n(P-1)/P per rank on the full input length.
    guard.done(bytes_of<T>(total) * (size() - 1) / size());
  }

  /// Concatenates all ranks' `in` arrays (rank r contributes counts[r]
  /// elements) into `out` on every rank, ordered by rank. `counts` must be
  /// identical on all ranks.
  template <typename T>
  void allgatherv(const T* in, T* out, const std::vector<idx_t>& counts) const {
    CollectiveGuard guard(ctx_.get(), rank_, SchedOp::allgatherv);
    RAHOOI_REQUIRE(static_cast<int>(counts.size()) == size(),
                   "allgatherv: counts size != communicator size");
    if (size() == 1) {
      std::copy(in, in + counts[0], out);
      return;
    }
    guard.check(sched_dtype_tag<T>(), -1,
                payload_of<T>(std::accumulate(counts.begin(), counts.end(),
                                              idx_t{0})));
    ctx_->post(rank_, SlotEntry{in, nullptr, nullptr, 0});
    ctx_->barrier_wait();
    idx_t offset = 0;
    idx_t received = 0;
    for (int r = 0; r < size(); ++r) {
      const T* src = static_cast<const T*>(ctx_->slot(r).in);
      std::copy(src, src + counts[r], out + offset);
      offset += counts[r];
      if (r != rank_) received += counts[r];
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    // Ring: each rank receives everyone else's contribution.
    guard.done(bytes_of<T>(received));
  }

  /// Equal-count allgather convenience: every rank contributes n elements.
  template <typename T>
  void allgather(const T* in, T* out, idx_t n) const {
    allgatherv(in, out, std::vector<idx_t>(size(), n));
  }

  /// Personalized all-to-all: rank s sends sendcounts[r] elements starting
  /// at sdispls[r] to each rank r; rank r receives them at rdispls[s] in
  /// `out`. Requires sendcounts_s[r] == recvcounts_r[s], as in MPI.
  template <typename T>
  void alltoallv(const T* in, const std::vector<idx_t>& sdispls, T* out,
                 const std::vector<idx_t>& recvcounts,
                 const std::vector<idx_t>& rdispls) const {
    CollectiveGuard guard(ctx_.get(), rank_, SchedOp::alltoallv);
    RAHOOI_REQUIRE(static_cast<int>(sdispls.size()) == size() &&
                       static_cast<int>(recvcounts.size()) == size() &&
                       static_cast<int>(rdispls.size()) == size(),
                   "alltoallv: argument arrays must have one entry per rank");
    // Per-rank counts may legitimately differ across ranks, so only the op
    // kind and dtype are part of the replicated schedule contract.
    guard.check(sched_dtype_tag<T>());
    ctx_->post(rank_, SlotEntry{in, nullptr, sdispls.data(), 0});
    ctx_->barrier_wait();
    double off_rank_bytes = 0.0;
    for (int s = 0; s < size(); ++s) {
      const auto& peer = ctx_->slot(s);
      const T* src =
          static_cast<const T*>(peer.in) + peer.meta[rank_];
      std::copy(src, src + recvcounts[s], out + rdispls[s]);
      if (s != rank_) off_rank_bytes += bytes_of<T>(recvcounts[s]);
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    guard.done(off_rank_bytes);
  }

  /// Blocking tagged point-to-point.
  template <typename T>
  void send(const T* data, idx_t n, int dest, int tag) const {
    CollectiveGuard guard(ctx_.get(), rank_, SchedOp::send);
    ctx_->send_bytes(dest, rank_, tag, data, sizeof(T) * n);
    guard.done(bytes_of<T>(n));
  }

  template <typename T>
  void recv(T* data, idx_t n, int source, int tag) const {
    const CollectiveGuard guard(ctx_.get(), rank_, SchedOp::recv);
    ctx_->recv_bytes(rank_, source, tag, data, sizeof(T) * n);
  }

  /// Partitions the communicator: ranks with equal `color` form a new
  /// communicator, ordered by (key, old rank). Collective over all ranks.
  Comm split(int color, int key) const;

 private:
  /// Shared body of the allreduces: every rank folds the posted inputs
  /// with `op` in canonical rank order, so all ranks get identical results.
  /// Only the sum carries the payload fault hook.
  template <typename T, typename Op>
  void allreduce(T* data, idx_t n, SchedOp which, Op op) const {
    CollectiveGuard guard(ctx_.get(), rank_, which);
    if (size() == 1) return;
    guard.check(sched_dtype_tag<T>(), -1, payload_of<T>(n));
    ctx_->post(rank_, SlotEntry{data, nullptr, nullptr, 0});
    ctx_->barrier_wait();
    std::vector<T> acc(static_cast<const T*>(ctx_->slot(0).in),
                       static_cast<const T*>(ctx_->slot(0).in) + n);
    for (int r = 1; r < size(); ++r) {
      const T* src = static_cast<const T*>(ctx_->slot(r).in);
      for (idx_t i = 0; i < n; ++i) acc[i] = op(acc[i], src[i]);
    }
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    if (n != 0) std::copy(acc.begin(), acc.end(), data);
    ctx_->barrier_wait(Context::BarrierPhase::exit);
    if (which == SchedOp::allreduce) guard.inject_payload(data, sizeof(T) * n);
    // Rabenseifner: reduce-scatter + allgather, 2n(P-1)/P per rank.
    guard.done(2.0 * bytes_of<T>(n) * (size() - 1) / size());
  }

  template <typename T>
  static double bytes_of(idx_t n) {
    return static_cast<double>(n) * sizeof(T);
  }
  template <typename T>
  static std::uint64_t payload_of(idx_t n) {
    return static_cast<std::uint64_t>(n) * sizeof(T);
  }

  std::shared_ptr<Context> ctx_;
  int rank_ = 0;
};

}  // namespace rahooi::comm
