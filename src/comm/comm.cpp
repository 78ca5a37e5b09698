#include "comm/comm.hpp"

#include <algorithm>

namespace rahooi::comm {

Comm Comm::split(int color, int key) const {
  const CollectiveGuard guard(ctx_.get(), rank_, SchedOp::split);
  RAHOOI_REQUIRE(valid(), "split on an invalid communicator");
  const int p = size();
  if (p == 1) return *this;

  // color/key legitimately differ per rank; only the op kind is replicated.
  guard.check();

  // Publish (color, key) and collect everyone's.
  std::int64_t mine[2] = {color, key};
  ctx_->post(rank_, SlotEntry{nullptr, nullptr, mine, 0});
  ctx_->barrier_wait();
  std::vector<std::int64_t> colors(p), keys(p);
  for (int r = 0; r < p; ++r) {
    const std::int64_t* peer = ctx_->slot(r).meta;
    colors[r] = peer[0];
    keys[r] = peer[1];
  }
  ctx_->barrier_wait(Context::BarrierPhase::exit);

  // My group: ranks with my color, ordered by (key, parent rank).
  std::vector<int> members;
  for (int r = 0; r < p; ++r) {
    if (colors[r] == color) members.push_back(r);
  }
  std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
    return keys[a] < keys[b];
  });
  const int leader = *std::min_element(members.begin(), members.end());
  int child_rank = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == rank_) child_rank = static_cast<int>(i);
  }

  // Leader creates the child context; members collect it. The child shares
  // the parent world's monitor so an abort anywhere poisons the whole world,
  // including waits inside sub-communicators.
  if (rank_ == leader) {
    ctx_->deposit_child(leader,
                        Context::create(static_cast<int>(members.size()),
                                        ctx_->monitor()));
  }
  ctx_->barrier_wait(Context::BarrierPhase::exit);
  std::shared_ptr<Context> child = ctx_->collect_child(leader);
  ctx_->barrier_wait(Context::BarrierPhase::exit);
  return Comm(std::move(child), child_rank);
}

}  // namespace rahooi::comm
