// Seeded fixture: the per-rank context scope constructed as a temporary
// installs the rank's context and restores the previous one within the same
// statement, so the rank body runs with no sinks, monitor binding or fault
// plan installed. Exactly one guard-discard finding fires below.
namespace rahooi {

struct RankContext {
  int world_rank = -1;
};

class ScopedRankContext {
 public:
  explicit ScopedRankContext(const RankContext& ctx);
};

void run_rank(const RankContext* contexts, int r) {
  ScopedRankContext(contexts[r]);
}

}  // namespace rahooi
