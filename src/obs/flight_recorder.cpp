#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/stats.hpp"

namespace rahooi::obs {

const char* record_kind_name(RecordKind k) {
  static constexpr const char* kNames[] = {
      "span_begin", "span_end", "collective_post", "collective_complete",
      "fault_hit", "checkpoint", "yield"};
  static_assert(std::size(kNames) == std::size_t(kRecordKindCount));
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

namespace {

/// Slot-stamp sentinel: a writer holds the claim. Unreachable as seq + 1.
constexpr std::uint64_t kClaimed = ~std::uint64_t{0};

}  // namespace

void FlightRecorder::record(RecordKind kind, std::string_view op,
                            double bytes) {
  const std::uint64_t seq = total_.fetch_add(1, std::memory_order_acq_rel);
  Slot& slot = ring_[seq % kCapacity];
  // Claim the slot: the stamp moves to kClaimed while the payload is in
  // flux so a concurrent snapshot() skips it instead of copying a torn
  // record. If another writer already holds the claim (two threads landing
  // exactly kCapacity apart), drop this record — never mix two payloads.
  std::uint64_t prev = slot.stamp.load(std::memory_order_relaxed);
  do {
    if (prev == kClaimed) return;
  } while (!slot.stamp.compare_exchange_weak(prev, kClaimed,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed));
  Record rec{};
  rec.seq = seq;
  rec.time = stats::now();
  rec.kind = kind;
  rec.bytes = bytes;
  const std::size_t n = std::min(op.size(), Record::kOpChars - 1);
  std::memcpy(rec.op, op.data(), n);
  rec.op[n] = '\0';
  std::uint64_t buf[Slot::kWords] = {};
  std::memcpy(buf, &rec, sizeof(Record));
  for (std::size_t w = 0; w < Slot::kWords; ++w) {
    slot.words[w].store(buf[w], std::memory_order_relaxed);
  }
  slot.stamp.store(seq + 1, std::memory_order_release);
}

std::vector<Record> FlightRecorder::snapshot() const {
  std::vector<Record> out;
  out.reserve(kCapacity);
  for (const Slot& slot : ring_) {
    const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
    if (before == 0 || before == kClaimed) continue;  // empty or mid-write
    std::uint64_t buf[Slot::kWords];
    for (std::size_t w = 0; w < Slot::kWords; ++w) {
      buf[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    // Seqlock validation: the payload words are only trusted if the stamp
    // did not move while they were read (fence orders the relaxed loads
    // above before the re-read below).
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t after = slot.stamp.load(std::memory_order_relaxed);
    if (after != before) continue;  // overwritten while copying
    Record rec;
    std::memcpy(&rec, buf, sizeof(Record));
    if (rec.seq + 1 != before) continue;
    out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  return out;
}

RankTimeline FlightRecorder::timeline() const {
  RankTimeline tl;
  tl.rank = rank_;
  tl.trace_id = trace_id_;
  tl.records = snapshot();
  tl.total = total();
  tl.dropped = dropped();
  return tl;
}

void FlightRecorder::clear() {
  for (Slot& slot : ring_) {
    slot.stamp.store(0, std::memory_order_release);
  }
  total_.store(0, std::memory_order_release);
}

std::uint64_t mint_trace_id(std::uint64_t job_id, std::uint64_t submit_seq) {
  // FNV-1a over the two 64-bit values, byte by byte — same constants as the
  // serve cache fingerprint so ids are stable across replays.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  mix(job_id);
  h ^= 0x1full;  // separator, mirroring the fingerprint's field delimiter
  h *= 1099511628211ull;
  mix(submit_seq);
  if (h == 0) h = 1;  // 0 is reserved for "no trace context"
  return h;
}

}  // namespace rahooi::obs
