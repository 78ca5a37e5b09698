#include "comm/context.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/contracts.hpp"

namespace rahooi::comm {

namespace {

std::chrono::duration<double> to_duration(double seconds) {
  return std::chrono::duration<double>(seconds);
}

}  // namespace

Context::Context(int size, std::shared_ptr<Monitor> monitor)
    : size_(size),
      monitor_(monitor != nullptr ? std::move(monitor)
                                  : std::make_shared<Monitor>(size)),
      sched_(size),
      slots_(size),
      children_(size),
      mailboxes_(size) {
  RAHOOI_REQUIRE(size >= 1, "communicator size must be positive");
  for (auto& mb : mailboxes_) mb = std::make_unique<Mailbox>();
}

std::shared_ptr<Context> Context::create(int size,
                                         std::shared_ptr<Monitor> monitor) {
  auto ctx = std::make_shared<Context>(size, std::move(monitor));
  ctx->monitor_->attach(ctx);
  return ctx;
}

void Context::watchdog_expired(const char* where) {
  std::string report = "collective watchdog expired after " +
                       std::to_string(monitor_->timeout()) + "s in " + where +
                       "; world state:\n" + monitor_->park_report();
  const int rank = rank_context().world_rank;
  // First raiser wins; a concurrent abort (another watchdog, a rank death)
  // makes this a plain AbortedError instead.
  if (monitor_->raise_abort(rank, report)) {
    throw TimeoutError(rank, std::move(report));
  }
  monitor_->throw_aborted();
}

void Context::barrier_wait(BarrierPhase phase) {
  Monitor& mon = *monitor_;
  const bool abortable = phase == BarrierPhase::entry;
  if (abortable && mon.aborted()) mon.throw_aborted();
  std::unique_lock lock(barrier_mutex_);
  const std::uint64_t gen = barrier_generation_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  // Phase barriers ignore the abort flag: every participant passed the
  // entry barrier and is in non-blocking compute, so the rendezvous WILL
  // complete — and must, because peers may still be reading this rank's
  // posted buffers (see BarrierPhase).
  const auto arrived = [&] {
    return barrier_generation_ != gen || (abortable && mon.aborted());
  };
  const double timeout = mon.timeout();
  if (timeout <= 0.0) {
    barrier_cv_.wait(lock, arrived);
  } else if (!barrier_cv_.wait_for(lock, to_duration(timeout), arrived)) {
    --barrier_count_;  // retract this arrival; the rendezvous is dead
    lock.unlock();
    watchdog_expired("barrier rendezvous");
  }
  if (barrier_generation_ == gen) {
    // Woken by abort, not by barrier completion: the rendezvous can never
    // finish (a participant is dead), so release this rank via exception.
    // Retract this rank's arrival so the count stays consistent for any
    // caller that catches the abort.
    --barrier_count_;
    lock.unlock();
    mon.throw_aborted();
  }
}

void Context::send_bytes(int dest, int source, int tag, const void* data,
                         std::size_t bytes) {
  RAHOOI_REQUIRE(dest >= 0 && dest < size_, "send: bad destination rank");
  if (monitor_->aborted()) monitor_->throw_aborted();
  Message msg;
  msg.source = source;
  msg.tag = tag;
  msg.payload.resize(bytes);
  std::memcpy(msg.payload.data(), data, bytes);

  Mailbox& mb = *mailboxes_[dest];
  {
    std::lock_guard lock(mb.mutex);
    mb.queue.push_back(std::move(msg));
  }
  mb.cv.notify_all();
}

void Context::recv_bytes(int self, int source, int tag, void* data,
                         std::size_t bytes) {
  RAHOOI_REQUIRE(source >= 0 && source < size_, "recv: bad source rank");
  Monitor& mon = *monitor_;
  if (mon.aborted()) mon.throw_aborted();
  Mailbox& mb = *mailboxes_[self];
  std::unique_lock lock(mb.mutex);
  const auto find_match = [&] {
    return std::find_if(mb.queue.begin(), mb.queue.end(),
                        [&](const Message& m) {
                          return m.source == source && m.tag == tag;
                        });
  };
  for (;;) {
    const auto it = find_match();
    if (it != mb.queue.end()) {
      RAHOOI_REQUIRE(it->payload.size() == bytes,
                     "recv: message size does not match receive buffer");
      std::memcpy(data, it->payload.data(), bytes);
      mb.queue.erase(it);
      return;
    }
    if (mon.aborted()) {
      lock.unlock();
      mon.throw_aborted();
    }
    const auto ready = [&] {
      return mon.aborted() || find_match() != mb.queue.end();
    };
    const double timeout = mon.timeout();
    if (timeout <= 0.0) {
      mb.cv.wait(lock, ready);
    } else if (!mb.cv.wait_for(lock, to_duration(timeout), ready)) {
      lock.unlock();
      watchdog_expired("recv");
    }
  }
}

void Context::deposit_child(int leader_rank, std::shared_ptr<Context> child) {
  children_[leader_rank] = std::move(child);
}

std::shared_ptr<Context> Context::collect_child(int leader_rank) const {
  return children_[leader_rank];
}

void Context::wake_all() {
  {
    std::lock_guard lock(barrier_mutex_);
  }
  barrier_cv_.notify_all();
  for (const auto& mb : mailboxes_) {
    {
      std::lock_guard lock(mb->mutex);
    }
    mb->cv.notify_all();
  }
}

}  // namespace rahooi::comm
