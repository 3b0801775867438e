// Retransmission bookkeeping (paper Algorithm 2, "Retransmission").
//
// A [Propose] for an event starts a timer when the event is requested; a
// [Serve] cancels it. If the timer fires, the event is re-requested. The
// paper replays the propose; consistent with the authors' DSN'09 companion
// implementation, our retry claims the event from the *next* known proposer
// (round-robin), falling back to the original when nobody else proposed it.
//
// Timers live in four FIFO lanes, one per backoff level (x1, x2, x4, x8 the
// base period), not in the event heap. A level's timeout is constant and
// time only moves forward, so each lane is sorted by deadline as it is
// appended to. Only a lane's head sits in the heap (at most four entries per
// tracker). Nearly every timer is cancelled by its serve, and a cancel only
// drops the request-ring entry: its lane record turns stale — the ring no
// longer holds the id, or holds it under a newer arm — and is skipped when
// the lane advances past it, without ever entering the heap. A head that
// turns stale after it was pushed still fires, as an event that does nothing.
//
// Each arm reserves the event queue sequence number a heap timer scheduled
// at arm time would have taken, and the head is pushed under it. Timers fire
// at the same instants, in the same order relative to every other event, as
// one heap event per timer would; the number doubles as the arm generation
// that tells live records from stale ones.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "gossip/messages.hpp"
#include "gossip/window_ring.hpp"
#include "sim/simulator.hpp"

namespace hg::gossip {

class RetransmitTracker {
 public:
  struct Stats {
    std::uint64_t timers_started = 0;
    std::uint64_t cancelled_by_serve = 0;
    std::uint64_t retries_fired = 0;
    std::uint64_t gave_up = 0;
  };

  // `fire` is invoked with (id, retry_count) when a timer expires; the owner
  // decides whom to re-request from and calls arm() again if it retries.
  using FireFn = std::function<void(EventId, int)>;

  // `geometry` bounds the tracked id domain; the gossip engine passes its
  // request-ring geometry so both advance in lockstep at gc. The default
  // suits standalone use (tests) that never calls gc().
  RetransmitTracker(sim::Simulator& simulator, sim::SimTime period, int max_retries,
                    FireFn fire, RingGeometry geometry = {64, 128})
      : sim_(simulator),
        period_(period),
        max_retries_(max_retries),
        fire_(std::move(fire)),
        pending_(geometry) {}

  // Scheduled lane heads hold `this`.
  RetransmitTracker(const RetransmitTracker&) = delete;
  RetransmitTracker& operator=(const RetransmitTracker&) = delete;

  // Arms (or re-arms) the timer for `id`. The timeout backs off
  // exponentially with the retry count (x1, x2, x4, x8 capped): at 512 kbps
  // a single batched serve of ~11 stream packets occupies the uplink for
  // ~2.5 s, so a fixed short timeout would fire while the original serve is
  // still queued and flood the system with duplicate payloads. A re-arm
  // leaves the previous record behind in its lane, stale.
  void arm(EventId id, int retry_count) {
    auto [entry, inserted] = pending_.insert(id);
    if (inserted) ++stats_.timers_started;
    entry->retries = retry_count;
    entry->seq = sim_.reserve_seq();
    const int level = std::min(retry_count, kLevels - 1);
    const sim::SimTime timeout = sim::SimTime::us(period_.as_us() << level);
    Lane& lane = lanes_[level];
    lane.push(Record{sim_.now() + timeout, entry->seq, id});
    if (!lane.scheduled) schedule_head(level);
  }

  // The event arrived: stop tracking it.
  void cancel(EventId id) {
    if (!pending_.erase(id)) return;
    ++stats_.cancelled_by_serve;
    release_lanes_if_idle();
  }

  // Drop all state for a window (e.g., window decoded). Returns the number
  // of armed timers killed — the "serves this cancel saved" quantity the
  // gossip stats track.
  std::size_t cancel_window(std::uint32_t window) {
    const std::size_t killed = pending_.clear_window(window);
    release_lanes_if_idle();
    return killed;
  }

  // Garbage collection: windows below `cutoff` leave the id domain — their
  // timers die silently (nothing left to re-request; the engine dropped the
  // proposer lists in the same sweep).
  void gc(std::uint32_t cutoff) {
    pending_.advance(cutoff);
    release_lanes_if_idle();
  }

  [[nodiscard]] bool tracking(EventId id) const { return pending_.contains(id); }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Heap bytes of the pending ring (ring state + live slabs) and the lanes.
  [[nodiscard]] std::size_t state_bytes() const {
    std::size_t bytes = pending_.state_bytes();
    for (const Lane& lane : lanes_) bytes += lane.capacity * sizeof(Record);
    return bytes;
  }

 private:
  static constexpr int kLevels = 4;

  struct PendingEntry {
    std::uint64_t seq = 0;  // sequence number reserved by the latest arm
    int retries = 0;
  };

  struct Record {
    sim::SimTime deadline;
    std::uint64_t seq;
    EventId id;
  };

  // buf[read..size) are the lane's records behind its head, in deadline
  // order; the head itself travels in its heap event while `scheduled`. A
  // bare buffer plus read index, not a deque: a lane allocates nothing before
  // its first arm, and its header is 24 bytes. Four headers sit in every
  // node's gossip module, whose size set-up time is sensitive to: at 32-byte
  // std::vector-based headers the module crossed glibc's 1 KiB small-bin
  // boundary, and set-up of a 1,100-node deployment slowed by ~5% on a
  // 4-core x86-64 box.
  struct Lane {
    std::unique_ptr<Record[]> buf;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
    std::uint32_t read = 0;
    bool scheduled = false;

    void push(const Record& r) {
      if (size == capacity) make_room();
      buf[size++] = r;
    }

    // When full, drops the consumed front if it is at least half the buffer,
    // else doubles the buffer: O(1) amortized per record either way.
    void make_room() {
      if (read > 0 && 2 * read >= size) {
        std::copy(buf.get() + read, buf.get() + size, buf.get());
      } else {
        capacity = capacity == 0 ? 8 : 2 * capacity;
        auto grown = std::make_unique<Record[]>(capacity);
        std::copy(buf.get() + read, buf.get() + size, grown.get());
        buf = std::move(grown);
      }
      size -= read;
      read = 0;
    }

    void release() {
      buf.reset();
      size = capacity = read = 0;
    }
  };

  [[nodiscard]] bool live(const Record& r) const {
    const PendingEntry* entry = pending_.find(r.id);
    return entry != nullptr && entry->seq == r.seq;
  }

  // Skips the lane's stale records and pushes the first live one.
  void schedule_head(int level) {
    Lane& lane = lanes_[level];
    while (lane.read < lane.size && !live(lane.buf[lane.read])) ++lane.read;
    if (lane.read == lane.size) {
      lane.size = lane.read = 0;
      return;
    }
    const Record head = lane.buf[lane.read++];
    lane.scheduled = true;
    sim_.at_reserved(head.deadline, head.seq, [this, level, head]() { on_head_fire(level, head); });
  }

  void on_head_fire(int level, const Record& head) {
    lanes_[level].scheduled = false;
    if (live(head)) on_fire(head.id);
    // on_fire may already have re-armed into this lane and pushed its head.
    if (!lanes_[level].scheduled) schedule_head(level);
  }

  // With no timer pending every queued record is stale: free the storage (a
  // scheduled head stays in the heap and fires as a no-op).
  void release_lanes_if_idle() {
    if (pending_.size() != 0) return;
    for (Lane& lane : lanes_) lane.release();
  }

  void on_fire(EventId id) {
    PendingEntry* entry = pending_.find(id);
    const int retries = entry->retries;
    if (retries >= max_retries_) {
      pending_.erase(id);
      ++stats_.gave_up;
      release_lanes_if_idle();
      return;
    }
    ++stats_.retries_fired;
    // Leave the entry in place; the owner re-arms (or cancels) from fire_.
    fire_(id, retries + 1);
  }

  sim::Simulator& sim_;
  sim::SimTime period_;
  int max_retries_;
  FireFn fire_;
  WindowRing<PendingEntry> pending_;
  std::array<Lane, kLevels> lanes_;
  Stats stats_;
};

}  // namespace hg::gossip
