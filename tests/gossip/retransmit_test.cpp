#include "gossip/retransmit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace hg::gossip {
namespace {

struct Fired {
  EventId id;
  int retry;
};

TEST(Retransmit, FiresAfterPeriod) {
  sim::Simulator s(1);
  std::vector<Fired> fired;
  RetransmitTracker t(s, sim::SimTime::ms(500), 3,
                      [&](EventId id, int r) { fired.push_back({id, r}); });
  t.arm(EventId{1, 0}, 0);
  s.run_until(sim::SimTime::ms(499));
  EXPECT_TRUE(fired.empty());
  s.run_until(sim::SimTime::ms(501));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].id, (EventId{1, 0}));
  EXPECT_EQ(fired[0].retry, 1);
}

TEST(Retransmit, CancelStopsTimer) {
  sim::Simulator s(1);
  int count = 0;
  RetransmitTracker t(s, sim::SimTime::ms(500), 3, [&](EventId, int) { ++count; });
  t.arm(EventId{1, 0}, 0);
  t.cancel(EventId{1, 0});
  s.run_until(sim::SimTime::sec(10));
  EXPECT_EQ(count, 0);
  EXPECT_EQ(t.stats().cancelled_by_serve, 1u);
  EXPECT_FALSE(t.tracking(EventId{1, 0}));
}

TEST(Retransmit, ExponentialBackoff) {
  sim::Simulator s(1);
  std::vector<sim::SimTime> at;
  RetransmitTracker t(s, sim::SimTime::ms(100), 10, [&](EventId id, int r) {
    at.push_back(s.now());
    t.arm(id, r);  // owner re-arms like ThreePhaseGossip does
  });
  t.arm(EventId{1, 0}, 0);
  s.run_until(sim::SimTime::sec(5));
  // Timeouts: 100, then 200, 400, 800, 800 (capped at x8), ...
  ASSERT_GE(at.size(), 5u);
  EXPECT_EQ(at[0], sim::SimTime::ms(100));
  EXPECT_EQ(at[1], sim::SimTime::ms(300));
  EXPECT_EQ(at[2], sim::SimTime::ms(700));
  EXPECT_EQ(at[3], sim::SimTime::ms(1500));
  EXPECT_EQ(at[4], sim::SimTime::ms(2300));  // capped: +800
}

TEST(Retransmit, GivesUpAfterMaxRetries) {
  sim::Simulator s(1);
  int fires = 0;
  RetransmitTracker t(s, sim::SimTime::ms(10), 2, [&](EventId id, int r) {
    ++fires;
    t.arm(id, r);
  });
  t.arm(EventId{2, 0}, 0);
  s.run_until(sim::SimTime::sec(10));
  // retry 1, retry 2, then the retry-count check (>= 2) drops it.
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(t.stats().gave_up, 1u);
  EXPECT_FALSE(t.tracking(EventId{2, 0}));
}

TEST(Retransmit, CancelWindowDropsAllEntries) {
  sim::Simulator s(1);
  int fires = 0;
  RetransmitTracker t(s, sim::SimTime::ms(100), 5, [&](EventId, int) { ++fires; });
  for (std::uint16_t i = 0; i < 10; ++i) t.arm(EventId{7, i}, 0);
  t.arm(EventId{8, 0}, 0);
  EXPECT_EQ(t.pending_count(), 11u);
  t.cancel_window(7);
  EXPECT_EQ(t.pending_count(), 1u);
  s.run_until(sim::SimTime::sec(1));
  EXPECT_EQ(fires, 1);  // only the window-8 timer fired
}

TEST(Retransmit, GcSilentlyDropsTimersBelowCutoff) {
  sim::Simulator s(1);
  int fires = 0;
  RetransmitTracker t(s, sim::SimTime::ms(100), 5, [&](EventId, int) { ++fires; });
  for (std::uint32_t w = 0; w < 4; ++w) t.arm(EventId{w, 0}, 0);
  t.gc(2);  // windows 0 and 1 leave the domain
  EXPECT_EQ(t.pending_count(), 2u);
  EXPECT_FALSE(t.tracking(EventId{0, 0}));
  EXPECT_FALSE(t.tracking(EventId{1, 0}));
  EXPECT_TRUE(t.tracking(EventId{2, 0}));
  s.run_until(sim::SimTime::sec(1));
  EXPECT_EQ(fires, 2);  // the gc'd timers were cancelled, not fired
  // Silent: gc'd timers are neither serves nor give-ups.
  EXPECT_EQ(t.stats().cancelled_by_serve, 0u);
  EXPECT_EQ(t.stats().gave_up, 0u);
}

TEST(Retransmit, StateBytesShrinkWithCancellation) {
  sim::Simulator s(1);
  RetransmitTracker t(s, sim::SimTime::ms(100), 5, [](EventId, int) {});
  const std::size_t idle = t.state_bytes();
  for (std::uint16_t i = 0; i < 20; ++i) t.arm(EventId{3, i}, 0);
  EXPECT_GT(t.state_bytes(), idle);
  t.cancel_window(3);
  EXPECT_EQ(t.state_bytes(), idle);  // slab released with the last timer
}

TEST(Retransmit, RearmResetsTimer) {
  sim::Simulator s(1);
  std::vector<sim::SimTime> at;
  RetransmitTracker t(s, sim::SimTime::ms(100), 5,
                      [&](EventId, int) { at.push_back(s.now()); });
  t.arm(EventId{1, 1}, 0);
  s.run_until(sim::SimTime::ms(50));
  t.arm(EventId{1, 1}, 0);  // re-arm halfway: timer restarts
  s.run_until(sim::SimTime::sec(1));
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], sim::SimTime::ms(150));
}

// Reference model: one heap event and one cancellation handle per timer, the
// way the tracker worked before its timers moved into lanes. The lanes must
// reproduce its fire sequence exactly, interleaving with other events
// included.
class HeapTimerTracker {
 public:
  HeapTimerTracker(sim::Simulator& simulator, sim::SimTime period, int max_retries,
                   RetransmitTracker::FireFn fire)
      : sim_(simulator),
        period_(period),
        max_retries_(max_retries),
        fire_(std::move(fire)),
        pending_(RingGeometry{64, 128}) {}

  void arm(EventId id, int retry_count) {
    auto [entry, inserted] = pending_.insert(id);
    if (!inserted) entry->handle.cancel();
    if (inserted) ++stats_.timers_started;
    entry->retries = retry_count;
    const int shift = std::min(retry_count, 3);
    entry->handle = sim_.after(sim::SimTime::us(period_.as_us() << shift),
                               [this, id]() { on_fire(id); });
  }
  void cancel(EventId id) {
    Entry* entry = pending_.find(id);
    if (entry == nullptr) return;
    entry->handle.cancel();
    pending_.erase(id);
    ++stats_.cancelled_by_serve;
  }
  std::size_t cancel_window(std::uint32_t window) {
    std::size_t killed = 0;
    pending_.for_each_in_window(window, [&killed](std::uint32_t, Entry& e) {
      e.handle.cancel();
      ++killed;
    });
    pending_.clear_window(window);
    return killed;
  }
  void gc(std::uint32_t cutoff) {
    for (std::uint32_t w = pending_.base(); w < cutoff; ++w) {
      pending_.for_each_in_window(w, [](std::uint32_t, Entry& e) { e.handle.cancel(); });
    }
    pending_.advance(cutoff);
  }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] const RetransmitTracker::Stats& stats() const { return stats_; }

 private:
  struct Entry {
    sim::EventHandle handle;
    int retries = 0;
  };

  void on_fire(EventId id) {
    Entry* entry = pending_.find(id);
    if (entry == nullptr) return;
    if (entry->retries >= max_retries_) {
      pending_.erase(id);
      ++stats_.gave_up;
      return;
    }
    ++stats_.retries_fired;
    fire_(id, entry->retries + 1);
  }

  sim::Simulator& sim_;
  sim::SimTime period_;
  int max_retries_;
  RetransmitTracker::FireFn fire_;
  WindowRing<Entry> pending_;
  RetransmitTracker::Stats stats_;
};

// One scripted operation, fixed before either tracker runs so both see the
// same inputs. Times sit on a 10 us grid and the base period is 100 us, so
// timers, operations and unrelated events keep landing on the same
// microsecond.
struct ScriptOp {
  enum Kind { kArm, kCancel, kCancelWindow, kGc, kUnrelated } kind;
  std::int64_t at_us;
  EventId id;
  std::uint32_t window;
};

std::vector<ScriptOp> make_script(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> times;
  for (int i = 0; i < 1500; ++i) times.push_back(10 * static_cast<std::int64_t>(rng.below(800)));
  std::sort(times.begin(), times.end());
  std::vector<ScriptOp> ops;
  std::uint32_t cutoff = 0;
  const auto pick_id = [&]() {
    return EventId{cutoff + static_cast<std::uint32_t>(rng.below(4)),
                   static_cast<std::uint16_t>(rng.below(12))};
  };
  for (std::int64_t t : times) {
    const std::uint64_t roll = rng.below(100);
    ScriptOp op{ScriptOp::kUnrelated, t, EventId{}, 0};
    if (roll < 45) {
      op.kind = ScriptOp::kArm;
      op.id = pick_id();
    } else if (roll < 60) {
      op.kind = ScriptOp::kCancel;
      op.id = pick_id();
    } else if (roll < 63) {
      op.kind = ScriptOp::kCancelWindow;
      op.window = cutoff + static_cast<std::uint32_t>(rng.below(4));
    } else if (roll < 64) {
      op.kind = ScriptOp::kGc;
      op.window = ++cutoff;
    }
    ops.push_back(op);
  }
  return ops;
}

// (time us, kind, id, retry-or-count): 'F' a timer fired, 'U' an unrelated
// event ran, 'W' a cancel_window killed `count` timers.
using LogLine = std::tuple<std::int64_t, char, std::uint64_t, int>;

// The owner's reaction to a fire, a pure function of (id, retry) so both
// trackers are driven identically: re-arm (as ThreePhaseGossip does), cancel,
// or leave the entry without a timer until a later arm.
int fire_choice(EventId id, int retry) {
  std::uint64_t h = id.raw() ^ (static_cast<std::uint64_t>(retry) << 48);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;  // splitmix64 finalizer
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<int>((h ^ (h >> 31)) % 5);
}

struct ScriptResult {
  std::vector<LogLine> log;
  RetransmitTracker::Stats stats;
  std::size_t pending = 0;
};

template <class Tracker>
ScriptResult run_script(const std::vector<ScriptOp>& script) {
  sim::Simulator s(1);
  std::vector<LogLine> log;
  const auto unrelated = [&s, &log](std::uint64_t tag) {
    log.emplace_back(s.now().as_us(), 'U', tag, 0);
  };
  Tracker* tracker = nullptr;
  Tracker t(s, sim::SimTime::us(100), 3, [&](EventId id, int retry) {
    log.emplace_back(s.now().as_us(), 'F', id.raw(), retry);
    switch (fire_choice(id, retry)) {
      case 0:
      case 1:
        tracker->arm(id, retry);
        break;
      case 2:
        tracker->cancel(id);
        break;
      case 3:
        // Re-arm, then an unrelated event due at this very microsecond.
        tracker->arm(id, retry);
        s.after(sim::SimTime::zero(), [&unrelated, id]() { unrelated(id.raw()); });
        break;
      default:
        break;
    }
  });
  tracker = &t;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const ScriptOp op = script[i];
    s.at(sim::SimTime::us(op.at_us), [&, op, i]() {
      switch (op.kind) {
        case ScriptOp::kArm:
          t.arm(op.id, 0);
          break;
        case ScriptOp::kCancel:
          t.cancel(op.id);
          break;
        case ScriptOp::kCancelWindow:
          log.emplace_back(s.now().as_us(), 'W', op.window,
                           static_cast<int>(t.cancel_window(op.window)));
          break;
        case ScriptOp::kGc:
          t.gc(op.window);
          break;
        case ScriptOp::kUnrelated:
          unrelated(i);
          // ...and one scheduled from inside the run, due on the grid.
          s.after(sim::SimTime::us(100 * static_cast<std::int64_t>(i % 3)),
                  [&unrelated, i]() { unrelated(1'000'000 + i); });
          break;
      }
    });
  }
  s.run_to_completion();
  return {log, t.stats(), t.pending_count()};
}

TEST(Retransmit, LanesMatchOneHeapEventPerTimer) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<ScriptOp> script = make_script(seed);
    const ScriptResult lanes = run_script<RetransmitTracker>(script);
    const ScriptResult reference = run_script<HeapTimerTracker>(script);
    ASSERT_EQ(lanes.log, reference.log) << "seed " << seed;
    EXPECT_EQ(lanes.pending, reference.pending);
    const RetransmitTracker::Stats& lane_stats = lanes.stats;
    const RetransmitTracker::Stats& ref_stats = reference.stats;
    EXPECT_EQ(lane_stats.timers_started, ref_stats.timers_started);
    EXPECT_EQ(lane_stats.cancelled_by_serve, ref_stats.cancelled_by_serve);
    EXPECT_EQ(lane_stats.retries_fired, ref_stats.retries_fired);
    EXPECT_EQ(lane_stats.gave_up, ref_stats.gave_up);
    // The script exercises every path.
    EXPECT_GT(lane_stats.retries_fired, 0u) << "seed " << seed;
    EXPECT_GT(lane_stats.gave_up, 0u) << "seed " << seed;
    EXPECT_GT(lane_stats.cancelled_by_serve, 0u) << "seed " << seed;
  }
}

// The heap holds at most one entry per lane, however many timers are armed
// and cancelled: cancelled timers never become heap tombstones.
TEST(Retransmit, HeapHoldsAtMostOneEntryPerLane) {
  sim::Simulator s(1);
  RetransmitTracker t(s, sim::SimTime::ms(1000), 8, [](EventId, int) {});
  std::size_t max_heap = 0;
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    const EventId id{i / 100, static_cast<std::uint16_t>(i % 100)};
    if (id.index() == 0 && id.window() >= 4) t.gc(id.window() - 4);
    t.arm(id, 0);
    max_heap = std::max(max_heap, s.queue().size());
    s.run_until(s.now() + sim::SimTime::us(50));
    t.cancel(id);  // the serve arrives
    max_heap = std::max(max_heap, s.queue().size());
  }
  EXPECT_LE(max_heap, 4u);
  EXPECT_EQ(t.stats().cancelled_by_serve, 10'000u);
  EXPECT_EQ(t.stats().retries_fired, 0u);
  s.run_to_completion();
  EXPECT_EQ(s.queue().size(), 0u);
}

// Lane storage is counted, and released once no timer is pending.
TEST(Retransmit, StateBytesCountLanesUntilIdle) {
  sim::Simulator s(1);
  RetransmitTracker t(s, sim::SimTime::ms(100), 1, [&t](EventId id, int r) { t.arm(id, r); });
  const std::size_t idle = t.state_bytes();
  for (std::uint16_t i = 0; i < 20; ++i) t.arm(EventId{3, i}, 0);
  const std::size_t armed = t.state_bytes();
  EXPECT_GE(armed, idle + 20 * 24);  // at least one 24-byte record per timer
  s.run_until(sim::SimTime::ms(150));  // every timer retried once, into lane x2
  EXPECT_EQ(t.pending_count(), 20u);
  s.run_until(sim::SimTime::sec(1));  // ...and then gave up
  EXPECT_EQ(t.stats().gave_up, 20u);
  EXPECT_EQ(t.state_bytes(), idle);
}

}  // namespace
}  // namespace hg::gossip
