// The simulation driver: virtual clock + event loop + periodic timers.
//
// Scheduling is templated end-to-end: a lambda passed to at()/after() lands
// directly in the event queue's pooled slot storage without a std::function
// round-trip, so the common paths allocate nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace hg::sim {

class Simulator {
 public:
  // `seed` roots every derived random stream in the run.
  explicit Simulator(std::uint64_t seed);

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedule at an absolute virtual time (must not be in the past).
  template <class F>
  EventHandle at(SimTime when, F&& fn) {
    HG_ASSERT_MSG(when >= now_, "cannot schedule into the past");
    return queue_.schedule(when, std::forward<F>(fn));
  }

  // Schedule after a delay from now.
  template <class F>
  EventHandle after(SimTime delay, F&& fn) {
    HG_ASSERT(delay >= SimTime::zero());
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  // Non-cancellable fast path.
  template <class F>
  void after_fire_and_forget(SimTime delay, F&& fn) {
    HG_ASSERT(delay >= SimTime::zero());
    queue_.schedule_fire_and_forget(now_ + delay, std::forward<F>(fn));
  }

  // Keyed scheduling (see EventQueue::schedule_keyed): events at equal times
  // order by key2 before scheduling order. The sharded fabric keys datagram
  // deliveries by their seed-derived tiebreak so same-time arrivals at one
  // node order identically at every partition count.
  template <class F>
  EventHandle at_keyed(SimTime when, std::uint64_t key2, F&& fn) {
    HG_ASSERT_MSG(when >= now_, "cannot schedule into the past");
    return queue_.schedule_keyed(when, key2, std::forward<F>(fn));
  }

  template <class F>
  void after_keyed_fire_and_forget(SimTime delay, std::uint64_t key2, F&& fn) {
    HG_ASSERT(delay >= SimTime::zero());
    queue_.schedule_keyed_fire_and_forget(now_ + delay, key2, std::forward<F>(fn));
  }

  // Reserved scheduling order (see EventQueue::reserve_seq): at_reserved(when,
  // seq, fn) runs `fn` at `when`, ordered as if it had been scheduled when
  // `seq` was reserved. Lets a component keep its own timer structure and
  // hand the queue only its earliest timer, without moving any event.
  [[nodiscard]] std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  template <class F>
  void at_reserved(SimTime when, std::uint64_t seq, F&& fn) {
    HG_ASSERT_MSG(when >= now_, "cannot schedule into the past");
    queue_.schedule_reserved(when, seq, std::forward<F>(fn));
  }

  // Timestamp of the earliest live pending event, or nullopt when the queue
  // is (or prunes to) empty. The sharded engine polls this at barriers to
  // fast-forward over epochs no partition has work for.
  [[nodiscard]] std::optional<SimTime> next_event_time() {
    if (queue_.prune_and_empty()) return std::nullopt;
    return queue_.next_time();
  }

  // Repeats `fn` every `period` until the returned handle is cancelled or the
  // run ends. First invocation after `initial_delay`. The callback may cancel
  // its own timer.
  //
  // Timer state lives in a pooled slab inside the simulator (parallel to the
  // event queue's slot pool): one slab record per timer lifetime, reused via
  // a free list, with a generation counter guarding stale handles — no
  // shared_ptr control blocks, and the per-tick closure is two words (slot +
  // generation), well inside the queue's inline callback storage. A 100k-node
  // run arms a few timers per node; the slab keeps them dense instead of
  // scattering 100k+ control blocks across the heap.
  //
  // Handles are cheap value types; they must not outlive the simulator.
  class PeriodicHandle {
   public:
    PeriodicHandle() = default;
    void cancel();
    [[nodiscard]] bool active() const;

   private:
    friend class Simulator;
    PeriodicHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
        : sim_(sim), slot_(slot), gen_(gen) {}

    Simulator* sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };
  PeriodicHandle every(SimTime initial_delay, SimTime period, EventFn fn);

  // Runs until the queue drains or virtual time would exceed `until`.
  // Returns the number of events executed by this call.
  std::uint64_t run_until(SimTime until);

  // Like run_until but *exclusive*: processes events strictly before `until`,
  // then advances the clock to `until`. The sharded engine steps partitions in
  // epochs [T, T') with this, so events at an epoch boundary run after the
  // barrier's control tasks (churn, detection) carrying the same timestamp.
  std::uint64_t run_before(SimTime until);

  // Drain everything (tests; real experiments always bound time).
  std::uint64_t run_to_completion();

  // Derive a deterministic, component-specific random stream.
  [[nodiscard]] Rng make_rng(std::uint64_t stream_tag) const { return root_rng_.fork(stream_tag); }

  [[nodiscard]] std::uint64_t events_executed() const { return queue_.executed(); }
  [[nodiscard]] EventQueue& queue() { return queue_; }

 private:
  static constexpr std::uint32_t kNilTimer = 0xffffffffu;

  struct TimerSlot {
    EventFn fn;
    SimTime period;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilTimer;
    bool active = false;
  };

  void timer_tick(std::uint32_t slot, std::uint32_t gen);
  void free_timer_slot(std::uint32_t slot);
  void cancel_timer(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool timer_active(std::uint32_t slot, std::uint32_t gen) const;

  SimTime now_ = SimTime::zero();
  EventQueue queue_;
  std::vector<TimerSlot> timers_;
  std::uint32_t timer_free_head_ = kNilTimer;
  Rng root_rng_;
};

}  // namespace hg::sim
