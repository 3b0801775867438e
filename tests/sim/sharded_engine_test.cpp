#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "net/fabric.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace hg::sim {
namespace {

// Names every field: GCC 12's -Wmissing-field-initializers also flags
// designated initialisers that leave one out.
ShardedEngine::Config plan(std::uint32_t partitions, std::size_t workers, SimTime epoch,
                           bool epoch_widening = true) {
  return {.partitions = partitions,
          .workers = workers,
          .epoch = epoch,
          .placement = {},
          .epoch_widening = epoch_widening};
}

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t workers : {1u, 2u, 4u}) {
    WorkerPool pool(workers);
    std::vector<int> hits(23, 0);
    // Static assignment: index i only ever runs on worker i % workers, so
    // concurrent increments never touch the same slot.
    pool.run(hits.size(), [&](std::size_t i) { hits[i]++; });
    pool.run(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (int h : hits) EXPECT_EQ(h, 2);
  }
}

TEST(Simulator, RunBeforeIsExclusive) {
  Simulator s(1);
  int ran = 0;
  s.at(SimTime::ms(10), [&] { ran = 1; });
  EXPECT_EQ(s.run_before(SimTime::ms(10)), 0u);
  EXPECT_EQ(ran, 0);
  // The clock still advances to the bound, like run_until.
  EXPECT_EQ(s.now(), SimTime::ms(10));
  EXPECT_EQ(s.run_until(SimTime::ms(10)), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(ShardedEngine, PartitionMapIsContiguousAndBalanced) {
  ShardedEngine e(7, /*node_count=*/103, plan(4, 1, SimTime::ms(1)));
  std::vector<std::size_t> sizes(4, 0);
  std::uint32_t prev = 0;
  for (std::uint32_t i = 0; i < 103; ++i) {
    const std::uint32_t p = e.partition_of(i);
    ASSERT_LT(p, 4u);
    ASSERT_GE(p, prev);  // contiguous blocks
    prev = p;
    sizes[p]++;
  }
  for (std::size_t n : sizes) EXPECT_TRUE(n == 25 || n == 26);
}

TEST(ShardedEngine, DegeneratePartitioningClampsToSinglePartition) {
  // More partitions than nodes is a degenerate layout: rather than running
  // empty shards, the engine collapses to one partition, which delegates to
  // the plain sequential loop (and is therefore byte-identical to it — see
  // ParallelDeterminism.DegeneratePartitioningMatchesSequentialEngine).
  ShardedEngine e(7, /*node_count=*/3, plan(16, 2, SimTime::ms(1)));
  EXPECT_EQ(e.partitions(), 1u);
}

TEST(ShardedEngine, SingleNodePartitionsAreAllowed) {
  // partitions == node_count is legal (every message crosses a boundary).
  ShardedEngine e(7, /*node_count=*/5, plan(5, 2, SimTime::ms(1)));
  EXPECT_EQ(e.partitions(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(e.partition_of(i), i);
}

TEST(ShardedEngine, MakeRngMatchesSequentialSimulator) {
  ShardedEngine e(2009, 10, plan(2, 1, SimTime::ms(1)));
  Simulator s(2009);
  for (std::uint64_t tag : {7ull, 0x41535347ull, 0x4348524eull}) {
    Rng a = e.make_rng(tag);
    Rng b = s.make_rng(tag);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a.next(), b.next());
  }
}

TEST(ShardedEngine, ControlTasksRunBeforeLocalEventsAtSameTime) {
  ShardedEngine e(1, 8, plan(2, 1, SimTime::ms(1)));
  std::vector<std::string> order;
  e.sim_of(0).at(SimTime::ms(5), [&] { order.push_back("event"); });
  e.schedule_control(SimTime::ms(5), [&] { order.push_back("control"); });
  e.run_until(SimTime::ms(6));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "control");
  EXPECT_EQ(order[1], "event");
}

TEST(ShardedEngine, ControlTasksAtEqualTimesKeepSchedulingOrder) {
  ShardedEngine e(1, 4, plan(2, 1, SimTime::ms(1)));
  std::vector<int> order;
  e.schedule_control(SimTime::ms(3), [&] { order.push_back(1); });
  e.schedule_control(SimTime::ms(3), [&] {
    order.push_back(2);
    // A control task may chain another at the same timestamp.
    e.schedule_control(SimTime::ms(3), [&] { order.push_back(3); });
  });
  e.run_until(SimTime::ms(4));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ShardedEngine, CountsEventsAcrossPartitions) {
  ShardedEngine e(1, 6, plan(3, 1, SimTime::ms(1)));
  for (std::uint32_t p = 0; p < 3; ++p) {
    e.sim_of(p).at(SimTime::ms(1 + p), [] {});
  }
  const std::uint64_t ran = e.run_until(SimTime::ms(10));
  EXPECT_EQ(ran, 3u);
  EXPECT_EQ(e.events_executed(), 3u);
}

// The acceptance-critical property: cross-partition messages with *colliding
// arrival timestamps* are imported in an order that depends only on the seed
// and partition count — never on how many workers drive the run.
std::vector<std::uint32_t> arrival_order(std::size_t workers) {
  constexpr std::size_t kNodes = 12;
  ShardedEngine engine(99, kNodes, plan(4, workers, SimTime::ms(10)));
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)),
                            std::make_unique<net::NoLoss>());
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    fabric.register_node(NodeId{i}, BitRate::unlimited(),
                         [&order, i](const net::Datagram&) { order.push_back(i); });
  }
  // Every node sends to node 0 at t=0 with constant latency: all arrivals
  // collide at exactly t=10ms, from three different source partitions.
  for (std::uint32_t i = 3; i < kNodes; ++i) {
    fabric.send(NodeId{i}, NodeId{0}, net::MsgClass::kPropose,
                net::BufferRef::copy_of(std::vector<std::uint8_t>(8, 0x42)));
  }
  engine.run_until(SimTime::ms(20));
  return order;
}

TEST(ShardedEngine, CrossPartitionCollidingArrivalsOrderIndependentOfWorkers) {
  const auto base = arrival_order(1);
  EXPECT_EQ(base.size(), 9u);
  for (std::size_t workers : {2u, 3u, 8u}) {
    EXPECT_EQ(arrival_order(workers), base) << "workers=" << workers;
  }
}

TEST(ShardedEngineDeathTest, MultiPartitionRequiresPositiveEpoch) {
  EXPECT_DEATH(ShardedEngine(1, 8, plan(2, 1, SimTime::zero())), "epoch");
}

// --- adaptive epoch widening ------------------------------------------------

TEST(ShardedEngine, EpochWideningSkipsQuiescentGaps) {
  // Two events 100 ms and 150 ms out, 1 ms epochs: a literal barrier loop
  // would grind ~200 empty epochs; widening fast-forwards to each event.
  // The barrier schedule is a function of the layout alone, so the counters
  // must not move with the worker count.
  std::uint64_t base_run = 0, base_skipped = 0;
  for (std::size_t workers : {1u, 2u, 4u}) {
    ShardedEngine e(7, 8, plan(2, workers, SimTime::ms(1)));
    std::vector<SimTime> fired;
    e.sim_of(0).at(SimTime::ms(100), [&] { fired.push_back(e.sim_of(0).now()); });
    e.sim_of(1).at(SimTime::ms(150), [&] { fired.push_back(e.sim_of(1).now()); });
    e.run_until(SimTime::ms(200));
    ASSERT_EQ(fired.size(), 2u) << "workers=" << workers;
    EXPECT_EQ(fired[0], SimTime::ms(100));
    EXPECT_EQ(fired[1], SimTime::ms(150));
    EXPECT_GT(e.epochs_skipped(), 0u);
    EXPECT_LT(e.epochs_run(), 10u);  // vs ~200 without widening
    if (workers == 1) {
      base_run = e.epochs_run();
      base_skipped = e.epochs_skipped();
    } else {
      EXPECT_EQ(e.epochs_run(), base_run) << "workers=" << workers;
      EXPECT_EQ(e.epochs_skipped(), base_skipped) << "workers=" << workers;
    }
  }
}

TEST(ShardedEngine, EpochWideningOffGrindsEveryEpoch) {
  ShardedEngine e(7, 8, plan(2, 1, SimTime::ms(1), /*epoch_widening=*/false));
  int fired = 0;
  e.sim_of(0).at(SimTime::ms(100), [&] { ++fired; });
  e.run_until(SimTime::ms(200));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.epochs_skipped(), 0u);
  EXPECT_GE(e.epochs_run(), 200u);
}

TEST(ShardedEngine, WideningNeverJumpsScheduledControlTasks) {
  // An otherwise-empty engine: widening wants to jump straight to `until`,
  // but a control task at 50 ms caps the jump — it must run at exactly its
  // scheduled barrier, and an event scheduled *by* it must still run too.
  ShardedEngine e(7, 8, plan(2, 1, SimTime::ms(1)));
  std::vector<SimTime> control_at;
  std::vector<SimTime> event_at;
  e.schedule_control(SimTime::ms(50), [&] {
    control_at.push_back(e.now());
    e.sim_of(1).at(SimTime::ms(120), [&] { event_at.push_back(e.sim_of(1).now()); });
  });
  e.run_until(SimTime::ms(200));
  ASSERT_EQ(control_at.size(), 1u);
  EXPECT_EQ(control_at[0], SimTime::ms(50));
  ASSERT_EQ(event_at.size(), 1u);
  EXPECT_EQ(event_at[0], SimTime::ms(120));
  EXPECT_GT(e.epochs_skipped(), 0u);
}

TEST(ShardedEngineDeathTest, WideningPastAControlTaskIsFatal) {
  // The guard behind the widening rule: jumping a barrier past a scheduled
  // control task (retransmit snapshots, churn crashes...) would silently
  // reorder the run. The engine's own widen targets always respect the cap;
  // this pins the assertion that would catch a future regression.
  ShardedEngine e(1, 8, plan(2, 1, SimTime::ms(1)));
  e.schedule_control(SimTime::ms(5), [] {});
  EXPECT_DEATH(e.assert_widen_safe(SimTime::ms(6)), "control");
}

// --- cross-partition exchange ----------------------------------------------

// One delivery as a receiver sees it: sender, payload length, and payload
// contents (first/last bytes). Distinct per-sender payload sizes make any
// packing offset bug (wrong slice, wrong segment) visible.
using Delivery = std::tuple<std::uint32_t, std::size_t, std::uint8_t, std::uint8_t>;

constexpr std::uint32_t kExchangeNodes = 24;

// The send script: two bursts (so sender-side segment recycling across
// epochs is exercised), every node sending once per burst with sizes that
// vary per sender so records land at distinct offsets.
struct ScriptedSend {
  std::uint32_t src;
  std::uint32_t dst;
  std::vector<std::uint8_t> payload;
};
ScriptedSend scripted_send(int burst, std::uint32_t i) {
  std::vector<std::uint8_t> payload(64 + 97 * i % 1500 + 1, static_cast<std::uint8_t>(i + burst));
  payload.back() = static_cast<std::uint8_t>(0xF0 + burst);
  return {i, (i * 7 + 1 + static_cast<std::uint32_t>(burst)) % kExchangeNodes,
          std::move(payload)};
}

// Runs the script through the batched exchange over four partitions and
// returns every receiver's deliveries in arrival order. A node's deliveries
// run on its partition's worker, so each slot is written by one thread only.
std::vector<std::vector<Delivery>> exchange_deliveries(std::size_t workers) {
  ShardedEngine engine(123, kExchangeNodes, plan(4, workers, SimTime::ms(5)));
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(SimTime::ms(10)),
                            std::make_unique<net::NoLoss>());
  std::vector<std::vector<Delivery>> got(kExchangeNodes);
  for (std::uint32_t i = 0; i < kExchangeNodes; ++i) {
    fabric.register_node(NodeId{i}, BitRate::unlimited(), [&got, i](const net::Datagram& d) {
      got[i].emplace_back(d.src.value(), d.bytes.size(), d.bytes.data()[0],
                          d.bytes.data()[d.bytes.size() - 1]);
    });
  }
  for (int burst = 0; burst < 2; ++burst) {
    for (std::uint32_t i = 0; i < kExchangeNodes; ++i) {
      const ScriptedSend s = scripted_send(burst, i);
      fabric.send(NodeId{s.src}, NodeId{s.dst}, net::MsgClass::kServe,
                  net::BufferRef::copy_of(s.payload));
    }
    engine.run_until(engine.now() + SimTime::ms(25));
  }
  return got;
}

TEST(ShardedEngine, BatchedExchangeMatchesSendScriptReference) {
  // Independent reference: what each receiver must get, computed from the
  // send script alone (no fabric involved), sorted per receiver.
  std::vector<std::vector<Delivery>> expected(kExchangeNodes);
  for (int burst = 0; burst < 2; ++burst) {
    for (std::uint32_t i = 0; i < kExchangeNodes; ++i) {
      const ScriptedSend s = scripted_send(burst, i);
      expected[s.dst].emplace_back(s.src, s.payload.size(), s.payload.front(),
                                   s.payload.back());
    }
  }
  for (auto& per_node : expected) std::sort(per_node.begin(), per_node.end());

  const auto base = exchange_deliveries(1);
  for (std::size_t workers : {1u, 4u}) {
    const auto got = workers == 1 ? base : exchange_deliveries(workers);
    EXPECT_EQ(got, base) << "arrival order must not depend on workers=" << workers;
    for (std::uint32_t n = 0; n < kExchangeNodes; ++n) {
      auto sorted = got[n];
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, expected[n]) << "receiver " << n << ", workers=" << workers;
    }
  }
}

TEST(ShardedEngine, OversizedPayloadSurvivesBatchedExchange) {
  // A payload larger than the 256 KiB pack segment gets a dedicated
  // exact-size segment; contents must arrive intact.
  constexpr std::size_t kBig = 300 * 1024;
  ShardedEngine engine(5, 4, plan(2, 1, SimTime::ms(1)));
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(SimTime::ms(2)),
                            std::make_unique<net::NoLoss>());
  std::vector<std::uint8_t> got;
  for (std::uint32_t i = 0; i < 4; ++i) {
    fabric.register_node(NodeId{i}, BitRate::unlimited(), [&got](const net::Datagram& d) {
      got = d.bytes.to_vector();
    });
  }
  std::vector<std::uint8_t> payload(kBig);
  for (std::size_t i = 0; i < kBig; ++i) payload[i] = static_cast<std::uint8_t>(i * 31 >> 3);
  fabric.send(NodeId{0}, NodeId{3}, net::MsgClass::kServe, net::BufferRef::copy_of(payload));
  engine.run_until(SimTime::ms(10));
  EXPECT_EQ(got, payload);
}

}  // namespace
}  // namespace hg::sim
