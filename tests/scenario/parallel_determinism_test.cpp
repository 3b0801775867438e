// Worker-count invariance of the superstep-sharded engine, end to end: the
// same seed and partition count must produce byte-identical metrics no
// matter how many threads drive the run. This is the contract that lets
// HG_WORKERS vary freely across machines without bending any paper curve.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "scenario/report.hpp"
#include "stream/fec_module.hpp"
#include "stream/lag_analyzer.hpp"

namespace hg::scenario {
namespace {

ExperimentConfig parallel_cfg(std::size_t workers) {
  ExperimentConfig cfg;
  cfg.node_count = 96;
  cfg.stream_windows = 4;
  cfg.tail = sim::SimTime::sec(20.0);
  cfg.mode = core::Mode::kHeap;
  cfg.distribution = BandwidthDistribution::ref691();
  cfg.seed = 77;
  cfg.workers = workers;
  // Explicit: auto-partitioning keeps runs this small on one block, which
  // would not exercise the cross-partition exchange at all.
  cfg.partitions = 4;
  return cfg;
}

// Full-precision textual digest of everything the figures are built from:
// per-class curve points, wire totals, per-node upload bytes, event count.
// Compared with string equality — "close" is a bug here.
std::string digest(Experiment& e) {
  std::string out;
  char buf[128];
  for (const ClassStat& stat : jitter_free_pct_by_class(e, /*lag_sec=*/2.0)) {
    std::snprintf(buf, sizeof buf, "%s=%.17g\n", stat.class_name.c_str(), stat.value);
    out += buf;
  }
  std::int64_t uploaded = 0;
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    uploaded += e.meter(i).total_sent_bytes();
  }
  std::snprintf(buf, sizeof buf, "delivered=%llu lost=%llu uploaded=%lld events=%llu\n",
                static_cast<unsigned long long>(e.fabric().datagrams_delivered()),
                static_cast<unsigned long long>(e.fabric().datagrams_lost()),
                static_cast<long long>(uploaded),
                static_cast<unsigned long long>(e.events_executed()));
  out += buf;
  return out;
}

std::string run_digest(std::size_t workers) {
  Experiment e(parallel_cfg(workers));
  e.run();
  return digest(e);
}

TEST(ParallelDeterminism, MetricsAreByteIdenticalAcrossWorkerCounts) {
  const std::string base = run_digest(1);
  EXPECT_NE(base.find("delivered="), std::string::npos);
  for (std::size_t workers : {2u, 8u, 16u}) {
    EXPECT_EQ(run_digest(workers), base) << "workers=" << workers;
  }
}

TEST(ParallelDeterminism, RepeatedRunsAreByteIdentical) {
  EXPECT_EQ(run_digest(2), run_digest(2));
}

TEST(ParallelDeterminism, MetricsInvariantAcrossPartitionCountsAndPlacement) {
  // The partition layout — count, single-node extremes, capability-clustered
  // placement — may only move work between shards, never change a result.
  auto digest_with = [](std::uint32_t partitions, Placement placement) {
    ExperimentConfig cfg = parallel_cfg(2);
    cfg.partitions = partitions;
    cfg.placement = placement;
    Experiment e(cfg);
    e.run();
    return digest(e);
  };
  const std::string base = digest_with(4, Placement::kContiguous);
  EXPECT_NE(base.find("delivered="), std::string::npos);
  EXPECT_EQ(digest_with(2, Placement::kContiguous), base) << "partitions=2";
  EXPECT_EQ(digest_with(5, Placement::kClustered), base) << "partitions=5 clustered";
  EXPECT_EQ(digest_with(4, Placement::kClustered), base) << "clustered placement";
  // 97 partitions for 96 receivers + source: every partition holds exactly
  // one node, every datagram crosses the exchange.
  EXPECT_EQ(digest_with(97, Placement::kContiguous), base) << "single-node partitions";
}

TEST(ParallelDeterminism, DegeneratePartitioningMatchesSequentialEngine) {
  // More partitions than nodes clamps to a single partition, and a
  // single-partition "parallel" run is the sequential engine behind a
  // barrier facade — it must be *byte-identical* to workers=0, not merely
  // deterministic.
  ExperimentConfig cfg = parallel_cfg(2);
  cfg.partitions = 500;  // > 97 nodes -> clamped to 1
  Experiment par(cfg);
  par.run();

  ExperimentConfig seq_cfg = parallel_cfg(0);
  seq_cfg.partitions = 0;
  Experiment seq(seq_cfg);
  seq.run();
  EXPECT_EQ(digest(par), digest(seq));
}

TEST(ParallelDeterminism, EpochWideningPreservesChurnResults) {
  // Satellite guard for the widening rule: a churn window keeps control
  // tasks (crashes, detection notices) and retransmit timers in flight; the
  // widened run must execute every one of them at the same instant as the
  // un-widened run — digest equality includes the event count.
  auto digest_widen = [](bool widen) {
    ExperimentConfig cfg = parallel_cfg(2);
    cfg.epoch_widening = widen;
    cfg.churn.push_back(ChurnEvent{sim::SimTime::sec(6.0), 0.3});
    Experiment e(cfg);
    e.run();
    std::string out = digest(e);
    out += "epochs_run=" + std::to_string(e.deployment().engine().epochs_run());
    return out;
  };
  const std::string widened = digest_widen(true);
  const std::string literal = digest_widen(false);
  // Same simulation, different barrier schedule: everything but the
  // epochs_run trailer must match.
  EXPECT_EQ(widened.substr(0, widened.find("epochs_run=")),
            literal.substr(0, literal.find("epochs_run=")));
  const auto epochs = [](const std::string& s) {
    return std::stoull(s.substr(s.find("epochs_run=") + 11));
  };
  EXPECT_LT(epochs(widened), epochs(literal));
}

TEST(ParallelDeterminism, ChurnAndDetectionStayDeterministic) {
  auto with_churn = [](std::size_t workers) {
    ExperimentConfig cfg = parallel_cfg(workers);
    cfg.churn.push_back(ChurnEvent{sim::SimTime::sec(6.0), 0.3});
    Experiment e(cfg);
    e.run();
    std::string out = digest(e);
    std::size_t crashed = 0;
    for (std::size_t i = 0; i < e.receivers(); ++i) {
      if (e.info(i).crashed) ++crashed;
    }
    out += "crashed=" + std::to_string(crashed);
    return out;
  };
  const std::string base = with_churn(1);
  EXPECT_NE(base.find("crashed=28"), std::string::npos);  // 0.3 * 96 receivers
  for (std::size_t workers : {3u, 8u}) {
    EXPECT_EQ(with_churn(workers), base) << "workers=" << workers;
  }
}

// Real payloads on the sharded engine: every receiver's FecModule holds the
// delivered BufferRef slices of its own partition and decodes with the
// deployment's one shared codec, read by every worker at once. Decodes,
// repairs and the player's decode times must not depend on the worker count.
TEST(ParallelDeterminism, RealPayloadFecIsWorkerInvariant) {
  auto fec_digest = [](std::size_t workers) {
    ExperimentConfig cfg = parallel_cfg(workers);
    cfg.node_count = 200;
    cfg.stream_windows = 3;
    cfg.loss_rate = 0.02;
    cfg.stream.real_payloads = true;
    Experiment e(cfg);
    e.run();

    std::string out;
    char buf[160];
    std::uint64_t decoded = 0, repaired = 0;
    for (std::size_t i = 0; i < e.receivers(); ++i) {
      const auto* fec = e.node(i).find_module<stream::FecModule>();
      if (fec == nullptr) return std::string("receiver without FecModule");
      const stream::FecModule::Stats& st = fec->stats();
      decoded += st.windows_decoded;
      repaired += st.erasures_repaired;
      std::snprintf(buf, sizeof buf, "%zu: %llu %llu %llu %llu %llu |", i,
                    static_cast<unsigned long long>(st.windows_decoded),
                    static_cast<unsigned long long>(st.windows_complete),
                    static_cast<unsigned long long>(st.erasures_repaired),
                    static_cast<unsigned long long>(st.decode_failures),
                    static_cast<unsigned long long>(st.malformed_packets));
      out += buf;
      for (std::uint32_t w = 0; w < cfg.stream_windows; ++w) {
        out += " " + std::to_string(e.player(i).window(w).decode_time.as_us());
      }
      out += "\n";
    }
    std::snprintf(buf, sizeof buf, "decoded=%llu repaired=%llu\n",
                  static_cast<unsigned long long>(decoded),
                  static_cast<unsigned long long>(repaired));
    return out + buf;
  };
  const std::string base = fec_digest(1);
  // Loss makes parity repair happen, not just all-data windows.
  EXPECT_EQ(base.find("repaired=0\n"), std::string::npos) << base.substr(base.rfind("decoded="));
  EXPECT_EQ(fec_digest(4), base);
}

// A sharded churn deployment driven in 1 s run_until slices must equal one
// run_until(run_end): the events at each slice end emit cross-partition
// sends, and those must reach the next slice instead of being released
// unexchanged by its first begin_epoch.
TEST(ParallelDeterminism, SlicedRunUntilMatchesSingleCall) {
  ExperimentConfig cfg = parallel_cfg(2);
  cfg.mode = core::Mode::kStandard;
  cfg.churn.push_back(ChurnEvent{sim::SimTime::sec(6.0), 0.3});
  const sim::SimTime run_end = cfg.run_end();

  auto digest_run = [&cfg, run_end](sim::SimTime slice) {
    auto d = Deployment::Builder{}
                 .seed(cfg.seed)
                 .network(cfg.network_plan())
                 .population(cfg.population_plan())
                 .stream(cfg.stream_plan())
                 .churn(cfg.churn_plan())
                 .parallel(cfg.parallel_plan())
                 .build();
    d->start();
    for (sim::SimTime t = slice; t < run_end; t = t + slice) d->run_until(t);
    d->run_until(run_end);

    std::string out;
    char buf[128];
    std::int64_t uploaded = 0;
    for (std::size_t i = 0; i < d->receivers(); ++i) uploaded += d->meter(i).total_sent_bytes();
    std::snprintf(buf, sizeof buf, "delivered=%llu lost=%llu uploaded=%lld\n",
                  static_cast<unsigned long long>(d->fabric().datagrams_delivered()),
                  static_cast<unsigned long long>(d->fabric().datagrams_lost()),
                  static_cast<long long>(uploaded));
    out += buf;
    // Per-class window lags, receivers in id order within each class.
    const stream::LagAnalyzer analyzer(d->source());
    for (int cls = 0; cls < 3; ++cls) {
      out += "class" + std::to_string(cls) + ":";
      for (std::size_t i = 0; i < d->receivers(); ++i) {
        if (d->info(i).class_index != cls) continue;
        for (double lag : analyzer.window_decode_lags(d->player(i))) {
          std::snprintf(buf, sizeof buf, " %.17g", lag);
          out += buf;
        }
      }
      out += "\n";
    }
    return out;
  };

  const std::string whole = digest_run(run_end);
  EXPECT_EQ(digest_run(sim::SimTime::sec(1.0)), whole) << "1 s slices";
  // At this size few events fall exactly on a 1 s boundary; millisecond
  // slices put hundreds of cross-partition sends at a slice end.
  EXPECT_EQ(digest_run(sim::SimTime::ms(1)), whole) << "1 ms slices";
}

}  // namespace
}  // namespace hg::scenario
