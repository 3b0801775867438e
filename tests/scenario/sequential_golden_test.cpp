// Sequential golden regression under churn: a 200-receiver HEAP run on the
// sequential engine (workers = 0) with 2% loss and a 20% mass crash must
// match the checked-in digest. The fig05 golden has no churn, so this is the
// run that pins the sequential path through control scheduling: churn kills
// and failure-detection drains.
//
// Regenerate after an *intended* behaviour change with:
//   HG_UPDATE_GOLDEN=1 ./hg_tests --gtest_filter='SequentialGolden.*'
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/experiment.hpp"

#ifndef HG_GOLDEN_DIR
#error "HG_GOLDEN_DIR must point at tests/golden"
#endif

namespace hg::scenario {
namespace {

std::string golden_path() {
  return std::string(HG_GOLDEN_DIR) + "/sequential_churn_200_digest.txt";
}

ExperimentConfig churn_200() {
  ExperimentConfig cfg;
  cfg.node_count = 200;
  cfg.stream_windows = 6;
  cfg.tail = sim::SimTime::sec(20.0);
  cfg.mode = core::Mode::kHeap;
  cfg.distribution = BandwidthDistribution::ref691();
  cfg.loss_rate = 0.02;
  cfg.churn.push_back(ChurnEvent{sim::SimTime::sec(6.0), 0.2});
  cfg.seed = 2009;
  cfg.workers = 0;
  return cfg;
}

std::string run_digest() {
  Experiment e(churn_200());
  e.run();
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof buf, "events=%llu delivered=%llu lost=%llu\n",
                static_cast<unsigned long long>(e.events_executed()),
                static_cast<unsigned long long>(e.fabric().datagrams_delivered()),
                static_cast<unsigned long long>(e.fabric().datagrams_lost()));
  out += buf;
  // Per class, over the surviving receivers: every window's decode lag,
  // summed (finite ones), maximised, and the never-decoded windows counted.
  const auto& classes = e.config().distribution.classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    std::size_t nodes = 0, crashed = 0, undecoded = 0;
    double lag_sum = 0, lag_max = 0;
    for (std::size_t i = 0; i < e.receivers(); ++i) {
      if (e.info(i).class_index != static_cast<int>(c)) continue;
      if (e.info(i).crashed) {
        ++crashed;
        continue;
      }
      ++nodes;
      for (double lag : e.analyzer().window_decode_lags(e.player(i))) {
        if (std::isinf(lag)) {
          ++undecoded;
        } else {
          lag_sum += lag;
          if (lag > lag_max) lag_max = lag;
        }
      }
    }
    std::snprintf(buf, sizeof buf,
                  "%s nodes=%zu crashed=%zu undecoded=%zu lag_sum=%.17g lag_max=%.17g\n",
                  classes[c].name.c_str(), nodes, crashed, undecoded, lag_sum, lag_max);
    out += buf;
  }
  return out;
}

TEST(SequentialGolden, Churn200MatchesGolden) {
  const std::string digest = run_digest();
  if (std::getenv("HG_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << golden_path();
    out << digest;
    return;
  }
  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with HG_UPDATE_GOLDEN=1 to create it)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), digest)
      << "sequential-engine output drifted from the checked-in digest — if intended, "
         "regenerate with HG_UPDATE_GOLDEN=1 and justify in the commit";
}

}  // namespace
}  // namespace hg::scenario
