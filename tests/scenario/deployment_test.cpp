// Deployment builder validation + mixed protocol-stack populations.
#include "scenario/deployment.hpp"

#include <gtest/gtest.h>

#include "gossip/gossip_module.hpp"
#include "scenario/experiment.hpp"
#include "scenario/report.hpp"

namespace hg::scenario {
namespace {

PopulationPlan tiny_population(std::size_t n) {
  PopulationPlan plan;
  plan.node_count = n;
  plan.distribution = BandwidthDistribution::ref691();
  return plan;
}

TEST(DeploymentBuilderDeathTest, ChurnFractionAboveOneRejected) {
  EXPECT_DEATH(Deployment::Builder{}
                   .population(tiny_population(5))
                   .churn(ChurnPlan{{{sim::SimTime::sec(5.0), 1.5}}, {}})
                   .build(),
               "fraction must be within");
}

TEST(DeploymentBuilderDeathTest, NegativeChurnFractionRejected) {
  EXPECT_DEATH(Deployment::Builder{}
                   .population(tiny_population(5))
                   .churn(ChurnPlan{{{sim::SimTime::sec(5.0), -0.25}}, {}})
                   .build(),
               "fraction must be within");
}

TEST(DeploymentBuilderDeathTest, NonMonotoneChurnScheduleRejected) {
  EXPECT_DEATH(Deployment::Builder{}
                   .population(tiny_population(5))
                   .churn(ChurnPlan{{{sim::SimTime::sec(9.0), 0.1},
                                     {sim::SimTime::sec(5.0), 0.1}},
                                    {}})
                   .build(),
               "sorted by time");
}

TEST(DeploymentBuilder, ValidChurnScheduleBuilds) {
  auto d = Deployment::Builder{}
               .population(tiny_population(5))
               .churn(ChurnPlan{{{sim::SimTime::sec(5.0), 0.0},
                                 {sim::SimTime::sec(5.0), 0.2},
                                 {sim::SimTime::sec(9.0), 1.0}},
                                {}})
               .build();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->receivers(), 5u);
}

TEST(DeploymentBuilder, DefaultFactoryHandsOutPresetByMode) {
  PopulationPlan plan = tiny_population(3);
  plan.node.mode = core::Mode::kStandard;
  auto d = Deployment::Builder{}.population(plan).build();
  EXPECT_EQ(d->node(0).config().mode, core::Mode::kStandard);
  EXPECT_EQ(d->node(0).module_names().size(), 2u);  // gossip + player glue
}

// HEAP receivers pick aggregation partners from the whole membership, the
// standard-mode source included: the default deployment must declare that
// traffic on the source rather than count it as unknown-tag.
TEST(Deployment, HeapRunHasNoUnknownTagDatagrams) {
  ExperimentConfig cfg;
  cfg.node_count = 40;
  cfg.stream_windows = 2;
  cfg.tail = sim::SimTime::sec(10.0);
  cfg.mode = core::Mode::kHeap;
  cfg.seed = 3;
  Experiment exp(cfg);
  exp.run();

  Deployment& d = exp.deployment();
  EXPECT_GT(d.source_node().stats().ignored_datagrams, 0u);  // the path was exercised
  EXPECT_EQ(d.source_node().stats().unknown_tag_datagrams, 0u);
  for (std::size_t i = 0; i < d.receivers(); ++i) {
    EXPECT_EQ(d.node(i).stats().unknown_tag_datagrams, 0u) << "receiver " << i;
  }
}

// The tentpole's payoff scenario: a standard-gossip minority runs inside a
// HEAP deployment via the node factory — and the deployment still delivers
// the stream to (essentially) everyone.
TEST(Deployment, MixedPopulationStillConverges) {
  constexpr std::size_t kNodes = 80;
  constexpr std::uint32_t kStandardCount = 20;  // 25% fixed-fanout minority

  ExperimentConfig cfg;
  cfg.node_count = kNodes;
  cfg.stream_windows = 8;
  cfg.mode = core::Mode::kHeap;
  cfg.distribution = BandwidthDistribution::ref691();
  cfg.tail = sim::SimTime::sec(40.0);
  cfg.seed = 5;
  cfg.node_factory = [](sim::Simulator& s, net::NetworkFabric& f, membership::Directory& dir,
                        NodeId id, const core::NodeConfig& node_cfg) {
    const bool standard_minority = id.value() >= 1 && id.value() <= kStandardCount;
    auto rt = standard_minority ? core::NodeRuntime::standard(s, f, dir, id, node_cfg)
                                : core::NodeRuntime::make(s, f, dir, id, node_cfg);
    // Fixed-fanout stacks (the minority AND the non-adapting source) keep
    // receiving kAggregation records from HEAP peers: expected, not junk.
    // With those declared, the whole mixed run passes under strict tags.
    if (rt->config().mode == core::Mode::kStandard) {
      rt->ignore_tag(gossip::MsgTag::kAggregation);
    }
    rt->set_strict_unknown_tags(true);
    return rt;
  };
  Experiment exp(cfg);
  exp.run();

  // Both sub-populations exist as requested.
  std::size_t standard_nodes = 0;
  for (std::size_t i = 0; i < exp.receivers(); ++i) {
    standard_nodes += exp.node(i).config().mode == core::Mode::kStandard;
  }
  EXPECT_EQ(standard_nodes, kStandardCount);

  // Convergence: at a 15 s lag, both groups enjoy a near-jitter-free stream
  // on the reference distribution.
  const auto jitter = jitter_percent_at_lag(exp, 15.0);
  EXPECT_LT(jitter.mean(), 5.0);
  double standard_jitter = 0;
  double heap_jitter = 0;
  stream::LagAnalyzer analyzer(exp.source());
  for (std::size_t i = 0; i < exp.receivers(); ++i) {
    const double j = 100.0 * analyzer.jitter_fraction(exp.player(i), 15.0);
    if (exp.node(i).config().mode == core::Mode::kStandard) {
      standard_jitter += j / kStandardCount;
    } else {
      heap_jitter += j / (kNodes - kStandardCount);
    }
  }
  EXPECT_LT(standard_jitter, 8.0);
  EXPECT_LT(heap_jitter, 8.0);
}

}  // namespace
}  // namespace hg::scenario
