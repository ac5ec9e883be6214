// Partitioner tests: validity, balance, determinism, the bipartite scheme's
// cut-size advantage on circuit-shaped graphs, and the dynamic rebalance
// planner (greedy diffusion, hysteresis, orphan redistribution).
#include <gtest/gtest.h>

#include <utility>

#include "circuits/fsm.h"
#include "circuits/iir.h"
#include "partition/partition.h"
#include "partition/rebalance.h"

namespace vsim::partition {
namespace {

struct Dummy final : pdes::LogicalProcess {
  using LogicalProcess::LogicalProcess;
  void simulate(const pdes::Event&, pdes::SimContext&) override {}
  std::unique_ptr<pdes::LpState> save_state() const override {
    return std::make_unique<pdes::LpState>();
  }
  void restore_state(const pdes::LpState&) override {}
};

/// n disconnected dummy LPs; callers add channels as needed.
pdes::LpGraph make_dummies(int n) {
  pdes::LpGraph g;
  for (int i = 0; i < n; ++i)
    g.add(std::make_unique<Dummy>("d" + std::to_string(i)));
  return g;
}

void check_valid(const pdes::Partition& p, std::size_t n_lps,
                 std::size_t n_workers) {
  ASSERT_EQ(p.size(), n_lps);
  std::vector<std::size_t> counts(n_workers, 0);
  for (auto w : p) {
    ASSERT_LT(w, n_workers);
    ++counts[w];
  }
  // Balance: per-worker counts differ by at most one, and every worker
  // gets at least one LP whenever there are enough to go around.
  const std::size_t lo = n_lps / n_workers;
  const std::size_t hi = lo + (n_lps % n_workers ? 1 : 0);
  for (auto c : counts) {
    EXPECT_LE(c, hi);
    EXPECT_GE(c, lo);
    if (n_lps >= n_workers) {
      EXPECT_GE(c, 1u);
    }
  }
}

class PartitionTest : public testing::TestWithParam<std::size_t> {};

TEST_P(PartitionTest, RoundRobinIsValidAndBalanced) {
  const std::size_t workers = GetParam();
  check_valid(round_robin(553, workers), 553, workers);
}

TEST_P(PartitionTest, BlocksIsValidAndBalanced) {
  const std::size_t workers = GetParam();
  check_valid(blocks(553, workers), 553, workers);
}

TEST_P(PartitionTest, BipartiteBfsIsValidAndBalanced) {
  const std::size_t workers = GetParam();
  pdes::LpGraph g;
  vhdl::Design d(g);
  circuits::FsmParams fp;
  fp.lanes = 4;
  circuits::build_fsm(d, fp);
  d.finalize();
  check_valid(bipartite_bfs(g, workers), g.size(), workers);
}

INSTANTIATE_TEST_SUITE_P(Workers, PartitionTest,
                         testing::Values(1, 2, 3, 7, 8, 16));

TEST(Partition, BipartiteReducesCutOnCircuits) {
  pdes::LpGraph g;
  vhdl::Design d(g);
  circuits::IirParams ip;
  ip.sections = 3;
  circuits::build_iir(d, ip);
  d.finalize();
  for (std::size_t workers : {2u, 4u, 8u}) {
    const auto rr = round_robin(g.size(), workers);
    const auto bf = bipartite_bfs(g, workers);
    EXPECT_LT(cut_size(g, bf), cut_size(g, rr)) << workers << " workers";
  }
}

TEST(Partition, Deterministic) {
  pdes::LpGraph g;
  vhdl::Design d(g);
  circuits::FsmParams fp;
  circuits::build_fsm(d, fp);
  d.finalize();
  EXPECT_EQ(bipartite_bfs(g, 8), bipartite_bfs(g, 8));
  EXPECT_EQ(round_robin(g.size(), 8), round_robin(g.size(), 8));
}

TEST(Partition, CutSizeCountsCrossWorkerChannels) {
  pdes::LpGraph g = make_dummies(4);
  g.add_channel(0, 1);
  g.add_channel(1, 2);
  g.add_channel(2, 3);
  EXPECT_EQ(cut_size(g, {0, 0, 0, 0}), 0u);
  EXPECT_EQ(cut_size(g, {0, 0, 1, 1}), 1u);
  EXPECT_EQ(cut_size(g, {0, 1, 0, 1}), 3u);
}

// --- Regression: remainder distribution (n=6, workers=4 used to yield
// loads 2/2/2/0, idling a worker the paper's equal-count scheme promises
// work to). ---

TEST(Partition, NoEmptyWorkerWhenEnoughLps) {
  for (const auto& [n, w] : {std::pair<std::size_t, std::size_t>{6, 4},
                            {7, 4},
                            {9, 8},
                            {10, 3},
                            {16, 16},
                            {17, 16}}) {
    check_valid(blocks(n, w), n, w);
    pdes::LpGraph g = make_dummies(static_cast<int>(n));
    for (std::size_t i = 0; i + 1 < n; ++i)
      g.add_channel(static_cast<pdes::LpId>(i),
                    static_cast<pdes::LpId>(i + 1));
    check_valid(bipartite_bfs(g, w), n, w);
  }
}

// --- Regression: BFS order on disconnected / degenerate graphs covers
// every component exactly once. ---

TEST(Partition, BipartiteBfsHandlesDisconnectedGraphs) {
  // Two disconnected chains plus an isolated LP: 3 components, 7 LPs.
  pdes::LpGraph g = make_dummies(7);
  g.add_channel(0, 1);
  g.add_channel(1, 2);
  g.add_channel(4, 5);
  g.add_channel(5, 6);  // LP 3 is isolated
  for (std::size_t w : {1u, 2u, 3u, 7u}) check_valid(bipartite_bfs(g, w), 7, w);
}

TEST(Partition, BipartiteBfsSingleLpGraph) {
  pdes::LpGraph g = make_dummies(1);
  for (std::size_t w : {1u, 2u, 8u}) {
    const auto p = bipartite_bfs(g, w);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_LT(p[0], w);
  }
}

// --- Regression: a bidirectional channel pair is ONE physical connection;
// the cut metric used to count it twice. ---

TEST(Partition, CutSizeDoesNotDoubleCountBidirectionalPairs) {
  pdes::LpGraph g = make_dummies(2);
  g.add_channel(0, 1);
  g.add_channel(1, 0);
  EXPECT_EQ(cut_size(g, {0, 1}), 1u);
  EXPECT_EQ(cut_size(g, {0, 0}), 0u);
  // Parallel channels in the same direction are also one pair.
  pdes::LpGraph h = make_dummies(2);
  h.add_channel(0, 1);
  h.add_channel(0, 1);
  EXPECT_EQ(cut_size(h, {0, 1}), 1u);
}

TEST(Partition, CutSizeEmptyAndSingleLpGraphs) {
  pdes::LpGraph empty;
  EXPECT_EQ(cut_size(empty, {}), 0u);
  pdes::LpGraph one = make_dummies(1);
  EXPECT_EQ(cut_size(one, {0}), 0u);
}

// --- Dynamic rebalance planner (greedy diffusion with hysteresis). ---

pdes::RebalanceConfig lb_config() {
  pdes::RebalanceConfig cfg;
  cfg.period = 1;
  cfg.max_moves = 4;
  cfg.imbalance_trigger = 0.25;
  return cfg;
}

TEST(Rebalance, MovesWorkFromOverloadedToUnderloaded) {
  pdes::LpGraph g = make_dummies(4);
  g.add_channel(0, 1);
  g.add_channel(1, 2);
  g.add_channel(2, 3);
  const pdes::Partition part{0, 0, 0, 1};
  const std::vector<double> work{10.0, 10.0, 4.0, 1.0};
  const std::vector<bool> alive{true, true};
  const RebalancePlan plan =
      plan_rebalance(g, part, work, alive, lb_config());
  ASSERT_FALSE(plan.empty());
  EXPECT_LT(plan.imbalance_after, plan.imbalance_before);
  for (const Migration& mv : plan.moves) {
    EXPECT_EQ(mv.from, 0u);
    EXPECT_EQ(mv.to, 1u);
  }
}

TEST(Rebalance, HysteresisLeavesBalancedPlacementAlone) {
  pdes::LpGraph g = make_dummies(4);
  const pdes::Partition part{0, 0, 1, 1};
  const std::vector<double> work{5.0, 5.0, 5.0, 4.0};  // ~10 vs 9: within 25%
  const std::vector<bool> alive{true, true};
  EXPECT_TRUE(plan_rebalance(g, part, work, alive, lb_config()).empty());
  // And a second planning pass over the planner's own output is a no-op:
  // placement cannot thrash.
  const pdes::Partition skewed{0, 0, 0, 1};
  const std::vector<double> w2{10.0, 10.0, 4.0, 1.0};
  pdes::Partition cur = skewed;
  RebalancePlan plan = plan_rebalance(g, cur, w2, alive, lb_config());
  for (const Migration& mv : plan.moves) cur[mv.lp] = mv.to;
  const RebalancePlan again = plan_rebalance(g, cur, w2, alive, lb_config());
  EXPECT_TRUE(again.empty());
}

TEST(Rebalance, BoundsMovesPerRound) {
  pdes::LpGraph g = make_dummies(16);
  pdes::Partition part(16, 0);
  part[15] = 1;
  std::vector<double> work(16, 3.0);
  pdes::RebalanceConfig cfg = lb_config();
  cfg.max_moves = 2;
  const RebalancePlan plan =
      plan_rebalance(g, part, work, {true, true}, cfg);
  EXPECT_LE(plan.moves.size(), 2u);
  EXPECT_FALSE(plan.empty());
}

TEST(Rebalance, DeterministicPlans) {
  pdes::LpGraph g = make_dummies(8);
  for (pdes::LpId i = 0; i + 1 < 8; ++i) g.add_channel(i, i + 1);
  pdes::Partition part{0, 0, 0, 0, 0, 1, 1, 1};
  std::vector<double> work{9, 8, 7, 6, 5, 1, 1, 1};
  const auto a = plan_rebalance(g, part, work, {true, true}, lb_config());
  const auto b = plan_rebalance(g, part, work, {true, true}, lb_config());
  ASSERT_EQ(a.moves.size(), b.moves.size());
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    EXPECT_EQ(a.moves[i].lp, b.moves[i].lp);
    EXPECT_EQ(a.moves[i].to, b.moves[i].to);
  }
}

TEST(Rebalance, DeadWorkersAreNeitherSourceNorDestination) {
  pdes::LpGraph g = make_dummies(6);
  const pdes::Partition part{0, 0, 0, 0, 2, 2};
  const std::vector<double> work{8.0, 8.0, 8.0, 8.0, 1.0, 1.0};
  const std::vector<bool> alive{true, false, true};
  const RebalancePlan plan =
      plan_rebalance(g, part, work, alive, lb_config());
  ASSERT_FALSE(plan.empty());
  for (const Migration& mv : plan.moves) {
    EXPECT_NE(mv.from, 1u);
    EXPECT_NE(mv.to, 1u);
  }
}

TEST(Rebalance, CutTieBreakPrefersKeepingNeighboursTogether) {
  // LPs 0 and 1 have identical work; 1's only neighbour already lives on
  // the destination worker, so moving 1 is free in cut terms while moving 0
  // would cut a channel.
  pdes::LpGraph g = make_dummies(4);
  g.add_channel(0, 2);  // 0's neighbour stays on worker 0
  g.add_channel(1, 3);  // 1's neighbour is on worker 1
  const pdes::Partition part{0, 0, 0, 1};
  const std::vector<double> work{6.0, 6.0, 6.0, 1.0};
  const RebalancePlan plan =
      plan_rebalance(g, part, work, {true, true}, lb_config());
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.moves[0].lp, 1u);
}

TEST(Rebalance, RedistributeOrphansBalancesAndPrefersNeighbours) {
  pdes::LpGraph g = make_dummies(6);
  g.add_channel(4, 2);  // orphan 4's neighbour lives on worker 2
  // Worker 1 died owning LPs 3, 4, 5.
  pdes::Partition part{0, 2, 2, 1, 1, 1};
  const std::vector<double> work{2.0, 2.0, 2.0, 1.0, 1.0, 1.0};
  const std::vector<bool> alive{true, false, true};
  redistribute_orphans(g, part, work, alive);
  std::vector<std::size_t> counts(3, 0);
  for (pdes::LpId lp = 0; lp < part.size(); ++lp) {
    EXPECT_NE(part[lp], 1u) << "LP " << lp << " left on the dead worker";
    ++counts[part[lp]];
  }
  // Orphan 4 followed its neighbour to worker 2; the rest spread by load.
  EXPECT_EQ(part[4], 2u);
  EXPECT_GE(counts[0], 1u);
}

TEST(Rebalance, RedistributeOrphansWithZeroWorkSpreadsByCount) {
  pdes::LpGraph g = make_dummies(8);
  pdes::Partition part(8, 0);  // worker 0 died owning everything
  const std::vector<double> work(8, 0.0);
  const std::vector<bool> alive{false, true, true};
  redistribute_orphans(g, part, work, alive);
  std::vector<std::size_t> counts(3, 0);
  for (auto w : part) ++counts[w];
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 4u);
  EXPECT_EQ(counts[2], 4u);
}

}  // namespace
}  // namespace vsim::partition
