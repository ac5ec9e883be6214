// Property-based fuzzing: random synchronous netlists (delta-heavy, mixed
// delays, resolved buses, registered feedback) simulated under random
// protocol configurations must always match the sequential oracle.
//
// The StressMatrix suite at the bottom is the exhaustive determinism gate
// for the hot-path data structures (event_queue.h, mailbox.h): every
// Configuration preset crossed with both OrderingModes, swept over
// VSIM_STRESS_SEEDS seeds (default 6 for the tier-1 run; ci.sh runs the
// full 200-seed sweep via the `stress` ctest label).
#include <gtest/gtest.h>

#include <cstdlib>

#include "circuits/random_circuit.h"
#include "partition/partition.h"
#include "pdes/machine.h"
#include "pdes/sequential.h"
#include "pdes/threaded.h"
#include "vhdl/monitor.h"
#include "watchdog.h"

namespace vsim {
namespace {

using circuits::RandomCircuitParams;
using pdes::Configuration;
using pdes::RunConfig;

struct Built {
  std::unique_ptr<pdes::LpGraph> graph;
  std::unique_ptr<vhdl::Design> design;
  std::unique_ptr<vhdl::TraceRecorder> recorder;
};

Built build(const RandomCircuitParams& p) {
  Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  const auto c = circuits::build_random_circuit(*b.design, p);
  b.recorder = std::make_unique<vhdl::TraceRecorder>(*b.design,
                                                     c.observable);
  b.design->finalize();
  return b;
}

class FuzzEquivalence : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEquivalence, MachineEnginesMatchOracle) {
  RandomCircuitParams p;
  p.seed = GetParam();
  // Vary structure with the seed.
  p.num_gates = 20 + (p.seed * 13) % 40;
  p.num_dffs = 4 + (p.seed * 7) % 8;
  p.zero_delay_pct = static_cast<int>((p.seed * 29) % 100);
  const PhysTime until = 400;

  Built ref = build(p);
  pdes::SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(until);

  // Configuration derived from the seed.
  const Configuration configs[] = {
      Configuration::kAllOptimistic, Configuration::kAllConservative,
      Configuration::kMixed, Configuration::kDynamic};
  for (std::size_t i = 0; i < 2; ++i) {
    Built par = build(p);
    RunConfig rc;
    rc.num_workers = 2 + (p.seed + i) % 7;
    rc.configuration = configs[(p.seed + i) % 4];
    rc.gvt_interval = 16 + (p.seed % 3) * 24;
    rc.max_history = (p.seed % 2) ? 32 : 0;
    rc.cancellation = (p.seed + i) % 3 == 0
                          ? pdes::CancellationPolicy::kLazy
                          : pdes::CancellationPolicy::kAggressive;
    rc.until = until;
    const auto part =
        (p.seed + i) % 2 ? partition::bipartite_bfs(*par.graph,
                                                    rc.num_workers)
                         : partition::round_robin(par.graph->size(),
                                                  rc.num_workers);
    pdes::MachineEngine eng(*par.graph, part, rc);
    eng.set_commit_hook(par.recorder->hook());
    const auto st = eng.run();
    EXPECT_FALSE(st.deadlocked)
        << "seed " << p.seed << " cfg " << to_string(rc.configuration);
    EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "")
        << "seed " << p.seed << " workers " << rc.num_workers << " cfg "
        << to_string(rc.configuration);
  }
}

TEST_P(FuzzEquivalence, ThreadedEngineMatchesOracle) {
  RandomCircuitParams p;
  p.seed = GetParam() * 1000003;
  p.num_gates = 24 + (p.seed * 11) % 24;
  p.zero_delay_pct = static_cast<int>((p.seed * 31) % 100);
  const PhysTime until = 300;

  Built ref = build(p);
  pdes::SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(until);

  Built par = build(p);
  RunConfig rc;
  rc.num_workers = 2 + p.seed % 3;
  rc.configuration = Configuration::kDynamic;
  rc.until = until;
  pdes::ThreadedEngine eng(
      *par.graph, partition::round_robin(par.graph->size(), rc.num_workers),
      rc);
  eng.set_commit_hook(par.recorder->hook());
  const auto st = eng.run();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "")
      << "seed " << p.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence,
                         testing::Range<std::uint64_t>(1, 25));

// ---- dynamic load balancing ----
//
// Migration must be invisible to committed results: at a fixed seed, runs
// with rebalancing off and on (aggressive cadence, starting from the
// locality-preserving but load-blind `blocks` placement) all match the
// sequential oracle bit-for-bit.

TEST_P(FuzzEquivalence, RebalancingMachineEngineMatchesOracle) {
  RandomCircuitParams p;
  p.seed = GetParam() * 7919;
  p.num_gates = 20 + (p.seed * 13) % 32;
  p.num_dffs = 3 + (p.seed * 5) % 6;
  p.zero_delay_pct = static_cast<int>((p.seed * 29) % 100);
  const PhysTime until = 300;

  Built ref = build(p);
  pdes::SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(until);

  for (const bool lb : {false, true}) {
    Built par = build(p);
    RunConfig rc;
    rc.num_workers = 2 + p.seed % 5;
    rc.configuration = Configuration::kMixed;
    rc.gvt_interval = 16 + (p.seed % 3) * 24;
    rc.until = until;
    if (lb) {
      rc.rebalance.period = 2;
      rc.rebalance.imbalance_trigger = 0.05;
      rc.rebalance.max_moves = 3;
    }
    pdes::MachineEngine eng(
        *par.graph, partition::blocks(par.graph->size(), rc.num_workers),
        rc);
    eng.set_commit_hook(par.recorder->hook());
    const auto st = eng.run();
    EXPECT_FALSE(st.deadlocked) << "seed " << p.seed << " lb=" << lb;
    EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "")
        << "seed " << p.seed << " workers " << rc.num_workers
        << " lb=" << lb;
    if (!lb) {
      EXPECT_EQ(st.metrics.counter(obs::Metric::kMigrations), 0u);
    }
  }
}

TEST_P(FuzzEquivalence, RebalancingThreadedEngineMatchesOracle) {
  RandomCircuitParams p;
  p.seed = GetParam() * 104729;
  p.num_gates = 24 + (p.seed * 11) % 24;
  p.zero_delay_pct = static_cast<int>((p.seed * 31) % 100);
  const PhysTime until = 250;

  Built ref = build(p);
  pdes::SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(until);

  Built par = build(p);
  RunConfig rc;
  rc.num_workers = 2 + p.seed % 3;
  rc.configuration = Configuration::kDynamic;
  rc.rebalance.period = 2;
  rc.rebalance.imbalance_trigger = 0.05;
  rc.rebalance.max_moves = 3;
  rc.until = until;
  pdes::ThreadedEngine eng(
      *par.graph, partition::blocks(par.graph->size(), rc.num_workers), rc);
  eng.set_commit_hook(par.recorder->hook());
  const auto st = eng.run();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "")
      << "seed " << p.seed;
}

// ---- seed-sweep stress matrix ----

std::uint64_t stress_seeds() {
  if (const char* s = std::getenv("VSIM_STRESS_SEEDS")) {
    const long long v = std::atoll(s);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 6;  // tier-1 smoke sweep; CI overrides with 200
}

TEST(StressMatrix, EveryConfigurationAndOrderingMatchesOracleBitExact) {
  const std::uint64_t seeds = stress_seeds();
  testutil::Watchdog wd(
      "StressMatrix.EveryConfigurationAndOrderingMatchesOracleBitExact",
      std::chrono::seconds(120 + 3 * seeds));

  const Configuration configs[] = {
      Configuration::kAllOptimistic, Configuration::kAllConservative,
      Configuration::kMixed, Configuration::kDynamic};
  const pdes::OrderingMode orders[] = {pdes::OrderingMode::kArbitrary,
                                       pdes::OrderingMode::kUserConsistent};
  const PhysTime until = 250;

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    RandomCircuitParams p;
    p.seed = seed * 2654435761u;
    p.num_gates = 16 + (p.seed * 13) % 32;
    p.num_dffs = 3 + (p.seed * 7) % 6;
    p.zero_delay_pct = static_cast<int>((p.seed * 29) % 100);

    Built ref = build(p);
    pdes::SequentialEngine seq(*ref.graph);
    seq.set_commit_hook(ref.recorder->hook());
    seq.run(until);

    for (std::size_t ci = 0; ci < 4; ++ci) {
      for (const pdes::OrderingMode ord : orders) {
        Built par = build(p);
        RunConfig rc;
        rc.num_workers = 2 + (seed + ci) % 5;
        rc.configuration = configs[ci];
        rc.ordering = ord;
        // Global-sync keeps every cell live: the random netlists contain
        // zero-delay cycles that starve the null-message strategy's
        // lookahead, and the global safe bound is ordering-agnostic, so
        // user-consistent cells exercise the >=-straggler rollback paths
        // without changing the committed trajectory.
        rc.strategy = pdes::ConservativeStrategy::kGlobalSync;
        rc.gvt_interval = 16 + (seed % 3) * 24;
        rc.max_history = (seed % 2) ? 48 : 0;
        rc.cancellation = (seed + ci) % 3 == 0
                              ? pdes::CancellationPolicy::kLazy
                              : pdes::CancellationPolicy::kAggressive;
        rc.until = until;
        const auto part =
            (seed + ci) % 2
                ? partition::bipartite_bfs(*par.graph, rc.num_workers)
                : partition::round_robin(par.graph->size(), rc.num_workers);
        pdes::MachineEngine eng(*par.graph, part, rc);
        eng.set_commit_hook(par.recorder->hook());
        const auto st = eng.run();
        ASSERT_FALSE(st.deadlocked)
            << "seed " << seed << " cfg " << to_string(rc.configuration)
            << " ordering "
            << (ord == pdes::OrderingMode::kArbitrary ? "arbitrary"
                                                      : "user-consistent");
        ASSERT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder),
                  "")
            << "seed " << seed << " workers " << rc.num_workers << " cfg "
            << to_string(rc.configuration) << " ordering "
            << (ord == pdes::OrderingMode::kArbitrary ? "arbitrary"
                                                      : "user-consistent");
      }
    }
  }
}

// Seed-sweep determinism gate for LP migration: every seed runs the machine
// and the threaded engine with an aggressive rebalance cadence from a
// deliberately imbalanced `blocks` placement and must match the oracle
// bit-for-bit.  The checkpoint period equals the rebalance period, so
// capture and migration land on the same rounds of the shared round
// pipeline.  Across the sweep at least one run must actually migrate
// (otherwise the gate would be vacuously green), and the imbalance gauge
// must have been published.
TEST(StressMatrix, RebalancingMatchesOracleBitExact) {
  const std::uint64_t seeds = stress_seeds();
  testutil::Watchdog wd("StressMatrix.RebalancingMatchesOracleBitExact",
                        std::chrono::seconds(120 + 2 * seeds));
  const PhysTime until = 250;
  std::uint64_t total_migrations = 0;
  bool gauge_seen = false;

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    RandomCircuitParams p;
    p.seed = seed * 2654435761u + 17;
    p.num_gates = 16 + (p.seed * 13) % 32;
    p.num_dffs = 3 + (p.seed * 7) % 6;
    p.zero_delay_pct = static_cast<int>((p.seed * 29) % 100);

    Built ref = build(p);
    pdes::SequentialEngine seq(*ref.graph);
    seq.set_commit_hook(ref.recorder->hook());
    seq.run(until);

    const Configuration configs[] = {Configuration::kAllOptimistic,
                                     Configuration::kMixed,
                                     Configuration::kDynamic};
    for (std::size_t ci = 0; ci < 3; ++ci) {
      RunConfig rc;
      rc.num_workers = 2 + (seed + ci) % 5;
      rc.configuration = configs[ci];
      rc.strategy = pdes::ConservativeStrategy::kGlobalSync;
      rc.gvt_interval = 16 + (seed % 3) * 24;
      rc.max_history = (seed % 2) ? 48 : 0;
      rc.until = until;
      rc.rebalance.period = 1 + (seed + ci) % 3;
      rc.rebalance.imbalance_trigger = 0.05;
      rc.rebalance.max_moves = 2 + ci;
      for (const bool threaded : {false, true}) {
        // The threaded leg also captures on the rebalance rounds.
        rc.checkpoint.period = threaded ? rc.rebalance.period : 0;
        Built par = build(p);
        const pdes::Partition part =
            partition::blocks(par.graph->size(), rc.num_workers);
        pdes::RunStats st;
        if (threaded) {
          pdes::ThreadedEngine eng(*par.graph, part, rc);
          eng.set_commit_hook(par.recorder->hook());
          st = eng.run();
        } else {
          pdes::MachineEngine eng(*par.graph, part, rc);
          eng.set_commit_hook(par.recorder->hook());
          st = eng.run();
        }
        const char* engine = threaded ? "threaded" : "machine";
        ASSERT_FALSE(st.deadlocked) << engine << " seed " << seed << " cfg "
                                    << to_string(rc.configuration);
        ASSERT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "")
            << engine << " seed " << seed << " workers " << rc.num_workers
            << " cfg " << to_string(rc.configuration);
        total_migrations += st.metrics.counter(obs::Metric::kMigrations);
        if (st.metrics.gauge(obs::Gauge::kLbImbalance) > 0.0)
          gauge_seen = true;
        EXPECT_GE(st.metrics.counter(obs::Metric::kRebalanceRounds), 1u)
            << engine << " seed " << seed;
      }
    }
  }
  EXPECT_GT(total_migrations, 0u);
  EXPECT_TRUE(gauge_seen);
}

// Seed-sweep determinism gate for the rate-based adaptation controller:
// kDynamic with a deliberately trigger-happy policy (single-window
// decisions, tiny evidence thresholds, tight history cap so pinning fires
// too) must stay bit-identical to the sequential oracle on both in-process
// engines.  Across the sweep the policy must actually flip modes somewhere
// -- a gate that never demotes or promotes would be vacuously green.
TEST(StressMatrix, DynamicAdaptationMatchesOracleBitExact) {
  const std::uint64_t seeds = stress_seeds();
  testutil::Watchdog wd("StressMatrix.DynamicAdaptationMatchesOracleBitExact",
                        std::chrono::seconds(120 + 2 * seeds));
  const PhysTime until = 250;
  std::uint64_t total_flips = 0;

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    RandomCircuitParams p;
    p.seed = seed * 2654435761u + 101;
    p.num_gates = 16 + (p.seed * 13) % 32;
    p.num_dffs = 3 + (p.seed * 7) % 6;
    p.zero_delay_pct = static_cast<int>((p.seed * 29) % 100);

    Built ref = build(p);
    pdes::SequentialEngine seq(*ref.graph);
    seq.set_commit_hook(ref.recorder->hook());
    seq.run(until);

    for (const bool threaded : {false, true}) {
      Built par = build(p);
      RunConfig rc;
      rc.num_workers = 2 + (seed + (threaded ? 1 : 0)) % 5;
      rc.configuration = Configuration::kDynamic;
      rc.gvt_interval = 8 + (seed % 3) * 16;
      rc.max_history = 16;  // tight cap: memory stalls + pinning exercised
      rc.until = until;
      rc.adapt.min_window_events = 2;
      rc.adapt.min_decision_windows = 1;
      rc.adapt.rate_alpha = 1.0;
      rc.adapt.rollback_rate_high = 0.05;
      rc.adapt.rollback_rate_low = 0.05;
      rc.adapt.pin_stall_windows = 1 + seed % 2;
      rc.adapt.max_demote_fraction = (seed % 2) ? 1.0 : 0.05;
      const auto part = partition::round_robin(par.graph->size(),
                                               rc.num_workers);
      pdes::RunStats st;
      if (threaded) {
        pdes::ThreadedEngine eng(*par.graph, part, rc);
        eng.set_commit_hook(par.recorder->hook());
        st = eng.run();
      } else {
        pdes::MachineEngine eng(*par.graph, part, rc);
        eng.set_commit_hook(par.recorder->hook());
        st = eng.run();
      }
      ASSERT_FALSE(st.deadlocked)
          << "seed " << seed << (threaded ? " threaded" : " machine");
      ASSERT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "")
          << "seed " << seed << " workers " << rc.num_workers
          << (threaded ? " threaded" : " machine");
      total_flips += st.metrics.counter(obs::Metric::kAdaptDemotions) +
                     st.metrics.counter(obs::Metric::kAdaptPromotions) +
                     st.metrics.counter(obs::Metric::kAdaptPins);
    }
  }
  EXPECT_GT(total_flips, 0u);
}

}  // namespace
}  // namespace vsim
