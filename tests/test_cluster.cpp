// LP clustering (partition/cluster.h + pdes/cluster.h): fused ClusterLps
// must be invisible to correctness.  The acceptance bar:
//   - the BFS clustering pass is deterministic, contiguous and size-bounded;
//   - fusion rewrites topology + initial events without touching the model;
//   - clustered runs on every engine (machine, threaded, distributed) commit
//     exactly the flat sequential oracle's traces, including under
//     rebalancing, checkpointing and a SIGKILLed rank;
//   - a >= 100k-signal generated netlist runs clustered end to end;
//   - RunStats reports per-CLUSTER rows whose history gauges match the
//     legacy totals, and GVT rounds scan O(workers), not O(workers x LPs).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>

#include "circuits/fsm.h"
#include "circuits/random_circuit.h"
#include "common/bytes.h"
#include "obs/metrics.h"
#include "partition/cluster.h"
#include "partition/partition.h"
#include "pdes/cluster.h"
#include "pdes/distributed.h"
#include "pdes/machine.h"
#include "pdes/sequential.h"
#include "pdes/threaded.h"
#include "vhdl/monitor.h"
#include "watchdog.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VSIM_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define VSIM_TSAN 1
#endif

namespace vsim {
namespace {

using circuits::FsmParams;
using circuits::RandomCircuitParams;
using partition::ClusterOptions;
using pdes::Configuration;
using pdes::DistributedEngine;
using pdes::FusedGraph;
using pdes::LpGraph;
using pdes::MachineEngine;
using pdes::OrderingMode;
using pdes::RunConfig;
using pdes::RunStats;
using pdes::SequentialEngine;
using pdes::ThreadedEngine;
using pdes::WorkerCrash;
using vhdl::Design;
using vhdl::SignalId;
using vhdl::TraceRecorder;

// The distributed runs fork; TSan does not support real work in children of
// a multi-threaded process (watchdog + sanitizer threads exist by then).
#ifdef VSIM_TSAN
#define SKIP_UNDER_TSAN() GTEST_SKIP() << "fork-based engine under TSan"
#else
#define SKIP_UNDER_TSAN() (void)0
#endif

struct Built {
  std::unique_ptr<LpGraph> graph;
  std::unique_ptr<Design> design;
  std::unique_ptr<TraceRecorder> recorder;
};

Built build_fsm() {
  Built b;
  b.graph = std::make_unique<LpGraph>();
  b.design = std::make_unique<Design>(*b.graph);
  FsmParams p;
  p.lanes = 2;
  p.width = 4;
  p.input_stop = 400;
  const auto c = circuits::build_fsm(*b.design, p);
  std::vector<SignalId> probes = c.state;
  probes.push_back(c.parity);
  b.recorder = std::make_unique<TraceRecorder>(*b.design, probes);
  b.design->finalize();
  return b;
}

RandomCircuitParams random_params() {
  RandomCircuitParams p;
  p.seed = 11;
  p.num_inputs = 5;
  p.num_gates = 60;
  p.num_dffs = 10;
  p.input_stop = 500;
  return p;
}

Built build_random(const RandomCircuitParams& p) {
  Built b;
  b.graph = std::make_unique<LpGraph>();
  b.design = std::make_unique<Design>(*b.graph);
  const auto c = circuits::build_random_circuit(*b.design, p);
  b.recorder = std::make_unique<TraceRecorder>(*b.design, c.observable);
  b.design->finalize();
  return b;
}

// A circuit built flat, then fused.  The Built keeps the Design + recorder
// alive (their hooks see inner flat ids); `fused` is what engines run.
struct Fused {
  Built b;
  FusedGraph fused;
};

Fused fuse(Built b, std::size_t target_size, std::uint64_t seed = 1) {
  ClusterOptions opts;
  opts.target_size = target_size;
  opts.seed = seed;
  const auto assignment = partition::cluster_bfs(*b.graph, opts);
  FusedGraph f = pdes::fuse_clusters(*b.graph, assignment);
  return Fused{std::move(b), std::move(f)};
}

void run_oracle(Built& ref, PhysTime until) {
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(until);
}

RunStats run_machine(Fused& fz, RunConfig rc) {
  const auto part =
      partition::round_robin(fz.fused.graph.size(), rc.num_workers);
  MachineEngine eng(fz.fused.graph, part, rc);
  eng.set_commit_hook(fz.b.recorder->hook());
  return eng.run();
}

RunStats run_threaded(Fused& fz, RunConfig rc) {
  const auto part =
      partition::round_robin(fz.fused.graph.size(), rc.num_workers);
  ThreadedEngine eng(fz.fused.graph, part, rc);
  eng.set_commit_hook(fz.b.recorder->hook());
  return eng.run();
}

std::chrono::seconds watchdog_limit() {
  if (const char* s = std::getenv("VSIM_TEST_WATCHDOG_S"))
    return std::chrono::seconds(std::atoi(s));
  return std::chrono::seconds(static_cast<long>(120 * pdes::time_scale()));
}

RunStats run_distributed(Fused& fz, RunConfig rc, const char* label,
                         std::chrono::seconds limit = std::chrono::seconds(0)) {
  const auto part =
      partition::round_robin(fz.fused.graph.size(), rc.num_workers);
  DistributedEngine eng(fz.fused.graph, part, rc);
  testutil::Watchdog wd(label, limit.count() > 0 ? limit : watchdog_limit(),
                        [&eng](std::FILE* f) { eng.debug_dump(f); });
  eng.set_commit_hook(fz.b.recorder->hook());
  return eng.run();
}

RunConfig dist_config(PhysTime until) {
  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = Configuration::kDynamic;
  rc.until = until;
  rc.gvt_interval = 24;
  rc.net.heartbeat_interval_ms = 5;
  rc.net.heartbeat_timeout_ms = 10'000;
  return rc;
}

// ---------------------------------------------------------------------------
// Clustering pass.

TEST(ClusterPass, DeterministicContiguousBounded) {
  Built b = build_random(random_params());
  ClusterOptions opts;
  opts.target_size = 16;
  opts.seed = 3;
  const auto a1 = partition::cluster_bfs(*b.graph, opts);
  ASSERT_EQ(a1.size(), b.graph->size());

  const std::size_t k = partition::num_clusters(a1);
  ASSERT_GT(k, 1u);
  std::vector<std::size_t> sizes(k, 0);
  for (const std::uint32_t c : a1) {
    ASSERT_LT(c, k);
    ++sizes[c];
  }
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_GT(sizes[c], 0u) << "cluster " << c << " empty";
    EXPECT_LE(sizes[c], opts.target_size);
  }

  // Same options, same assignment -- bit for bit.
  EXPECT_EQ(partition::cluster_bfs(*b.graph, opts), a1);

  // A different seed is a different but equally valid clustering.
  opts.seed = 4;
  const auto a2 = partition::cluster_bfs(*b.graph, opts);
  ASSERT_EQ(a2.size(), a1.size());
  const std::size_t k2 = partition::num_clusters(a2);
  std::vector<std::size_t> sizes2(k2, 0);
  for (const std::uint32_t c : a2) ++sizes2[c];
  for (std::size_t c = 0; c < k2; ++c) {
    EXPECT_GT(sizes2[c], 0u);
    EXPECT_LE(sizes2[c], opts.target_size);
  }
}

TEST(ClusterPass, MaxClustersIsAHardBound) {
  Built b = build_random(random_params());
  const std::size_t n = b.graph->size();
  ClusterOptions opts;
  opts.target_size = 1;  // would yield n singleton clusters on its own
  opts.max_clusters = 8;
  const auto a = partition::cluster_bfs(*b.graph, opts);
  const std::size_t k = partition::num_clusters(a);
  EXPECT_LE(k, opts.max_clusters);
  EXPECT_GT(k, 1u);
  // The merge pass may push individual regions past the raised per-region
  // target, but never unboundedly: 2x the ceiling covers one forced merge.
  const std::size_t cap = (n + opts.max_clusters - 1) / opts.max_clusters;
  std::vector<std::size_t> sizes(k, 0);
  for (const std::uint32_t c : a) ++sizes[c];
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_GT(sizes[c], 0u);
    EXPECT_LE(sizes[c], 2 * cap);
  }
}

// ---------------------------------------------------------------------------
// Fusion.

TEST(ClusterFuse, TopologyAndInitialEventsRewritten) {
  Built b = build_fsm();
  const std::size_t flat_size = b.graph->size();
  const std::size_t flat_initials = b.graph->initial_events().size();
  ClusterOptions opts;
  opts.target_size = 8;
  const auto assignment = partition::cluster_bfs(*b.graph, opts);
  FusedGraph f = pdes::fuse_clusters(*b.graph, assignment);

  EXPECT_EQ(f.flat_size, flat_size);
  EXPECT_EQ(f.num_clusters, partition::num_clusters(assignment));
  EXPECT_EQ(f.graph.size(), f.num_clusters);
  EXPECT_EQ(f.table->cluster_of.size(), flat_size);

  // Every flat LP landed in the cluster the assignment named, with a local
  // index that round-trips through the table.
  std::vector<std::size_t> counted(f.num_clusters, 0);
  for (pdes::LpId flat = 0; flat < flat_size; ++flat) {
    EXPECT_EQ(f.table->cluster_of[flat], assignment[flat]);
    ++counted[f.table->cluster_of[flat]];
  }
  for (std::size_t c = 0; c < f.num_clusters; ++c) {
    const auto& cl = dynamic_cast<const pdes::ClusterLp&>(f.graph.lp(c));
    EXPECT_EQ(cl.size(), counted[c]) << "cluster " << c;
  }

  // Channels: deduplicated, inter-cluster only (intra-cluster edges became
  // local queue operations and must not exist in the runtime topology).
  for (pdes::LpId c = 0; c < f.graph.size(); ++c) {
    std::set<pdes::LpId> seen;
    for (const pdes::LpId dst : f.graph.fan_out(c)) {
      EXPECT_NE(dst, c) << "self-channel on cluster " << c;
      EXPECT_TRUE(seen.insert(dst).second) << "duplicate channel " << c
                                           << " -> " << dst;
    }
  }

  // Initial events: readdressed to the owning cluster, flat target in sub.
  ASSERT_EQ(f.graph.initial_events().size(), flat_initials);
  for (const pdes::Event& ev : f.graph.initial_events()) {
    ASSERT_NE(ev.sub, pdes::kInvalidLp);
    EXPECT_EQ(ev.dst, f.table->cluster_of[ev.sub]);
    EXPECT_EQ(pdes::inner_dst(ev), ev.sub);
  }
}

// ---------------------------------------------------------------------------
// Engine equivalence: clustered runs commit exactly the flat oracle traces.

TEST(ClusterEquivalence, MachineMatchesOracleAcrossConfigs) {
  struct Mode {
    const char* name;
    Configuration config;
    std::size_t workers;
  };
  const Mode kModes[] = {
      {"optimistic", Configuration::kAllOptimistic, 3},
      {"conservative", Configuration::kAllConservative, 3},
      {"mixed", Configuration::kMixed, 4},
      {"dynamic", Configuration::kDynamic, 4},
  };
  struct Circuit {
    const char* name;
    Built (*build)();
    PhysTime until;
  };
  const auto build_rnd = [] { return build_random(random_params()); };
  const Circuit kCircuits[] = {
      {"fsm", &build_fsm, 300},
      {"random", +build_rnd, 400},
  };
  for (const Circuit& tc : kCircuits) {
    Built ref = tc.build();
    run_oracle(ref, tc.until);
    for (const Mode& m : kModes) {
      for (const std::size_t target : {4u, 32u}) {
        Fused fz = fuse(tc.build(), target);
        RunConfig rc;
        rc.num_workers = m.workers;
        rc.configuration = m.config;
        rc.ordering = OrderingMode::kArbitrary;
        rc.until = tc.until;
        rc.gvt_interval = 32;
        const RunStats st = run_machine(fz, rc);
        EXPECT_FALSE(st.deadlocked)
            << tc.name << "/" << m.name << "/t" << target;
        EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *fz.b.recorder), "")
            << tc.name << "/" << m.name << "/t" << target;
        EXPECT_GT(st.total_committed(), 0u);
      }
    }
  }
}

TEST(ClusterEquivalence, ThreadedMatchesOracle) {
  const auto until = PhysTime{400};
  Built ref = build_random(random_params());
  run_oracle(ref, until);

  Fused fz = fuse(build_random(random_params()), /*target_size=*/8);
  RunConfig rc;
  rc.num_workers = 3;
  rc.configuration = Configuration::kDynamic;
  rc.until = until;
  rc.gvt_interval = 32;
  const RunStats st = run_threaded(fz, rc);
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *fz.b.recorder), "");
  EXPECT_GT(st.total_committed(), 0u);
}

// Clusters are the migration and checkpoint unit: a clustered run with the
// PR 5 rebalancer and periodic checkpoints enabled stays bit-identical.
TEST(ClusterEquivalence, RebalanceAndCheckpointMatchOracle) {
  const auto until = PhysTime{400};
  Built ref = build_random(random_params());
  run_oracle(ref, until);

  Fused fz = fuse(build_random(random_params()), /*target_size=*/6);
  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = Configuration::kDynamic;
  rc.until = until;
  rc.gvt_interval = 16;
  rc.rebalance.period = 2;
  rc.rebalance.imbalance_trigger = 0.05;
  rc.rebalance.max_moves = 3;
  rc.checkpoint.period = 2;
  const RunStats st = run_machine(fz, rc);
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *fz.b.recorder), "");
  EXPECT_GT(st.checkpoint.checkpoints, 0u);
}

TEST(ClusterEquivalence, DistributedFourRankMatchesOracle) {
  SKIP_UNDER_TSAN();
  const auto until = PhysTime{300};
  Built ref = build_fsm();
  run_oracle(ref, until);

  Fused fz = fuse(build_fsm(), /*target_size=*/8);
  const RunStats st = run_distributed(
      fz, dist_config(until), "ClusterEquivalence.DistributedFourRank");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *fz.b.recorder), "");
}

// A SIGKILLed rank in a clustered run: recovery restores ClusterLp state
// through the byte codec (encode_state on capture, decode + full-snapshot
// restore on the survivors), and the finish is still bit-identical.
TEST(ClusterFault, DistributedClusteredCrashRecovers) {
  SKIP_UNDER_TSAN();
  const auto until = PhysTime{300};
  Built ref = build_fsm();
  run_oracle(ref, until);

  Fused fz = fuse(build_fsm(), /*target_size=*/8);
  RunConfig rc = dist_config(until);
  rc.checkpoint.period = 2;
  rc.transport.faults.crashes.push_back(WorkerCrash{2, 60});
  const RunStats st = run_distributed(
      fz, rc, "ClusterFault.DistributedClusteredCrash");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GE(st.checkpoint.recoveries, 1u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *fz.b.recorder), "");
}

// ---------------------------------------------------------------------------
// Scale: a six-figure netlist, clustered, on the real engines.

TEST(ClusterScale, HundredKSignalThreadedMatchesOracle) {
  const RandomCircuitParams p = circuits::sized_random_params(100'000, 5);
  const auto until = PhysTime{30};

  Built ref = build_random(p);
  ASSERT_GE(ref.design->num_signals(), 100'000u);
  run_oracle(ref, until);

  Fused fz = fuse(build_random(p), /*target_size=*/64);
  ASSERT_GE(fz.fused.flat_size, 150'000u);  // signals + processes
  ASSERT_GE(fz.fused.num_clusters, 1'000u);
  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = Configuration::kDynamic;
  rc.until = until;
  rc.gvt_interval = 256;
  const RunStats st = run_threaded(fz, rc);
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *fz.b.recorder), "");
  EXPECT_GT(st.total_committed(), 0u);
  // RunStats rows are per CLUSTER -- the report stayed cluster-sized even
  // though the model has 150k+ flat LPs.
  EXPECT_EQ(st.per_lp.size(), fz.fused.num_clusters);
}

TEST(ClusterScale, HundredKSignalDistributedMatchesOracle) {
  SKIP_UNDER_TSAN();
  const RandomCircuitParams p = circuits::sized_random_params(100'000, 5);
  const auto until = PhysTime{15};

  Built ref = build_random(p);
  run_oracle(ref, until);

  Fused fz = fuse(build_random(p), /*target_size=*/64);
  RunConfig rc = dist_config(until);
  rc.gvt_interval = 256;
  const RunStats st =
      run_distributed(fz, rc, "ClusterScale.HundredKSignalDistributed",
                      std::chrono::seconds(
                          static_cast<long>(360 * pdes::time_scale())));
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *fz.b.recorder), "");
}

// ---------------------------------------------------------------------------
// Stats + metrics under clustering.

// Satellite regression: the metrics snapshot must agree with the legacy
// RunStats totals when LPs are fused -- per-cluster history peaks feed the
// tw.peak_history / tw.total_history gauges, and per_lp has one row per
// CLUSTER (the schedulable unit), not per flat model LP.
TEST(ClusterStats, MetricsMatchLegacyTotalsUnderClustering) {
  Fused fz = fuse(build_random(random_params()), /*target_size=*/8);
  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = Configuration::kAllOptimistic;
  rc.until = 400;
  rc.gvt_interval = 32;
  const RunStats st = run_machine(fz, rc);
  ASSERT_FALSE(st.deadlocked);

  EXPECT_EQ(st.per_lp.size(), fz.fused.num_clusters);
  EXPECT_LT(st.per_lp.size(), fz.fused.flat_size);
  // Optimistic execution must actually have saved history for the gauges to
  // be a meaningful memory proxy.
  EXPECT_GT(st.peak_history(), 0u);
  EXPECT_EQ(st.metrics.gauge(obs::Gauge::kPeakHistory),
            static_cast<double>(st.peak_history()));
  EXPECT_EQ(st.metrics.gauge(obs::Gauge::kTotalHistory),
            static_cast<double>(st.total_history()));
  EXPECT_EQ(st.metrics.counter(obs::Metric::kStateSaves), [&] {
    std::uint64_t n = 0;
    for (const auto& l : st.per_lp) n += l.state_saves;
    return n;
  }());
}

// Hierarchical GVT evidence: a machine-model round reduces over per-worker
// ready queues, each contributing its heap top plus its parked clusters, so
// the scan-item counter grows with workers and blocked clusters -- NOT with
// rounds x LP count as a flat scan would.
TEST(ClusterStats, GvtScanIsPerWorkerNotPerLp) {
  Fused fz = fuse(build_random(random_params()), /*target_size=*/4);
  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = Configuration::kDynamic;
  rc.until = 400;
  rc.gvt_interval = 16;
  const RunStats st = run_machine(fz, rc);
  ASSERT_FALSE(st.deadlocked);
  ASSERT_GT(st.gvt_rounds, 0u);
  ASSERT_GT(fz.fused.num_clusters, rc.num_workers);

  const std::uint64_t scanned = st.metrics.counter(obs::Metric::kGvtScanItems);
  EXPECT_GT(scanned, 0u);
  EXPECT_LT(scanned, st.gvt_rounds * fz.fused.num_clusters)
      << "rounds " << st.gvt_rounds << ", clusters "
      << fz.fused.num_clusters;
}

// The threaded engine's reduction is two-level too: each worker contributes
// only its owned clusters to its local minimum, so scan items are bounded by
// rounds x clusters (one visit per owned cluster per round), never
// rounds x workers x clusters.
TEST(ClusterStats, ThreadedGvtScanBounded) {
  Fused fz = fuse(build_random(random_params()), /*target_size=*/4);
  RunConfig rc;
  rc.num_workers = 3;
  rc.configuration = Configuration::kDynamic;
  rc.until = 400;
  rc.gvt_interval = 32;
  const RunStats st = run_threaded(fz, rc);
  ASSERT_FALSE(st.deadlocked);
  ASSERT_GT(st.gvt_rounds, 0u);
  const std::uint64_t scanned = st.metrics.counter(obs::Metric::kGvtScanItems);
  EXPECT_GT(scanned, 0u);
  EXPECT_LE(scanned, st.gvt_rounds * fz.fused.num_clusters);
}

// ---------------------------------------------------------------------------
// ClusterLp byte codec.

// encode_state must serialize a cluster's full inner state such that a twin
// cluster (same structure, never run) decodes + restores to byte-identical
// state -- this is exactly the path distributed checkpoint recovery takes.
TEST(ClusterCodec, EncodeDecodeRoundTripsThroughTwin) {
  Fused ran = fuse(build_fsm(), /*target_size=*/8);
  Fused twin = fuse(build_fsm(), /*target_size=*/8);
  ASSERT_EQ(ran.fused.num_clusters, twin.fused.num_clusters);

  // Evolve one copy away from the initial state.
  SequentialEngine seq(ran.fused.graph);
  seq.run(120);

  for (pdes::LpId c = 0; c < ran.fused.graph.size(); ++c) {
    auto& src = ran.fused.graph.lp(c);
    auto& dst = twin.fused.graph.lp(c);
    ASSERT_TRUE(src.can_save_state());

    const auto state = src.save_state();
    std::vector<std::uint8_t> buf;
    bytes::Writer w(buf);
    ASSERT_TRUE(src.encode_state(*state, w)) << "cluster " << c;
    ASSERT_FALSE(buf.empty());

    bytes::Reader r(buf);
    auto decoded = dst.decode_state(r);
    ASSERT_NE(decoded, nullptr) << "cluster " << c;
    dst.restore_state(*decoded);

    // Re-encoding the restored twin reproduces the original bytes.
    const auto dst_state = dst.save_state();
    std::vector<std::uint8_t> buf2;
    bytes::Writer w2(buf2);
    ASSERT_TRUE(dst.encode_state(*dst_state, w2)) << "cluster " << c;
    EXPECT_EQ(buf2, buf) << "cluster " << c;
  }
}

}  // namespace
}  // namespace vsim
