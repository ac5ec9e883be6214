// Crash-stop worker failures with GVT-consistent checkpointing and
// deterministic recovery.
//
// The acceptance bar: a run that crashes (once, repeatedly, mid-rollback
// cascade, or with retransmissions in flight) and recovers must commit a
// trace bit-identical to the sequential oracle -- under every protocol
// configuration.  Recovery that cannot succeed (budget exhausted, no
// survivors) must surface a structured RecoveryError and never hang.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "circuits/builder.h"
#include "circuits/fsm.h"
#include "circuits/random_circuit.h"
#include "common/crc32.h"
#include "partition/partition.h"
#include "pdes/checkpoint.h"
#include "pdes/machine.h"
#include "pdes/sequential.h"
#include "pdes/threaded.h"
#include "vhdl/monitor.h"
#include "watchdog.h"

namespace vsim {
namespace {

using circuits::CircuitBuilder;
using circuits::FsmParams;
using circuits::GateKind;
using circuits::RandomCircuitParams;
using pdes::Checkpoint;
using pdes::CheckpointStore;
using pdes::Configuration;
using pdes::FaultPlan;
using pdes::MachineEngine;
using pdes::RunConfig;
using pdes::RunStats;
using pdes::SequentialEngine;
using pdes::ThreadedEngine;
using pdes::WorkerCrash;
using vhdl::SignalId;
using vhdl::TraceRecorder;

struct Built {
  std::unique_ptr<pdes::LpGraph> graph;
  std::unique_ptr<vhdl::Design> design;
  std::unique_ptr<vhdl::TraceRecorder> recorder;
};

// Same clocked-feedback netlist as the chaos suite: enough cross-LP
// traffic that a crash always loses in-flight work.
Built build_gates() {
  Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  CircuitBuilder cb(*b.design, /*gate_delay=*/2);
  const SignalId clk = cb.wire("clk");
  const SignalId a = cb.wire("a");
  const SignalId bi = cb.wire("b");
  cb.clock(clk, 25);
  cb.random_bits(a, 17, 7, 900, "rnd_a");
  cb.random_bits(bi, 11, 99, 900, "rnd_b");
  const SignalId x1 = cb.wire("x1");
  cb.gate(GateKind::kXor, {a, bi}, x1);
  const SignalId q = cb.wire("q");
  const SignalId d = cb.wire("d");
  cb.gate(GateKind::kXor, {x1, q}, d);
  const SignalId n1 = cb.wire("n1");
  cb.gate(GateKind::kNand, {a, q}, n1);
  const SignalId o1 = cb.wire("o1");
  cb.gate(GateKind::kOr, {n1, bi}, o1);
  cb.dff(clk, d, q);
  b.recorder = std::make_unique<TraceRecorder>(
      *b.design, std::vector<SignalId>{x1, q, o1});
  b.design->finalize();
  return b;
}

Built build_fsm() {
  Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  FsmParams p;
  p.lanes = 2;
  p.width = 3;
  p.input_stop = 400;
  const auto c = circuits::build_fsm(*b.design, p);
  std::vector<SignalId> probes = c.state;
  probes.push_back(c.parity);
  b.recorder = std::make_unique<TraceRecorder>(*b.design, probes);
  b.design->finalize();
  return b;
}

// Zero-delay-heavy random circuit: rollback cascades under optimistic LPs.
Built build_random() {
  Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  RandomCircuitParams p;
  p.seed = 12345;
  p.num_gates = 24;
  p.num_dffs = 5;
  p.zero_delay_pct = 40;
  const auto c = circuits::build_random_circuit(*b.design, p);
  b.recorder = std::make_unique<TraceRecorder>(*b.design, c.observable);
  b.design->finalize();
  return b;
}

using BuildFn = Built (*)();

Built run_oracle(BuildFn build, PhysTime until) {
  Built ref = build();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(until);
  return ref;
}

RunConfig base_config(Configuration config, PhysTime until) {
  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = config;
  rc.until = until;
  rc.gvt_interval = 24;
  rc.checkpoint.period = 2;
  return rc;
}

struct CkptParam {
  const char* name;
  Configuration config;
};

std::string param_name(const testing::TestParamInfo<CkptParam>& info) {
  return info.param.name;
}

class CheckpointRecovery : public testing::TestWithParam<CkptParam> {};

// Single seeded crash, every protocol configuration: the recovered run's
// committed trace must be bit-identical to the sequential oracle's.
TEST_P(CheckpointRecovery, SingleCrashMatchesOracle) {
  testutil::Watchdog wd("CheckpointRecovery.SingleCrashMatchesOracle",
                        std::chrono::seconds(120));
  const PhysTime until = 250;
  Built ref = run_oracle(&build_fsm, until);

  Built par = build_fsm();
  RunConfig rc = base_config(GetParam().config, until);
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 60});
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();

  ASSERT_FALSE(st.config_error) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_EQ(st.checkpoint.recoveries, 1u);
  EXPECT_GT(st.checkpoint.checkpoints, 1u);  // initial + periodic
  EXPECT_GT(st.checkpoint.lps_restored, 0u);
  EXPECT_GT(st.checkpoint.overhead_cost, 0.0);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "")
      << GetParam().name;
}

// Repeated crashes at P=4: recovery retires worker 1 after its first crash,
// so its second scheduled crash ({1, 150}) never fires; workers 1 and 2
// still die in separate episodes, each recovered onto the survivors.
TEST_P(CheckpointRecovery, RepeatedCrashesMatchOracle) {
  testutil::Watchdog wd("CheckpointRecovery.RepeatedCrashesMatchOracle",
                        std::chrono::seconds(120));
  const PhysTime until = 250;
  Built ref = run_oracle(&build_fsm, until);

  Built par = build_fsm();
  RunConfig rc = base_config(GetParam().config, until);
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 40});
  rc.transport.faults.crashes.push_back(WorkerCrash{2, 90});
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 150});
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();

  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
  EXPECT_GE(st.checkpoint.crashes, 2u);
  EXPECT_GE(st.checkpoint.recoveries, 2u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "")
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CheckpointRecovery,
    testing::Values(CkptParam{"optimistic", Configuration::kAllOptimistic},
                    CkptParam{"conservative", Configuration::kAllConservative},
                    CkptParam{"mixed", Configuration::kMixed},
                    CkptParam{"dynamic", Configuration::kDynamic}),
    param_name);

// A crash while optimistic LPs are mid-cascade: the zero-delay-heavy
// random circuit rolls back constantly, so the kill lands on a worker with
// speculative state and unsent anti-messages.
TEST(CheckpointRecoveryModes, CrashDuringRollbackCascade) {
  testutil::Watchdog wd("CheckpointRecoveryModes.CrashDuringRollbackCascade",
                        std::chrono::seconds(120));
  const PhysTime until = 300;
  Built ref = run_oracle(&build_random, until);

  Built par = build_random();
  RunConfig rc = base_config(Configuration::kAllOptimistic, until);
  rc.transport.faults.crashes.push_back(WorkerCrash{2, 120});
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();

  EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GT(st.total_rollbacks(), 0u);  // the cascade actually happened
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

// A crash while the reliable channel still has unacked data in flight on a
// lossy wire: recovery must discard the half-delivered timeline and the
// replay must regenerate it exactly.
TEST(CheckpointRecoveryModes, CrashWithInFlightRetransmissions) {
  testutil::Watchdog wd(
      "CheckpointRecoveryModes.CrashWithInFlightRetransmissions",
      std::chrono::seconds(120));
  const PhysTime until = 250;
  Built ref = run_oracle(&build_fsm, until);

  Built par = build_fsm();
  RunConfig rc = base_config(Configuration::kDynamic, until);
  FaultPlan& fp = rc.transport.faults;
  fp.seed = 5;
  fp.drop = 0.15;
  fp.duplicate = 0.08;
  fp.reorder = 0.30;
  fp.jitter = 1.5;
  fp.crashes.push_back(WorkerCrash{3, 70});
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();

  EXPECT_FALSE(st.transport_error) << st.transport_error->str();
  EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GT(st.transport.dropped, 0u);
  EXPECT_GT(st.transport.retransmits, 0u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

// Redistribution: the dead worker (including worker 0, the GVT
// coordinator) is retired and its LPs are spread over the survivors.
TEST(CheckpointRecoveryModes, RedistributeSurvivesCoordinatorDeath) {
  testutil::Watchdog wd(
      "CheckpointRecoveryModes.RedistributeSurvivesCoordinatorDeath",
      std::chrono::seconds(120));
  const PhysTime until = 250;
  Built ref = run_oracle(&build_fsm, until);

  Built par = build_fsm();
  RunConfig rc = base_config(Configuration::kDynamic, until);
  rc.transport.faults.crashes.push_back(WorkerCrash{0, 50});
  rc.transport.faults.crashes.push_back(WorkerCrash{2, 110});
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();

  EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 2u);
  EXPECT_EQ(st.checkpoint.recoveries, 2u);
  // Retired workers stay frozen: all post-recovery work lands on survivors.
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

// ---- dynamic load balancing under failures --------------------------------

// A crash landing between migration rounds: the post-restore replay re-runs
// the rebalancer deterministically, so recovery and migration compose.  The
// aggressive cadence (period 1, near-zero trigger) guarantees migration
// rounds actually bracket the crash.
TEST(CheckpointMigration, CrashAroundMigrationRoundsMatchesOracle) {
  testutil::Watchdog wd(
      "CheckpointMigration.CrashAroundMigrationRoundsMatchesOracle",
      std::chrono::seconds(120));
  const PhysTime until = 250;
  Built ref = run_oracle(&build_fsm, until);

  for (const std::uint64_t crash_at : {40u, 100u, 180u}) {
    Built par = build_fsm();
    RunConfig rc = base_config(Configuration::kDynamic, until);
    rc.rebalance.period = 1;
    rc.rebalance.imbalance_trigger = 0.05;
    rc.rebalance.max_moves = 3;
    rc.transport.faults.crashes.push_back(WorkerCrash{1, crash_at});
    MachineEngine eng(
        *par.graph, partition::blocks(par.graph->size(), rc.num_workers),
        rc);
    eng.set_commit_hook(par.recorder->hook());
    const RunStats st = eng.run();

    EXPECT_FALSE(st.deadlocked) << "crash at " << crash_at;
    EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
    EXPECT_EQ(st.checkpoint.crashes, 1u);
    EXPECT_GT(st.metrics.counter(obs::Metric::kRebalanceRounds), 0u);
    EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "")
        << "crash at " << crash_at;
  }
}

// Recovery + rebalancing share the orphan-placement machinery: after
// the dead worker is retired its LPs land on survivors (load- and
// cut-aware), rebalance rounds keep running over the shrunken worker set,
// and no LP is ever mapped back to the retired worker.
TEST(CheckpointMigration, RedistributeComposesWithRebalancing) {
  testutil::Watchdog wd(
      "CheckpointMigration.RedistributeComposesWithRebalancing",
      std::chrono::seconds(120));
  const PhysTime until = 250;
  Built ref = run_oracle(&build_fsm, until);

  Built par = build_fsm();
  RunConfig rc = base_config(Configuration::kDynamic, until);
  rc.rebalance.period = 2;
  rc.rebalance.imbalance_trigger = 0.05;
  rc.transport.faults.crashes.push_back(WorkerCrash{2, 70});
  MachineEngine eng(*par.graph,
                    partition::blocks(par.graph->size(), rc.num_workers),
                    rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();

  EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_EQ(st.checkpoint.recoveries, 1u);
  for (const std::uint32_t w : eng.partition()) EXPECT_NE(w, 2u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

// The threaded engine: real threads, crash-stop = thread exit.  Recovery
// redistributes over the surviving threads and the trace still matches.
TEST(CheckpointThreaded, CrashRecoversAndMatchesOracle) {
  testutil::Watchdog wd("CheckpointThreaded.CrashRecoversAndMatchesOracle",
                        std::chrono::seconds(180));
  const PhysTime until = 600;
  Built ref = run_oracle(&build_gates, until);

  Built par = build_gates();
  RunConfig rc;
  rc.num_workers = 3;
  rc.configuration = Configuration::kDynamic;
  rc.until = until;
  rc.checkpoint.period = 2;
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 30});
  ThreadedEngine eng(*par.graph,
                     partition::round_robin(par.graph->size(), rc.num_workers),
                     rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();

  ASSERT_FALSE(st.config_error) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_EQ(st.checkpoint.recoveries, 1u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

// Threaded engine with migration AND a crash in the same run: the
// coordinator's rebalance rounds and redistribute recovery use the same
// exclusive-section machinery, so they must compose without racing.
TEST(CheckpointThreaded, CrashWithRebalancingMatchesOracle) {
  testutil::Watchdog wd(
      "CheckpointThreaded.CrashWithRebalancingMatchesOracle",
      std::chrono::seconds(180));
  const PhysTime until = 600;
  Built ref = run_oracle(&build_gates, until);

  Built par = build_gates();
  RunConfig rc;
  rc.num_workers = 3;
  rc.configuration = Configuration::kDynamic;
  rc.until = until;
  rc.checkpoint.period = 2;
  rc.rebalance.period = 2;
  rc.rebalance.imbalance_trigger = 0.05;
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 30});
  ThreadedEngine eng(*par.graph,
                     partition::blocks(par.graph->size(), rc.num_workers),
                     rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();

  ASSERT_FALSE(st.config_error) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GT(st.metrics.counter(obs::Metric::kRebalanceRounds), 0u);
  for (const std::uint32_t w : eng.partition()) EXPECT_NE(w, 1u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

// Migration and crash recovery while the scheduler holds parked LPs:
// all-conservative LPs block until GVT passes them, so the ready queues
// always hold parked LPs when the coordinator migrates one (its parked
// credit and queue slot move with it) or rebuilds every queue after the
// crash.  Checkpoint capture un-parks the LPs whose history it rolls back.
TEST(CheckpointThreaded, CrashWithRebalancingWhileParkedMatchesOracle) {
  testutil::Watchdog wd(
      "CheckpointThreaded.CrashWithRebalancingWhileParkedMatchesOracle",
      std::chrono::seconds(180));
  const PhysTime until = 600;
  for (const Configuration config :
       {Configuration::kAllConservative, Configuration::kMixed}) {
    Built ref = run_oracle(&build_gates, until);
    Built par = build_gates();
    RunConfig rc;
    rc.num_workers = 3;
    rc.configuration = config;
    rc.until = until;
    rc.gvt_interval = 16;
    rc.checkpoint.period = 2;
    rc.rebalance.period = 1;
    rc.rebalance.imbalance_trigger = 0.05;
    rc.transport.faults.crashes.push_back(WorkerCrash{1, 40});
    ThreadedEngine eng(*par.graph,
                       partition::blocks(par.graph->size(), rc.num_workers),
                       rc);
    eng.set_commit_hook(par.recorder->hook());
    const RunStats st = eng.run();

    ASSERT_FALSE(st.config_error) << st.config_error->str();
    EXPECT_FALSE(st.deadlocked);
    EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
    EXPECT_EQ(st.checkpoint.crashes, 1u);
    EXPECT_EQ(st.checkpoint.recoveries, 1u);
    EXPECT_GT(st.metrics.counter(obs::Metric::kBlockedPolls), 0u);
    EXPECT_GT(st.metrics.counter(obs::Metric::kMigrations), 0u);
    for (const std::uint32_t w : eng.partition()) EXPECT_NE(w, 1u);
    EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  }
}

// Checkpointing with no crash at all must be protocol-transparent: the
// rollback-all-deferred capture may not perturb the committed trace.
TEST(CheckpointTransparency, PeriodicCheckpointsDoNotPerturbTrace) {
  testutil::Watchdog wd("CheckpointTransparency.PeriodicCheckpointsDoNotPerturbTrace",
                        std::chrono::seconds(120));
  const PhysTime until = 300;
  Built ref = run_oracle(&build_random, until);

  for (const Configuration config :
       {Configuration::kAllOptimistic, Configuration::kDynamic}) {
    Built par = build_random();
    RunConfig rc = base_config(config, until);
    rc.checkpoint.period = 1;  // every single round
    MachineEngine eng(
        *par.graph, partition::round_robin(par.graph->size(), rc.num_workers),
        rc);
    eng.set_commit_hook(par.recorder->hook());
    const RunStats st = eng.run();

    EXPECT_FALSE(st.deadlocked) << to_string(config);
    EXPECT_EQ(st.checkpoint.crashes, 0u);
    EXPECT_EQ(st.checkpoint.recoveries, 0u);
    EXPECT_GT(st.checkpoint.checkpoints, 2u);
    EXPECT_GT(st.checkpoint.overhead_cost, 0.0);
    EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "")
        << to_string(config);
  }
}

// Budget exhaustion: crash episodes beyond max_recoveries must stop the run
// with a structured RecoveryError -- never hang.  Workers 1 and 2 die in
// separate episodes against a budget of one recovery.
TEST(CheckpointFailure, RecoveryBudgetExhaustionSurfacesError) {
  testutil::Watchdog wd(
      "CheckpointFailure.RecoveryBudgetExhaustionSurfacesError",
      std::chrono::seconds(120));
  Built par = build_fsm();
  RunConfig rc = base_config(Configuration::kDynamic, 250);
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 40});
  rc.transport.faults.crashes.push_back(WorkerCrash{2, 90});
  rc.checkpoint.max_recoveries = 1;
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  const RunStats st = eng.run();  // must terminate

  ASSERT_TRUE(st.recovery_error.has_value());
  EXPECT_EQ(st.recovery_error->recoveries_used, rc.checkpoint.max_recoveries);
  EXPECT_NE(st.recovery_error->str().find("recovery error"),
            std::string::npos);
  EXPECT_NE(st.recovery_error->str().find("budget"), std::string::npos);
  EXPECT_GE(st.checkpoint.crashes, st.checkpoint.recoveries);
}

// A crash-looping cluster (every processed event is fatal): every worker
// dies before the first recovery, so nobody is left to take the LPs.
TEST(CheckpointFailure, AllWorkersDeadSurfacesError) {
  testutil::Watchdog wd("CheckpointFailure.AllWorkersDeadSurfacesError",
                        std::chrono::seconds(120));
  Built par = build_fsm();
  RunConfig rc = base_config(Configuration::kDynamic, 250);
  rc.transport.faults.crash_rate = 1.0;
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  const RunStats st = eng.run();  // must terminate

  ASSERT_TRUE(st.recovery_error.has_value());
  EXPECT_NE(st.recovery_error->str().find("no surviving worker"),
            std::string::npos);
  EXPECT_EQ(st.checkpoint.crashes, rc.num_workers);
}

// Same contract on the threaded engine.
TEST(CheckpointFailure, ThreadedBudgetExhaustionSurfacesError) {
  testutil::Watchdog wd(
      "CheckpointFailure.ThreadedBudgetExhaustionSurfacesError",
      std::chrono::seconds(180));
  Built par = build_gates();
  RunConfig rc;
  rc.num_workers = 3;
  rc.configuration = Configuration::kDynamic;
  rc.until = 600;
  rc.checkpoint.period = 2;
  rc.checkpoint.max_recoveries = 2;
  rc.transport.faults.crash_rate = 1.0;
  ThreadedEngine eng(*par.graph,
                     partition::round_robin(par.graph->size(), rc.num_workers),
                     rc);
  const RunStats st = eng.run();  // must terminate
  ASSERT_TRUE(st.recovery_error.has_value());
  EXPECT_FALSE(st.recovery_error->message.empty());
}

// Slow failure detection (large heartbeat budget) racing a tight retry cap
// on a reliable link into the dead worker: the retransmission budget runs
// out first and the run unwinds with a TransportError instead of hanging
// in the drain loop.  A light duplicate-only link fault makes the wire
// lossy, which is what composes the reliable layer and its retry cap.
TEST(CheckpointFailure, SlowDetectionLosesToRetryCap) {
  testutil::Watchdog wd("CheckpointFailure.SlowDetectionLosesToRetryCap",
                        std::chrono::seconds(120));
  Built par = build_fsm();
  RunConfig rc = base_config(Configuration::kDynamic, 250);
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 60});
  rc.transport.faults.duplicate = 0.02;
  rc.transport.max_retries = 2;
  rc.transport.rto = 8.0;  // above healthy RTT: only a dead peer times out
  rc.checkpoint.heartbeat_rounds = 50;  // detection far too slow
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  const RunStats st = eng.run();  // must terminate
  ASSERT_TRUE(st.transport_error.has_value() || st.recovery_error.has_value());
  EXPECT_GT(st.checkpoint.crashes, 0u);
}

// Determinism: crash injection, recovery and checkpointing are pure
// functions of the seed -- two identical runs agree on every counter.  The
// seeded crash rate here outruns redistribution (all four workers die, and
// the run ends in a RecoveryError), which must be just as reproducible.
// The link-fault row adds chaos on the wire to two scheduled crashes: its
// fault RNGs run on across each recovery instead of rewinding, and both
// runs still agree on every transport counter and commit the oracle trace.
TEST(CheckpointDeterminism, SameSeedSameCountersAndTrace) {
  testutil::Watchdog wd("CheckpointDeterminism.SameSeedSameCountersAndTrace",
                        std::chrono::seconds(120));
  const Built ref = run_oracle(&build_fsm, 250);
  for (const bool link_faults : {false, true}) {
    auto run_once = [link_faults](Built* out) {
      *out = build_fsm();
      RunConfig rc;
      rc.num_workers = 4;
      rc.configuration = Configuration::kDynamic;
      rc.until = 250;
      rc.gvt_interval = 24;
      rc.checkpoint.period = 2;
      FaultPlan& fp = rc.transport.faults;
      fp.seed = 9;
      if (link_faults) {
        fp.crashes = {WorkerCrash{1, 40}, WorkerCrash{3, 90}};
        fp.drop = 0.1;
        fp.duplicate = 0.05;
        fp.reorder = 0.2;
        fp.jitter = 1.0;
      } else {
        fp.crash_rate = 0.002;
      }
      rc.checkpoint.max_recoveries = 64;
      MachineEngine eng(
          *out->graph,
          partition::round_robin(out->graph->size(), rc.num_workers), rc);
      eng.set_commit_hook(out->recorder->hook());
      return eng.run();
    };
    SCOPED_TRACE(link_faults ? "crashes + link faults" : "crash rate");
    Built a_built;
    Built b_built;
    const RunStats a = run_once(&a_built);
    const RunStats b = run_once(&b_built);
    EXPECT_GT(a.checkpoint.crashes, 0u);
    EXPECT_EQ(a.checkpoint.crashes, b.checkpoint.crashes);
    EXPECT_EQ(a.checkpoint.recoveries, b.checkpoint.recoveries);
    EXPECT_EQ(a.checkpoint.checkpoints, b.checkpoint.checkpoints);
    EXPECT_EQ(a.total_committed(), b.total_committed());
    EXPECT_EQ(a.makespan, b.makespan);
    const pdes::TransportCounters& ta = a.transport;
    const pdes::TransportCounters& tb = b.transport;
    EXPECT_EQ(ta.data_sent, tb.data_sent);
    EXPECT_EQ(ta.acks_sent, tb.acks_sent);
    EXPECT_EQ(ta.delivered, tb.delivered);
    EXPECT_EQ(ta.dropped, tb.dropped);
    EXPECT_EQ(ta.duplicated, tb.duplicated);
    EXPECT_EQ(ta.reordered, tb.reordered);
    EXPECT_EQ(ta.retransmits, tb.retransmits);
    EXPECT_EQ(ta.dup_discarded, tb.dup_discarded);
    EXPECT_EQ(ta.buffered, tb.buffered);
    EXPECT_EQ(TraceRecorder::diff(*a_built.recorder, *b_built.recorder), "");
    if (!link_faults) continue;
    EXPECT_FALSE(a.recovery_error) << a.recovery_error->str();
    EXPECT_FALSE(a.transport_error) << a.transport_error->str();
    EXPECT_EQ(a.checkpoint.recoveries, 2u);
    EXPECT_GT(ta.dropped, 0u);
    EXPECT_GT(ta.retransmits, 0u);
    EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *a_built.recorder), "");
  }
}

// ---- CheckpointStore: codec + disk spill ----------------------------------

Checkpoint sample_checkpoint() {
  Checkpoint ck;
  ck.round = 7;
  ck.gvt = VirtualTime{40, 2};
  ck.last_promise = {VirtualTime{10, 0}, VirtualTime{12, 3}};
  ck.lps.resize(2);
  ck.lps[0].mode = pdes::SyncMode::kOptimistic;
  ck.lps[0].committed_ts = VirtualTime{38, 0};
  ck.lps[0].send_seq = 17;
  pdes::Event ev;
  ev.ts = VirtualTime{41, 1};
  ev.src = 0;
  ev.dst = 1;
  ev.uid = 42;
  ev.kind = 2;
  ev.payload.port = 3;
  ev.payload.scalar = -7;
  ev.payload.bits = LogicVector{Logic::k1, Logic::k0, Logic::kZ};
  ck.lps[0].pending.push_back(ev);
  ck.lps[0].pending_negatives.push_back(99);
  ck.lps[0].lazy.emplace_back(41, ev);
  ck.lps[1].pinned_conservative = true;
  ck.lps[1].in_clocks.emplace_back(0, VirtualTime{39, 0});
  return ck;
}

TEST(CheckpointStoreTest, PortableCodecRoundTrips) {
  const Checkpoint ck = sample_checkpoint();
  const auto blob = CheckpointStore::encode_portable(ck);
  ASSERT_FALSE(blob.empty());

  Checkpoint back;
  ASSERT_TRUE(CheckpointStore::decode_portable(blob, &back));
  EXPECT_EQ(back.round, ck.round);
  EXPECT_EQ(back.gvt, ck.gvt);
  EXPECT_EQ(back.last_promise.size(), ck.last_promise.size());
  ASSERT_EQ(back.lps.size(), 2u);
  EXPECT_EQ(back.lps[0].mode, pdes::SyncMode::kOptimistic);
  EXPECT_EQ(back.lps[0].send_seq, 17u);
  ASSERT_EQ(back.lps[0].pending.size(), 1u);
  EXPECT_EQ(back.lps[0].pending[0].uid, 42u);
  EXPECT_EQ(back.lps[0].pending[0].payload.scalar, -7);
  ASSERT_EQ(back.lps[0].pending[0].payload.bits.size(), 3u);
  EXPECT_EQ(back.lps[0].pending[0].payload.bits.at(2), Logic::kZ);
  EXPECT_TRUE(back.lps[1].pinned_conservative);

  // The codec is canonical: re-encoding the decode yields the same bytes.
  EXPECT_EQ(CheckpointStore::encode_portable(back), blob);
}

TEST(CheckpointStoreTest, DecodeRejectsCorruption) {
  const auto blob = CheckpointStore::encode_portable(sample_checkpoint());
  Checkpoint out;

  auto bad_magic = blob;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(CheckpointStore::decode_portable(bad_magic, &out));

  auto truncated = blob;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(CheckpointStore::decode_portable(truncated, &out));

  auto trailing = blob;
  trailing.push_back(0);
  EXPECT_FALSE(CheckpointStore::decode_portable(trailing, &out));

  EXPECT_FALSE(CheckpointStore::decode_portable({}, &out));
}

// Rewrites the codec version field (bytes 4..7, after the magic) and
// re-seals the CRC32 footer, so only the version is wrong.
std::vector<std::uint8_t> with_version(std::vector<std::uint8_t> blob,
                                       std::uint32_t version) {
  for (int i = 0; i < 4; ++i)
    blob[4 + i] = static_cast<std::uint8_t>(version >> (8 * i));
  const std::size_t body = blob.size() - 4;
  const std::uint32_t crc = common::crc32(blob.data(), body);
  for (int i = 0; i < 4; ++i)
    blob[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  return blob;
}

// A file written by the previous codec version (v3, which still carried
// the per-link transport cursor sections) is unreadable: decode rejects
// it, and the restart scan skips it for the newest current-version file.
TEST(CheckpointStoreTest, OldCodecVersionIsRejectedAndSkipped) {
  namespace fs = std::filesystem;
  const auto blob = CheckpointStore::encode_portable(sample_checkpoint());
  Checkpoint out;
  ASSERT_TRUE(CheckpointStore::decode_portable(with_version(blob, 4), &out));
  const auto old = with_version(blob, 3);
  EXPECT_FALSE(CheckpointStore::decode_portable(old, &out));

  const fs::path dir =
      fs::temp_directory_path() /
      ("vsim_ckpt_oldver_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    CheckpointStore store(/*keep=*/4, dir.string());
    for (std::uint64_t round = 1; round <= 2; ++round) {
      Checkpoint ck = sample_checkpoint();
      ck.round = round;
      store.put(std::move(ck));
    }
    EXPECT_FALSE(store.io_error().has_value()) << *store.io_error();
  }
  {
    Checkpoint ck = sample_checkpoint();
    ck.round = 5;
    const auto old5 = with_version(CheckpointStore::encode_portable(ck), 3);
    std::ofstream f(dir / "ckpt-5.bin", std::ios::binary);
    f.write(reinterpret_cast<const char*>(old5.data()),
            static_cast<std::streamsize>(old5.size()));
  }
  std::uint64_t skipped = 0;
  const auto ck = CheckpointStore::load_newest_valid(dir.string(), &skipped);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->round, 2u);
  EXPECT_EQ(skipped, 1u);
  fs::remove_all(dir);
}

TEST(CheckpointStoreTest, RingEvictsAndSpillsToDisk) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("vsim_ckpt_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  {
    CheckpointStore store(/*keep=*/2, dir.string());
    for (std::uint64_t round = 1; round <= 3; ++round) {
      Checkpoint ck = sample_checkpoint();
      ck.round = round;
      store.put(std::move(ck));
    }
    EXPECT_EQ(store.size(), 2u);  // ring evicted round 1
    ASSERT_NE(store.latest(), nullptr);
    EXPECT_EQ(store.latest()->round, 3u);
    EXPECT_FALSE(store.io_error().has_value()) << *store.io_error();
    EXPECT_GT(store.disk_bytes(), 0u);
    EXPECT_TRUE(fs::exists(dir / "ckpt-3.bin"));

    // The spilled blob is genuine: it decodes back to the checkpoint.
    std::ifstream in(dir / "ckpt-3.bin", std::ios::binary);
    std::vector<std::uint8_t> blob(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    Checkpoint back;
    EXPECT_TRUE(CheckpointStore::decode_portable(blob, &back));
    EXPECT_EQ(back.round, 3u);
  }
  fs::remove_all(dir);
}

TEST(CheckpointStoreTest, AtomicSpillLeavesNoTmpFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("vsim_ckpt_atomic_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    CheckpointStore store(/*keep=*/4, dir.string());
    for (std::uint64_t round = 1; round <= 4; ++round) {
      Checkpoint ck = sample_checkpoint();
      ck.round = round;
      store.put(std::move(ck));
    }
    EXPECT_FALSE(store.io_error().has_value()) << *store.io_error();
  }
  // Spills go through tmp + fsync + rename; a completed spill must leave
  // only final ckpt-<round>.bin names behind.
  std::size_t finals = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    if (name.rfind("ckpt-", 0) == 0) ++finals;
  }
  EXPECT_EQ(finals, 4u);
  fs::remove_all(dir);
}

TEST(CheckpointStoreTest, LoadNewestValidSkipsTornAndCorrupt) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("vsim_ckpt_scan_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    CheckpointStore store(/*keep=*/4, dir.string());
    for (std::uint64_t round = 1; round <= 3; ++round) {
      Checkpoint ck = sample_checkpoint();
      ck.round = round;
      store.put(std::move(ck));
    }
  }
  // Litter the directory the way crashes do: a torn write (truncated copy
  // of a valid snapshot), pure garbage, an empty file -- all with rounds
  // NEWER than any valid one -- plus an unrelated file the scan must skip.
  {
    std::ifstream in(dir / "ckpt-3.bin", std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream torn(dir / "ckpt-7.bin", std::ios::binary);
    torn.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
    std::ofstream junk(dir / "ckpt-9.bin", std::ios::binary);
    junk << "garbage, not a snapshot";
    std::ofstream empty(dir / "ckpt-11.bin", std::ios::binary);
    std::ofstream other(dir / "notes.txt");
    other << "unrelated";
  }
  std::uint64_t skipped = 0;
  const auto ck = CheckpointStore::load_newest_valid(dir.string(), &skipped);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->round, 3u);  // newest VALID, not newest by filename
  EXPECT_EQ(skipped, 3u);

  // A directory with nothing valid yields nullopt, not a crash.
  fs::remove(dir / "ckpt-1.bin");
  fs::remove(dir / "ckpt-2.bin");
  fs::remove(dir / "ckpt-3.bin");
  std::uint64_t skipped2 = 0;
  EXPECT_FALSE(
      CheckpointStore::load_newest_valid(dir.string(), &skipped2).has_value());
  EXPECT_EQ(skipped2, 3u);
  fs::remove_all(dir);
}

TEST(CheckpointStoreTest, DropAboveRemovesRingAndFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("vsim_ckpt_drop_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  CheckpointStore store(/*keep=*/4, dir.string());
  for (std::uint64_t round = 1; round <= 4; ++round) {
    Checkpoint ck = sample_checkpoint();
    ck.round = round;
    store.put(std::move(ck));
  }
  store.drop_above(2);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.latest(), nullptr);
  EXPECT_EQ(store.latest()->round, 2u);
  EXPECT_TRUE(fs::exists(dir / "ckpt-2.bin"));
  EXPECT_FALSE(fs::exists(dir / "ckpt-3.bin"));
  EXPECT_FALSE(fs::exists(dir / "ckpt-4.bin"));
  // The rewound timeline keeps spilling from the cut point.
  Checkpoint ck = sample_checkpoint();
  ck.round = 3;
  store.put(std::move(ck));
  EXPECT_EQ(store.latest()->round, 3u);
  EXPECT_TRUE(fs::exists(dir / "ckpt-3.bin"));
  fs::remove_all(dir);
}

// ---- Configuration validation (construction-time, structured) -------------

TEST(ConfigValidation, RejectsOutOfRangeFaultPlan) {
  FaultPlan fp;
  fp.drop = -0.1;
  auto err = validate(fp, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "faults.drop");

  fp = FaultPlan{};
  fp.crash_rate = 1.5;
  err = validate(fp, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "faults.crash_rate");
  EXPECT_NE(err->str().find("invalid configuration"), std::string::npos);

  fp = FaultPlan{};
  fp.blackout = 0.1;
  fp.blackout_span = 0;
  err = validate(fp, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "faults.blackout_span");

  fp = FaultPlan{};
  fp.crashes.push_back(WorkerCrash{7, 10});  // only 4 workers exist
  err = validate(fp, 4);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "faults.crashes");
}

TEST(ConfigValidation, RejectsBrokenCheckpointConfig) {
  RunConfig rc;
  rc.checkpoint.heartbeat_rounds = 0;
  auto err = validate(rc);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "checkpoint.heartbeat_rounds");

  rc = RunConfig{};
  rc.transport.faults.crash_rate = 0.5;
  rc.checkpoint.max_recoveries = 0;
  err = validate(rc);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "checkpoint.max_recoveries");
}

TEST(ConfigValidation, RejectsBrokenRebalanceConfig) {
  RunConfig rc;
  rc.rebalance.period = 4;
  rc.rebalance.max_moves = 0;
  auto err = validate(rc);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "rebalance.max_moves");

  rc = RunConfig{};
  rc.rebalance.period = 4;
  rc.rebalance.imbalance_trigger = -0.5;
  err = validate(rc);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "rebalance.imbalance_trigger");

  // Disabled rebalancing tolerates the same values: they are unused.
  rc.rebalance.period = 0;
  EXPECT_FALSE(validate(rc).has_value());
}

// Null messages are the paper's all-conservative technique: an optimistic
// sender can roll back below a promise, so every other configuration is
// rejected on `strategy`, and all-conservative stays valid.
TEST(ConfigValidation, NullMessagesOnlyUnderAllConservative) {
  for (const Configuration c :
       {Configuration::kAllOptimistic, Configuration::kMixed,
        Configuration::kDynamic}) {
    RunConfig rc;
    rc.configuration = c;
    rc.strategy = pdes::ConservativeStrategy::kNullMessage;
    const auto err = validate(rc);
    ASSERT_TRUE(err.has_value()) << to_string(c);
    EXPECT_EQ(err->field, "strategy") << to_string(c);
  }
  RunConfig rc;
  rc.configuration = Configuration::kAllConservative;
  rc.strategy = pdes::ConservativeStrategy::kNullMessage;
  EXPECT_FALSE(validate(rc).has_value());
}

// Both engines refuse to run an invalid configuration and surface the
// structured error instead of asserting or crashing mid-flight.
TEST(ConfigValidation, EnginesSurfaceConfigErrorWithoutRunning) {
  Built m = build_fsm();
  RunConfig rc;
  rc.num_workers = 4;
  rc.transport.faults.drop = 2.0;  // nonsense probability
  MachineEngine eng(*m.graph,
                    partition::round_robin(m.graph->size(), rc.num_workers),
                    rc);
  const RunStats st = eng.run();
  ASSERT_TRUE(st.config_error.has_value());
  EXPECT_EQ(st.config_error->field, "faults.drop");
  EXPECT_EQ(st.total_events(), 0u);  // never started

  Built t = build_fsm();
  ThreadedEngine teng(*t.graph,
                      partition::round_robin(t.graph->size(), rc.num_workers),
                      rc);
  const RunStats tst = teng.run();
  ASSERT_TRUE(tst.config_error.has_value());
  EXPECT_EQ(tst.config_error->field, "faults.drop");
}

}  // namespace
}  // namespace vsim
