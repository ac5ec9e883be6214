// Multi-process distributed engine over real Unix-domain sockets.  The
// acceptance bar mirrors the chaos and checkpoint suites, but every event
// now crosses a genuine kernel socket between OS processes:
//   - a 4-rank run commits exactly the sequential oracle's traces;
//   - seeded FaultyTransport chaos on the real wire stays invisible;
//   - a SIGKILLed rank is detected from the EOF on its connections and
//     recovered from the last checkpoint, still bit-identical;
//   - the fault-free mesh is lossless: no seq/ack layer, no retransmits.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "circuits/builder.h"
#include "circuits/fsm.h"
#include "circuits/random_circuit.h"
#include "frontend/elaborator.h"
#include "obs/metrics.h"
#include "partition/partition.h"
#include "pdes/distributed.h"
#include "pdes/sequential.h"
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

using circuits::CircuitBuilder;
using circuits::FsmParams;
using circuits::GateKind;
using pdes::Configuration;
using pdes::DistributedEngine;
using pdes::FaultPlan;
using pdes::RunConfig;
using pdes::RunStats;
using pdes::SequentialEngine;
using pdes::WorkerCrash;
using vhdl::SignalId;
using vhdl::TraceRecorder;

// run() forks; ThreadSanitizer does not support doing real work in the
// children of a multi-threaded fork (the gtest process has the watchdog
// and sanitizer background threads).
#ifdef VSIM_TSAN
#define SKIP_UNDER_TSAN() GTEST_SKIP() << "fork-based engine under TSan"
#else
#define SKIP_UNDER_TSAN() (void)0
#endif

struct Built {
  std::unique_ptr<pdes::LpGraph> graph;
  std::unique_ptr<vhdl::Design> design;
  std::unique_ptr<vhdl::TraceRecorder> recorder;
};

// Clocked feedback through a DFF plus a combinational cloud; identical to
// the chaos suite's gate netlist so failures are comparable across suites.
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
  b.recorder = std::make_unique<TraceRecorder>(
      *b.design, std::vector<SignalId>{x1, q, o1});
  cb.dff(clk, d, q);
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

// Base config for a fast 4-rank UDS run: short GVT interval for frequent
// rounds.  Deaths come from EOF, so the heartbeat timeout -- the backstop
// for a wedged rank -- can be long enough that a loaded host never trips it.
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

std::chrono::seconds watchdog_limit() {
  // Override for debugging hangs locally: VSIM_TEST_WATCHDOG_S=20.
  if (const char* s = std::getenv("VSIM_TEST_WATCHDOG_S"))
    return std::chrono::seconds(std::atoi(s));
  // Sanitizer CI sets VSIM_TIME_SCALE; the engine stretches its liveness
  // budgets by it, so the watchdog must stretch too.
  return std::chrono::seconds(
      static_cast<long>(120 * pdes::time_scale()));
}

RunStats run_distributed(Built& b, RunConfig rc, const char* label,
                         pdes::Partition* final_part = nullptr) {
  const auto part =
      partition::round_robin(b.graph->size(), rc.num_workers);
  DistributedEngine eng(*b.graph, part, rc);
  testutil::Watchdog wd(label, watchdog_limit(),
                        [&eng](std::FILE* f) { eng.debug_dump(f); });
  eng.set_commit_hook(b.recorder->hook());
  RunStats st = eng.run();
  if (final_part != nullptr) *final_part = eng.partition();
  return st;
}

// Four OS processes over a real socket mesh commit exactly the oracle's
// traces, on both test circuits.
TEST(Distributed, FourRankSocketRunMatchesOracle) {
  SKIP_UNDER_TSAN();
  struct Case {
    const char* name;
    Built (*build)();
    PhysTime until;
  };
  const Case cases[] = {{"gates", &build_gates, 600},
                        {"fsm", &build_fsm, 250}};
  for (const Case& tc : cases) {
    Built ref = tc.build();
    SequentialEngine seq(*ref.graph);
    seq.set_commit_hook(ref.recorder->hook());
    seq.run(tc.until);

    Built par = tc.build();
    const RunStats st = run_distributed(
        par, dist_config(tc.until), "Distributed.FourRankSocketRun");
    ASSERT_FALSE(st.config_error.has_value())
        << tc.name << ": " << st.config_error->str();
    EXPECT_FALSE(st.deadlocked) << tc.name;
    EXPECT_FALSE(st.transport_error.has_value())
        << tc.name << ": " << st.transport_error->str();
    EXPECT_FALSE(st.recovery_error.has_value())
        << tc.name << ": " << st.recovery_error->str();
    EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "")
        << tc.name;
    EXPECT_EQ(st.per_worker.size(), 4u) << tc.name;
    EXPECT_GT(st.gvt_rounds, 0u) << tc.name;
    // Real traffic crossed the sockets, and every rank reported in.
    EXPECT_GT(st.metrics.counter(obs::Metric::kNetFramesSent), 0u) << tc.name;
    EXPECT_GT(st.metrics.counter(obs::Metric::kNetFramesRecv), 0u) << tc.name;
    EXPECT_GT(st.transport.data_sent, 0u) << tc.name;
    // The fault-free socket mesh is lossless: the channel stack composes
    // no seq/ack layer over it.
    EXPECT_EQ(st.transport.acks_sent, 0u) << tc.name;
    EXPECT_EQ(st.transport.retransmits, 0u) << tc.name;
    std::uint64_t rank_events = 0;
    for (const auto& w : st.per_worker) rank_events += w.events;
    EXPECT_GT(rank_events, 0u) << tc.name;
    // GVT rounds are asynchronous cuts: ranks executed while one was open,
    // and without fault tolerance no round stopped the world.
    EXPECT_GT(st.metrics.counter(obs::Metric::kCutEvents), 0u) << tc.name;
    EXPECT_EQ(st.metrics.counter(obs::Metric::kStopRounds), 0u) << tc.name;
  }
}

// Seeded chaos (drops, duplicates, reordering, short blackouts) injected on
// top of the *real* socket wire: the channel layer must repair everything.
TEST(Distributed, ChaosOnRealWireMatchesOracle) {
  SKIP_UNDER_TSAN();
  Built ref = build_gates();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(600);

  Built par = build_gates();
  RunConfig rc = dist_config(600);
  FaultPlan& fp = rc.transport.faults;
  fp.seed = 7;
  fp.drop = 0.15;
  fp.duplicate = 0.08;
  fp.reorder = 0.30;
  fp.blackout = 0.01;
  fp.blackout_span = 6;
  const RunStats st =
      run_distributed(par, rc, "Distributed.ChaosOnRealWire");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.transport_error.has_value())
      << st.transport_error->str();
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  // The plan must have actually mangled live socket traffic, and the
  // reliable layer must have repaired it.
  EXPECT_GT(st.transport.dropped, 0u);
  EXPECT_GT(st.transport.retransmits, 0u);
  EXPECT_GT(st.transport.acks_sent, 0u);
}

// A rank killed with SIGKILL mid-run: the coordinator notices (EOF on the
// dead rank's connection), rolls every survivor back to the last
// global checkpoint, redistributes the dead rank's LPs, and the finished
// run is still bit-identical to the oracle.
TEST(Distributed, SigkilledRankRecoversToOracle) {
  SKIP_UNDER_TSAN();
  Built ref = build_gates();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(600);

  Built par = build_gates();
  RunConfig rc = dist_config(600);
  rc.checkpoint.period = 2;
  // raise(SIGKILL) on rank 2 at its 60th event -- a hard processor kill,
  // nothing is flushed.
  rc.transport.faults.crashes.push_back(WorkerCrash{2, 60});
  pdes::Partition final_part;
  const RunStats st = run_distributed(
      par, rc, "Distributed.SigkilledRankRecovers", &final_part);
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.transport_error.has_value())
      << st.transport_error->str();
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GE(st.checkpoint.recoveries, 1u);
  EXPECT_GT(st.checkpoint.checkpoints, 0u);
  EXPECT_GT(st.checkpoint.lps_restored, 0u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  // The dead rank's LPs were adopted by survivors.
  for (const std::uint32_t owner : final_part) EXPECT_NE(owner, 2u);
}

// Two ranks die at different points; two rounds of recovery.
TEST(Distributed, TwoDeathsTwoRecoveries) {
  SKIP_UNDER_TSAN();
  Built ref = build_fsm();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(250);

  Built par = build_fsm();
  RunConfig rc = dist_config(250);
  rc.checkpoint.period = 2;
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 40});
  rc.transport.faults.crashes.push_back(WorkerCrash{3, 90});
  const RunStats st =
      run_distributed(par, rc, "Distributed.TwoDeathsTwoRecoveries");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_EQ(st.checkpoint.crashes, 2u);
  EXPECT_GE(st.checkpoint.recoveries, 2u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

// Chaos on the wire *and* a SIGKILL: recovery resets every rank's channel
// stack while the fault RNGs run on, so the replay meets fresh faults; the
// reliable layer repairs them and the rejoined timeline still matches the
// oracle.
TEST(Distributed, ChaosPlusKillStillMatchesOracle) {
  SKIP_UNDER_TSAN();
  Built ref = build_gates();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(600);

  Built par = build_gates();
  RunConfig rc = dist_config(600);
  rc.checkpoint.period = 2;
  FaultPlan& fp = rc.transport.faults;
  fp.seed = 21;
  fp.drop = 0.10;
  fp.duplicate = 0.05;
  fp.reorder = 0.20;
  fp.crashes.push_back(WorkerCrash{1, 80});
  const RunStats st =
      run_distributed(par, rc, "Distributed.ChaosPlusKill");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GE(st.checkpoint.recoveries, 1u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  EXPECT_GT(st.transport.dropped, 0u);
}

// Determinism: same seeds, same cluster -> same committed traces across two
// whole multi-process runs (the distributed analogue of ChaosDeterminism).
TEST(Distributed, SameSeedsSameTraces) {
  SKIP_UNDER_TSAN();
  auto run_once = [](Built& b) {
    RunConfig rc = dist_config(250);
    rc.checkpoint.period = 3;
    FaultPlan& fp = rc.transport.faults;
    fp.seed = 42;
    fp.drop = 0.08;
    fp.reorder = 0.15;
    fp.crashes.push_back(WorkerCrash{2, 50});
    return run_distributed(b, rc, "Distributed.SameSeedsSameTraces");
  };
  Built a = build_fsm();
  const RunStats sa = run_once(a);
  Built b = build_fsm();
  const RunStats sb = run_once(b);
  ASSERT_FALSE(sa.recovery_error.has_value());
  ASSERT_FALSE(sb.recovery_error.has_value());
  EXPECT_EQ(sa.checkpoint.crashes, sb.checkpoint.crashes);
  EXPECT_EQ(TraceRecorder::diff(*a.recorder, *b.recorder), "");
}

// The coordinator itself is SIGKILLed mid-run.  Rank 1 -- the lowest
// surviving checkpoint replica -- must notice the lost connection, promote itself
// under a higher epoch term, re-emit its retained commit batches, recover
// the survivors from its replicated spill, and finish bit-identical to the
// oracle with rank 0's LPs adopted.
TEST(Distributed, CoordinatorKillRecoversToOracle) {
  SKIP_UNDER_TSAN();
  Built ref = build_gates();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(600);

  Built par = build_gates();
  RunConfig rc = dist_config(600);
  rc.checkpoint.period = 2;
  rc.transport.faults.crashes.push_back(WorkerCrash{0, 60});
  pdes::Partition final_part;
  const RunStats st = run_distributed(
      par, rc, "Distributed.CoordinatorKillRecovers", &final_part);
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.transport_error.has_value());
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GE(st.checkpoint.recoveries, 1u);
  EXPECT_EQ(st.final_coordinator, 1u);
  EXPECT_GT(st.final_epoch, 0u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  for (const std::uint32_t owner : final_part) EXPECT_NE(owner, 0u);
}

// The coordinator dies AND a plain worker dies later: one succession plus
// one ordinary recovery, both run by the promoted rank 1.
TEST(Distributed, CoordinatorPlusWorkerKill) {
  SKIP_UNDER_TSAN();
  Built ref = build_gates();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(600);

  Built par = build_gates();
  RunConfig rc = dist_config(600);
  rc.checkpoint.period = 2;
  rc.transport.faults.crashes.push_back(WorkerCrash{0, 60});
  rc.transport.faults.crashes.push_back(WorkerCrash{3, 90});
  const RunStats st =
      run_distributed(par, rc, "Distributed.CoordinatorPlusWorkerKill");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_EQ(st.checkpoint.crashes, 2u);
  // Both deaths may land in one detection window and be retired by a
  // single recovery pass -- one or two recoveries are both legitimate.
  EXPECT_GE(st.checkpoint.recoveries, 1u);
  EXPECT_EQ(st.final_coordinator, 1u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

// Seeded wire chaos on top of a coordinator kill: after the promoted
// successor's recovery resets every channel stack, the rejoined timeline
// still matches the oracle through drops, dups and reordering.
TEST(Distributed, ChaosPlusCoordinatorKill) {
  SKIP_UNDER_TSAN();
  Built ref = build_gates();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(600);

  Built par = build_gates();
  RunConfig rc = dist_config(600);
  rc.checkpoint.period = 2;
  FaultPlan& fp = rc.transport.faults;
  fp.seed = 33;
  fp.drop = 0.10;
  fp.duplicate = 0.05;
  fp.reorder = 0.20;
  fp.crashes.push_back(WorkerCrash{0, 80});
  const RunStats st =
      run_distributed(par, rc, "Distributed.ChaosPlusCoordinatorKill");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_EQ(st.final_coordinator, 1u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  EXPECT_GT(st.transport.dropped, 0u);
}

// Coordinators 0 and 1 both die.  With three checkpoint replicas rank 2
// holds every snapshot, so whichever way the deaths interleave (rank 1 may
// or may not get its own promotion in first), rank 2 ends up coordinating
// and the committed trace is still exactly the oracle's -- the strongest
// exercise of the ack-gated release rule.
TEST(Distributed, CascadingCoordinatorDeaths) {
  SKIP_UNDER_TSAN();
  Built ref = build_fsm();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(250);

  Built par = build_fsm();
  RunConfig rc = dist_config(250);
  rc.checkpoint.period = 2;
  rc.checkpoint.replicas = 3;
  rc.transport.faults.crashes.push_back(WorkerCrash{0, 40});
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 90});
  const RunStats st = run_distributed(
      par, rc, "Distributed.CascadingCoordinatorDeaths");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_EQ(st.checkpoint.crashes, 2u);
  EXPECT_GE(st.checkpoint.recoveries, 1u);
  EXPECT_EQ(st.final_coordinator, 2u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

// Deaths are judged from the kernel's EOF, not from heartbeat silence: with
// a one-minute heartbeat timeout, a killed rank is still recovered around
// in far less time than a timer could have noticed it.
void expect_eof_death_recovered(std::uint32_t victim, const char* label) {
  Built ref = build_gates();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(600);

  Built par = build_gates();
  RunConfig rc = dist_config(600);
  rc.net.heartbeat_timeout_ms = 60'000;
  rc.checkpoint.period = 2;
  rc.transport.faults.crashes.push_back(WorkerCrash{victim, 60});
  const auto t0 = std::chrono::steady_clock::now();
  const RunStats st = run_distributed(par, rc, label);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GE(st.checkpoint.recoveries, 1u);
  EXPECT_EQ(st.final_coordinator, victim == 0 ? 1u : 0u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  // Half the (scaled) heartbeat timeout: no timer could have fired.
  EXPECT_LT(elapsed, std::chrono::milliseconds(static_cast<long>(
                         30'000 * pdes::time_scale())));
}

TEST(Distributed, WorkerDeathDetectedFromEof) {
  SKIP_UNDER_TSAN();
  expect_eof_death_recovered(2, "Distributed.WorkerDeathDetectedFromEof");
}

TEST(Distributed, CoordinatorDeathDetectedFromEof) {
  SKIP_UNDER_TSAN();
  expect_eof_death_recovered(0, "Distributed.CoordinatorDeathDetectedFromEof");
}

// Succession is deterministic: the same seed and the same fault plan give
// the same successor, the same epoch, the same crash accounting and the
// same committed traces across two whole multi-process runs.
TEST(Distributed, SuccessionIsDeterministic) {
  SKIP_UNDER_TSAN();
  auto run_once = [](Built& b) {
    RunConfig rc = dist_config(250);
    rc.checkpoint.period = 3;
    FaultPlan& fp = rc.transport.faults;
    fp.seed = 97;
    fp.drop = 0.05;
    fp.reorder = 0.10;
    fp.crashes.push_back(WorkerCrash{0, 50});
    return run_distributed(b, rc, "Distributed.SuccessionIsDeterministic");
  };
  Built a = build_fsm();
  const RunStats sa = run_once(a);
  Built b = build_fsm();
  const RunStats sb = run_once(b);
  ASSERT_FALSE(sa.recovery_error.has_value()) << sa.recovery_error->str();
  ASSERT_FALSE(sb.recovery_error.has_value()) << sb.recovery_error->str();
  EXPECT_EQ(sa.final_coordinator, 1u);
  EXPECT_EQ(sa.final_coordinator, sb.final_coordinator);
  EXPECT_EQ(sa.final_epoch, sb.final_epoch);
  EXPECT_EQ(sa.checkpoint.crashes, sb.checkpoint.crashes);
  EXPECT_EQ(sa.checkpoint.recoveries, sb.checkpoint.recoveries);
  EXPECT_EQ(TraceRecorder::diff(*a.recorder, *b.recorder), "");
}

// Durable spill end to end: a run that dies past its recovery budget leaves
// an atomic spill directory; a fresh resume=true run -- pointed at the same
// directory now also littered with torn and corrupt snapshots -- restores
// from the newest valid one and finishes the exact oracle trace.  The two
// runs share one TraceRecorder, so the released prefix and the resumed
// suffix must concatenate seamlessly (no gap, no duplicate).
TEST(Distributed, ResumeFromSpillContinuesTrace) {
  SKIP_UNDER_TSAN();
  Built ref = build_fsm();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(250);

  char tmpl[] = "/tmp/vsim-resume-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string spill_dir = tmpl;

  Built par = build_fsm();
  {
    RunConfig rc = dist_config(250);
    rc.checkpoint.period = 2;
    rc.checkpoint.replicas = 1;  // release == spill frontier, exactly
    rc.checkpoint.max_recoveries = 1;
    rc.checkpoint.spill_dir = spill_dir;
    // Three scheduled deaths against a budget of one: even if the first
    // two land in the same detection window (one recovery pass retires
    // both), the third -- far past the first recovery -- still exhausts
    // the budget, so run1 deterministically dies with work left undone.
    rc.transport.faults.crashes.push_back(WorkerCrash{1, 40});
    rc.transport.faults.crashes.push_back(WorkerCrash{2, 80});
    rc.transport.faults.crashes.push_back(WorkerCrash{3, 130});
    const RunStats st = run_distributed(
        par, rc, "Distributed.ResumeFromSpill.run1");
    ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
    ASSERT_TRUE(st.recovery_error.has_value());  // budget exhausted
    EXPECT_GT(st.checkpoint.disk_bytes, 0u);
  }

  // Adversarial litter: a torn write (truncated copy of a real snapshot)
  // and outright garbage, both with round numbers newer than any valid
  // snapshot.  The resume scan must skip them, not die on them.
  {
    std::string victim;
    for (const auto& e : std::filesystem::directory_iterator(spill_dir))
      if (e.path().extension() == ".bin") victim = e.path().string();
    ASSERT_FALSE(victim.empty());
    std::ifstream in(victim, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream torn(spill_dir + "/ckpt-999998.bin", std::ios::binary);
    torn.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
    std::ofstream junk(spill_dir + "/ckpt-999999.bin", std::ios::binary);
    junk << "this is not a checkpoint";
  }

  {
    RunConfig rc = dist_config(250);
    rc.checkpoint.period = 2;
    rc.checkpoint.replicas = 1;
    rc.checkpoint.spill_dir = spill_dir;
    rc.checkpoint.resume = true;
    const RunStats st = run_distributed(
        par, rc, "Distributed.ResumeFromSpill.run2");
    ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
    ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
    EXPECT_FALSE(st.deadlocked);
  }
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  std::filesystem::remove_all(spill_dir);
}

// A rank death with fault tolerance off (no checkpoint period, no crash
// schedule would normally mean no deaths -- but defense in depth): the run
// must unwind with a structured RecoveryError, not hang.  We force the
// situation by scheduling a crash while keeping checkpointing enabled but
// exhausting the recovery budget.
TEST(Distributed, RecoveryBudgetExhaustionUnwindsStructured) {
  SKIP_UNDER_TSAN();
  Built par = build_fsm();
  RunConfig rc = dist_config(250);
  rc.checkpoint.period = 2;
  rc.checkpoint.max_recoveries = 1;
  // The second death must come after the first recovery: two deaths that
  // land before the coordinator acts are retired by ONE recovery, which
  // the budget allows.  Rank 2 processes 1000+ events in this run, so its
  // 400th comes long after rank 1's 30th and the recovery that follows.
  // At 60 it raced death detection and lost in about one run of ten.
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 30});
  rc.transport.faults.crashes.push_back(WorkerCrash{2, 400});
  const RunStats st = run_distributed(
      par, rc, "Distributed.RecoveryBudgetExhaustion");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  ASSERT_TRUE(st.recovery_error.has_value());
  EXPECT_EQ(st.recovery_error->recoveries_used, 1u);
  EXPECT_FALSE(st.recovery_error->message.empty());
  EXPECT_NE(st.recovery_error->str().find("budget"), std::string::npos)
      << st.recovery_error->str();
}

// ---- native codegen backend across rank boundaries ----
//
// A VHDL frontend design whose process bodies run as AOT-compiled shared
// objects (frontend/codegen.cpp).  The children inherit the dlopen()ed
// modules through fork, and process checkpoints use the body byte codec,
// so suspended compiled bodies must survive the full distributed stack:
// socket transport, rank death, and restore-from-checkpoint on a
// surviving rank.  Under sanitizer builds the backend falls back to the
// interpreter (by design), which keeps these rows green but vacuous.

const char kNativeVhdlSrc[] = R"(
  entity t is end t;
  architecture a of t is
    signal clk : std_logic := '0';
    signal d0 : std_logic := '0';
    signal cnt : std_logic_vector(3 downto 0) := "0000";
    signal sr : std_logic_vector(3 downto 0) := "0000";
    signal par : std_logic := '0';
    signal mix : std_logic_vector(3 downto 0) := "0000";
    signal tick : std_logic_vector(3 downto 0) := "0000";
  begin
    clkgen: process begin
      clk <= '1'; wait for 5 ns;
      clk <= '0'; wait for 5 ns;
    end process;
    stim: process begin
      wait for 7 ns; d0 <= '1';
      wait for 11 ns; d0 <= '0';
      wait for 6 ns; d0 <= '1';
      wait for 14 ns; d0 <= '0';
      wait;
    end process;
    counter: process (clk) begin
      if rising_edge(clk) then
        cnt <= cnt + 1;
      end if;
    end process;
    shreg: process (clk)
      variable v : std_logic_vector(3 downto 0) := "0000";
    begin
      if rising_edge(clk) then
        v := sr;
        sr(0) <= d0;
        sr(1) <= v(0);
        sr(2) <= v(1);
        sr(3) <= v(2);
      end if;
    end process;
    parity: process (cnt, sr) begin
      par <= ((cnt(0) xor cnt(1)) xor (cnt(2) xor cnt(3)))
             xor ((sr(0) xor sr(1)) xor (sr(2) xor sr(3)));
    end process;
    mixer: process (cnt, sr) begin
      mix <= (cnt xor sr) + 1;
    end process;
    timer: process
      variable n : integer := 0;
    begin
      wait for 9 ns;
      n := (n + 1) mod 16;
      tick <= to_unsigned(n, 4);
    end process;
  end a;
)";

Built build_native_vhdl(fe::Backend backend) {
  Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  fe::ElabOptions opt;
  opt.backend = backend;
  fe::elaborate_source(kNativeVhdlSrc, "t", *b.design, opt);
  std::vector<SignalId> probes;
  for (const char* name :
       {"t/cnt", "t/sr", "t/par", "t/mix", "t/tick", "t/d0"})
    probes.push_back(b.design->find_signal(name));
  b.recorder = std::make_unique<TraceRecorder>(*b.design, probes);
  b.design->finalize();
  return b;
}

// Four OS ranks running compiled process bodies commit exactly the
// interpreted sequential oracle's traces.
TEST(Distributed, NativeCodegenFourRankMatchesOracle) {
  SKIP_UNDER_TSAN();
  Built ref = build_native_vhdl(fe::Backend::kInterp);
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(400);

  Built par = build_native_vhdl(fe::Backend::kNative);
  const RunStats st = run_distributed(
      par, dist_config(400), "Distributed.NativeCodegenFourRank");
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_FALSE(st.recovery_error.has_value());
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  EXPECT_GT(st.metrics.counter(obs::Metric::kNetFramesSent), 0u);
#ifndef VSIM_SANITIZE_BUILD
  // The run above really executed compiled bodies (folded into the run's
  // metrics snapshot by absorb_run_stats via the obs process globals).
  EXPECT_GT(st.metrics.counter(obs::Metric::kNativeBodies), 0u);
#endif
}

// A SIGKILLed rank recovers from the last checkpoint with compiled bodies:
// the survivor decodes the dead rank's process snapshots into clones of
// its own dlopen()ed modules (warm codegen cache via fork), and the
// finished run is still bit-identical to the interpreted oracle.
TEST(Distributed, NativeCodegenSigkillRecoversToOracle) {
  SKIP_UNDER_TSAN();
  Built ref = build_native_vhdl(fe::Backend::kInterp);
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(400);

  Built par = build_native_vhdl(fe::Backend::kNative);
  RunConfig rc = dist_config(400);
  rc.checkpoint.period = 2;
  rc.transport.faults.crashes.push_back(WorkerCrash{2, 60});
  pdes::Partition final_part;
  const RunStats st = run_distributed(
      par, rc, "Distributed.NativeCodegenSigkillRecovers", &final_part);
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  ASSERT_FALSE(st.recovery_error.has_value()) << st.recovery_error->str();
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GE(st.checkpoint.recoveries, 1u);
  EXPECT_GT(st.checkpoint.lps_restored, 0u);
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  for (const std::uint32_t owner : final_part) EXPECT_NE(owner, 2u);
}

}  // namespace
}  // namespace vsim
