// Threaded-engine stress tests: repeated runs across thread counts and
// protocols on a non-trivial circuit, all trace-checked against the
// sequential oracle (races would show up as trace diffs, missing commits
// or hangs), plus corner tests for the batch-drained MPSC mailbox.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "circuits/dct.h"
#include "circuits/fsm.h"
#include "circuits/random_circuit.h"
#include "partition/partition.h"
#include "pdes/mailbox.h"
#include "pdes/sequential.h"
#include "pdes/threaded.h"
#include "watchdog.h"
#include "vhdl/monitor.h"

namespace vsim::pdes {
namespace {

struct Built {
  std::unique_ptr<LpGraph> graph;
  std::unique_ptr<vhdl::Design> design;
  std::unique_ptr<vhdl::TraceRecorder> recorder;
};

Built build(unsigned seed) {
  Built b;
  b.graph = std::make_unique<LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  circuits::FsmParams p;
  p.lanes = 4;
  p.width = 5;
  p.input_seed = seed;
  circuits::build_fsm(*b.design, p);
  const auto c = circuits::build_fsm(*b.design, [] {
    circuits::FsmParams q;
    q.lanes = 1;
    q.width = 3;
    q.input_seed = 99;
    return q;
  }());
  (void)c;
  std::vector<vhdl::SignalId> probes;
  for (std::size_t i = 0; i < b.design->num_signals(); i += 17)
    probes.push_back(static_cast<vhdl::SignalId>(i));
  b.recorder = std::make_unique<vhdl::TraceRecorder>(*b.design, probes);
  b.design->finalize();
  return b;
}

TEST(Threaded, StressAcrossSeedsAndThreadCounts) {
  for (unsigned seed : {11u, 23u}) {
    Built ref = build(seed);
    SequentialEngine seq(*ref.graph);
    seq.set_commit_hook(ref.recorder->hook());
    seq.run(400);

    for (std::size_t workers : {2u, 3u, 5u}) {
      for (Configuration c :
           {Configuration::kAllOptimistic, Configuration::kDynamic}) {
        Built par = build(seed);
        RunConfig rc;
        rc.num_workers = workers;
        rc.configuration = c;
        rc.until = 400;
        rc.gvt_interval = 24;
        ThreadedEngine eng(
            *par.graph, partition::round_robin(par.graph->size(), workers),
            rc);
        eng.set_commit_hook(par.recorder->hook());
        const RunStats st = eng.run();
        EXPECT_FALSE(st.deadlocked);
        EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder),
                  "")
            << "seed " << seed << " workers " << workers << " "
            << to_string(c);
      }
    }
  }
}

TEST(Threaded, BipartitePartitionAndMixedConfig) {
  Built ref = build(7);
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(400);

  Built par = build(7);
  RunConfig rc;
  rc.num_workers = 3;
  rc.configuration = Configuration::kMixed;
  rc.until = 400;
  ThreadedEngine eng(*par.graph, partition::bipartite_bfs(*par.graph, 3),
                     rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

TEST(Threaded, MemoryCappedOptimisticTerminates) {
  Built ref = build(3);
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(400);

  Built par = build(3);
  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = Configuration::kAllOptimistic;
  rc.max_history = 16;
  rc.until = 400;
  ThreadedEngine eng(*par.graph,
                     partition::round_robin(par.graph->size(), 4), rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  for (const auto& lp : st.per_lp) EXPECT_LE(lp.max_history, 16u);
}

TEST(Threaded, GateLevelDctRunsClean) {
  Built b;
  b.graph = std::make_unique<LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  circuits::DctParams p;
  p.n = 2;
  p.width = 4;
  circuits::build_dct(*b.design, p);
  b.design->finalize();

  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = Configuration::kDynamic;
  rc.until = 2000;
  ThreadedEngine eng(*b.graph, partition::round_robin(b.graph->size(), 4),
                     rc);
  const RunStats st = eng.run();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_GT(st.total_committed(), 1000u);
}

/// A 2k-signal random gate netlist run threaded at P=4 under `c`, checked
/// against the sequential oracle.
RunStats run_gate_netlist(Configuration c) {
  const circuits::RandomCircuitParams params =
      circuits::sized_random_params(2'000, 5);
  const PhysTime until = 60;
  struct Net {
    LpGraph graph;
    std::unique_ptr<vhdl::Design> design;
    std::unique_ptr<vhdl::TraceRecorder> recorder;
  };
  auto build_net = [&](Net& n) {
    n.design = std::make_unique<vhdl::Design>(n.graph);
    const auto circuit = circuits::build_random_circuit(*n.design, params);
    n.recorder =
        std::make_unique<vhdl::TraceRecorder>(*n.design, circuit.observable);
    n.design->finalize();
  };
  Net ref;
  build_net(ref);
  SequentialEngine seq(ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(until);

  Net par;
  build_net(par);
  RunConfig rc;
  rc.num_workers = 4;
  rc.until = until;
  rc.configuration = c;
  ThreadedEngine eng(par.graph, partition::round_robin(par.graph.size(), 4),
                     rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();
  EXPECT_FALSE(st.config_error.has_value());
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  EXPECT_EQ(st.metrics.counter(obs::Metric::kMigrations), 0u);
  return st;
}

TEST(Threaded, GateLevelNetlistRoundsCostFewBarriers) {
  // A round is the stop barrier, one barrier per drain pass and the end
  // barrier, with the pass reduction, GVT and the verdict folded into the
  // pass barriers' completions.  Separate reset/add/read barriers per pass
  // plus post-GVT and post-verdict barriers would cost 4 + 3 x passes,
  // about 12 per round here.  Under Time Warp the pass count follows the
  // anti-message cascades, so it varies with thread interleaving.
  testutil::Watchdog wd("Threaded.GateLevelNetlistRoundsCostFewBarriers",
                        std::chrono::seconds(120));
  const RunStats st = run_gate_netlist(Configuration::kDynamic);
  const std::uint64_t barriers =
      st.metrics.counter(obs::Metric::kRoundBarriers);
  ASSERT_GT(st.gvt_rounds, 1u);
  EXPECT_GE(barriers, 3 * st.gvt_rounds);  // stop + at least one pass + end
  EXPECT_LT(barriers, 6 * st.gvt_rounds) << "rounds " << st.gvt_rounds;
}

TEST(Threaded, ConservativeRoundsDrainInOnePass) {
  // A drain pass is quiet when no worker published a packet during it.
  // Without Time Warp no delivery sends anything, so the first pass of
  // every round is quiet: the mail the work phase left in flight is
  // drained in it, and the round costs exactly three barriers.  Counting
  // drained packets as pass traffic would add a pass to every round that
  // found mail in flight.
  testutil::Watchdog wd("Threaded.ConservativeRoundsDrainInOnePass",
                        std::chrono::seconds(120));
  const RunStats st = run_gate_netlist(Configuration::kAllConservative);
  ASSERT_GT(st.gvt_rounds, 1u);
  EXPECT_EQ(st.metrics.counter(obs::Metric::kRoundBarriers),
            3 * st.gvt_rounds);
}

// ---- batch-drained MPSC mailbox corner cases ----

TEST(BatchMailbox, MultiProducerBatchesKeepPerProducerFifo) {
  testutil::Watchdog wd("BatchMailbox.MultiProducerBatchesKeepPerProducerFifo",
                        std::chrono::seconds(60));
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kPacketsEach = 2000;
  BatchMailbox mb(kProducers);
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::vector<Packet> buf;
      std::uint64_t seq = 0;
      // Varying batch sizes (1..7) so publishes interleave irregularly.
      while (seq < kPacketsEach) {
        const std::uint64_t n = 1 + (seq * (p + 3)) % 7;
        for (std::uint64_t i = 0; i < n && seq < kPacketsEach; ++i) {
          Packet pkt;
          pkt.src = p;
          pkt.dst = 0;
          pkt.ev.uid = seq++;
          buf.push_back(pkt);
        }
        mb.push_batch(p, buf);
        EXPECT_TRUE(buf.empty());
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Single consumer drains concurrently with the producers.
  std::vector<std::uint64_t> next_uid(kProducers, 0);
  std::uint64_t total = 0;
  std::vector<Packet> out;
  while (total < kProducers * kPacketsEach) {
    out.clear();
    total += mb.drain(out);
    for (const Packet& pkt : out) {
      ASSERT_LT(pkt.src, kProducers);
      // Per-producer FIFO: uids from one producer arrive in push order.
      EXPECT_EQ(pkt.ev.uid, next_uid[pkt.src]++);
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(total, kProducers * kPacketsEach);
  EXPECT_TRUE(mb.empty());
}

TEST(BatchMailbox, FlushOrderPreservesAntiMessageBeforeReplacementSend) {
  // A rollback cancels a send and a later re-execution emits a replacement
  // with the same uid.  Both ride the batched path: the anti-message is
  // published in an earlier batch than the replacement, and the drain must
  // replay them in publish order -- if the replacement ever overtook the
  // anti-message, the receiver would annihilate the NEW positive instead.
  BatchMailbox mb(2);
  std::vector<Packet> buf;
  Packet anti;
  anti.src = 1;
  anti.ev.uid = 7;
  anti.ev.negative = true;
  buf.push_back(anti);
  mb.push_batch(1, buf);
  Packet replacement;
  replacement.src = 1;
  replacement.ev.uid = 7;
  replacement.ev.negative = false;
  buf.push_back(replacement);
  mb.push_batch(1, buf);

  std::vector<Packet> out;
  ASSERT_EQ(mb.drain(out), 2u);
  EXPECT_TRUE(out[0].ev.negative);
  EXPECT_FALSE(out[1].ev.negative);
}

TEST(Threaded, DeliveryRacingCrashStopWorker) {
  // Batches published TO a worker that crash-stops mid-run are in flight
  // when recovery clears every inbox and outbox; the recovered run must
  // still be bit-identical to the oracle.  (Before the overhaul this
  // exercised the locked queue clear; now it covers BatchMailbox::clear
  // plus discarding unflushed producer buffers.)
  testutil::Watchdog wd("Threaded.DeliveryRacingCrashStopWorker",
                        std::chrono::seconds(120));
  Built ref = build(13);
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(400);

  Built par = build(13);
  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = Configuration::kAllOptimistic;
  rc.until = 400;
  rc.gvt_interval = 24;
  rc.checkpoint.period = 2;
  rc.transport.faults.crashes.push_back(WorkerCrash{1, 60});
  ThreadedEngine eng(*par.graph,
                     partition::round_robin(par.graph->size(), 4), rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_FALSE(st.recovery_error) << st.recovery_error->str();
  EXPECT_EQ(st.checkpoint.crashes, 1u);
  EXPECT_GE(st.checkpoint.recoveries, 1u);
  EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "");
}

TEST(Threaded, DrainUntilQuietWithNonEmptyProducerBuffers) {
  // gvt_interval = 1: every processed event forces a synchronisation
  // round, so rounds constantly begin with batches still in flight in
  // destination inboxes, and stragglers delivered during a drain pass
  // trigger rollbacks whose anti-messages land in producer outboxes
  // mid-round.  Each drain pass must flush those buffers and count the
  // moved packets, or GVT would be computed over a network that silently
  // still holds messages.
  testutil::Watchdog wd("Threaded.DrainUntilQuietWithNonEmptyProducerBuffers",
                        std::chrono::seconds(120));
  Built ref = build(17);
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(300);

  Built par = build(17);
  RunConfig rc;
  rc.num_workers = 3;
  rc.configuration = Configuration::kAllOptimistic;
  rc.until = 300;
  rc.gvt_interval = 1;
  ThreadedEngine eng(*par.graph,
                     partition::round_robin(par.graph->size(), 3), rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  // The batched path actually carried the traffic.
  EXPECT_GT(st.metrics.counter(obs::Metric::kMailboxBatches), 0u);
  const obs::Histogram& bs = st.metrics.histogram(obs::Hist::kBatchSize);
  EXPECT_GT(bs.count, 0u);
  EXPECT_GE(bs.max, 1.0);
  EXPECT_GT(st.metrics.counter(obs::Metric::kQueueOps), 0u);
}

}  // namespace
}  // namespace vsim::pdes
