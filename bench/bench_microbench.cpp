// Wall-clock microbenchmarks (google-benchmark): raw engine throughput and
// kernel primitive costs on this host.  These complement the machine-model
// figures with real measurements of the implementation itself.
#include <benchmark/benchmark.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "bench/harness.h"
#include "bench/report.h"
#include "circuits/fsm.h"
#include "partition/partition.h"
#include "pdes/event_queue.h"
#include "pdes/lp_runtime.h"
#include "pdes/mailbox.h"
#include "pdes/sequential.h"
#include "pdes/threaded.h"
#include "vhdl/waveform.h"

using namespace vsim;

namespace {

bench::Built make_fsm(std::size_t lanes) {
  bench::Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  circuits::FsmParams p;
  p.lanes = lanes;
  circuits::build_fsm(*b.design, p);
  b.design->finalize();
  return b;
}

void BM_SequentialEngineThroughput(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    bench::Built b = make_fsm(static_cast<std::size_t>(state.range(0)));
    pdes::SequentialEngine eng(*b.graph);
    const auto r = eng.run(400);
    events += r.stats.total_events();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialEngineThroughput)->Arg(4)->Arg(10);

void BM_MachineEngineThroughput(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    bench::Built b = make_fsm(4);
    pdes::RunConfig rc;
    rc.num_workers = static_cast<std::size_t>(state.range(0));
    rc.configuration = pdes::Configuration::kDynamic;
    rc.until = 400;
    pdes::MachineEngine eng(
        *b.graph, partition::round_robin(b.graph->size(), rc.num_workers),
        rc);
    events += eng.run().total_events();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineEngineThroughput)->Arg(1)->Arg(4)->Arg(16);

// ---- Message-delivery microbench ----------------------------------------
//
// A token ring of plain PDES LPs under round-robin partitioning: every hop
// is a remote send, so the run is dominated by the threaded engine's
// mailbox/transport path rather than by event execution.  The wire is
// fault-free, so this measures the delivery path fault-free threaded runs
// use: per-destination send buffers published as one MPSC batch per slice,
// through a channel stack that passes straight through (no seq/ack layer
// over a lossless wire).

struct RingState final : pdes::LpState {
  std::uint64_t count = 0;
};

class RingLp final : public pdes::LogicalProcess {
 public:
  RingLp(std::string name, pdes::LpId next, PhysTime until)
      : LogicalProcess(std::move(name)), next_(next), until_(until) {}

  void simulate(const pdes::Event& ev, pdes::SimContext& ctx) override {
    ++count_;
    if (ev.ts.pt < until_) ctx.send(next_, {ev.ts.pt + 1, 0}, 1, {});
  }
  std::unique_ptr<pdes::LpState> save_state() const override {
    auto s = std::make_unique<RingState>();
    s->count = count_;
    return s;
  }
  void restore_state(const pdes::LpState& s) override {
    count_ = static_cast<const RingState&>(s).count;
  }

 private:
  pdes::LpId next_;
  PhysTime until_;
  std::uint64_t count_ = 0;
};

void BM_MessageDelivery(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRing = 64;
  constexpr std::size_t kTokens = 16;
  constexpr PhysTime kUntil = 512;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    pdes::LpGraph graph;
    for (std::size_t i = 0; i < kRing; ++i)
      graph.add(std::make_unique<RingLp>(
          "ring" + std::to_string(i),
          static_cast<pdes::LpId>((i + 1) % kRing), kUntil));
    for (std::size_t t = 0; t < kTokens; ++t)
      graph.post_initial(static_cast<pdes::LpId>(t * (kRing / kTokens)),
                         {1, 0}, 1);
    pdes::RunConfig rc;
    rc.num_workers = workers;
    rc.configuration = pdes::Configuration::kAllOptimistic;
    rc.gvt_interval = 256;
    rc.until = kUntil;
    pdes::ThreadedEngine eng(graph, partition::round_robin(kRing, workers),
                             rc);
    const auto st = eng.run();
    delivered += st.transport.delivered;
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MessageDelivery)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- Mailbox primitive pair ---------------------------------------------
//
// Head-to-head measurement of the overhauled delivery path against the
// design it replaced, kept in-binary so BENCH_microbench.json always
// records the before/after ratio on the host that produced it.
//
// Arg = number of producer workers feeding one consumer.  Both variants
// replay the engine's per-iteration op pattern deterministically from one
// thread -- each producer sends an event-slice worth of packets, then the
// consumer drains once -- so the bench measures the per-operation cost
// difference (per-packet lock round-trip vs. buffered append + one publish
// per batch) rather than this host's thread-scheduling noise.  The
// concurrency properties of the real MPSC path are covered by
// tests/test_threaded.cpp and the TSan preset in ci.sh, and contention on
// a real multiprocessor only widens this gap (the mutex line bounces
// between cores; the batch path touches shared state once per slice).
//
// MutexMailboxRef reproduces the pre-overhaul threaded-engine mailbox
// verbatim (struct Mailbox { std::mutex m; std::vector<Packet> q; }): one
// mutex round-trip per delivered packet on the producer side and a locked
// sweep on the consumer side.

constexpr std::size_t kMailboxRounds = 256;
constexpr std::size_t kMailboxSlice = 16;  // the engine's event slice

class MutexMailboxRef {
 public:
  void push(pdes::Packet&& p) {
    std::lock_guard<std::mutex> lk(m_);
    q_.push_back(std::move(p));
  }
  std::size_t drain(std::vector<pdes::Packet>& out) {
    std::lock_guard<std::mutex> lk(m_);
    const std::size_t n = q_.size();
    for (pdes::Packet& p : q_) out.push_back(std::move(p));
    q_.clear();
    return n;
  }

 private:
  std::mutex m_;
  std::vector<pdes::Packet> q_;
};

pdes::Packet make_packet(std::uint32_t src, std::uint64_t uid) {
  pdes::Packet p;
  p.src = src;
  p.dst = 0;
  p.ev.uid = uid;
  return p;
}

void BM_MailboxDelivery(benchmark::State& state) {
  const std::size_t producers = static_cast<std::size_t>(state.range(0));
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    pdes::BatchMailbox box(producers);
    // Per-producer outbox buffer published as one batch per slice -- the
    // engine's send path (threaded.cpp flush_outboxes).
    std::vector<std::vector<pdes::Packet>> bufs(producers);
    std::vector<pdes::Packet> out;
    std::size_t got = 0;
    for (std::size_t r = 0; r < kMailboxRounds; ++r) {
      for (std::size_t p = 0; p < producers; ++p) {
        for (std::size_t i = 0; i < kMailboxSlice; ++i)
          bufs[p].push_back(
              make_packet(static_cast<std::uint32_t>(p), r * kMailboxSlice + i));
        box.push_batch(static_cast<std::uint32_t>(p), bufs[p]);
      }
      out.clear();
      got += box.drain(out);
    }
    benchmark::DoNotOptimize(got);
    delivered += got;
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MailboxDelivery)->Arg(2)->Arg(8);

void BM_MailboxDeliveryMutexRef(benchmark::State& state) {
  const std::size_t producers = static_cast<std::size_t>(state.range(0));
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    MutexMailboxRef box;
    std::vector<pdes::Packet> out;
    std::size_t got = 0;
    for (std::size_t r = 0; r < kMailboxRounds; ++r) {
      for (std::size_t p = 0; p < producers; ++p) {
        for (std::size_t i = 0; i < kMailboxSlice; ++i)
          box.push(
              make_packet(static_cast<std::uint32_t>(p), r * kMailboxSlice + i));
      }
      out.clear();
      got += box.drain(out);
    }
    benchmark::DoNotOptimize(got);
    delivered += got;
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MailboxDeliveryMutexRef)->Arg(2)->Arg(8);

// ---- Event-queue microbench ---------------------------------------------
//
// Direct LpRuntime pending-queue churn: bulk out-of-order inserts, then an
// anti-message annihilation sweep over half the queue, then drain.  The
// annihilation half is the old std::set's worst case (linear uid scan per
// anti-message) and the lazy-deletion index's best.

class SinkLp final : public pdes::LogicalProcess {
 public:
  explicit SinkLp(std::string name) : LogicalProcess(std::move(name)) {}
  void simulate(const pdes::Event&, pdes::SimContext&) override {}
  std::unique_ptr<pdes::LpState> save_state() const override {
    return std::make_unique<pdes::LpState>();
  }
  void restore_state(const pdes::LpState&) override {}
};

class NullRouter final : public pdes::Router {
 public:
  void route(pdes::Event&&) override {}
};

void BM_EventQueueChurn(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  SinkLp lp("sink");
  NullRouter router;
  std::uint64_t ops = 0;
  const VirtualTime bound{1u << 20, 0};
  for (auto _ : state) {
    pdes::LpRuntime rt(&lp, pdes::OrderingMode::kArbitrary,
                       pdes::ConservativeStrategy::kGlobalSync,
                       pdes::SyncMode::kConservative, 0);
    std::uint64_t x = pdes::splitmix64(n * 1000003u + 17);
    for (std::size_t i = 0; i < n; ++i) {
      pdes::Event ev;
      ev.ts = {static_cast<PhysTime>(1 + (x = pdes::splitmix64(x)) % 65536),
               0};
      ev.src = 1;
      ev.dst = 0;
      ev.uid = 1000 + i;
      ev.kind = 1;
      rt.enqueue(std::move(ev), router);
    }
    for (std::size_t i = 0; i < n / 2; ++i) {
      pdes::Event anti;
      anti.ts = kTimeZero;  // annihilation matches by uid, not timestamp
      anti.src = 1;
      anti.dst = 0;
      anti.uid = 1000 + 2 * i;
      anti.kind = 1;
      anti.negative = true;
      rt.enqueue(std::move(anti), router);
    }
    while (rt.peek(bound, 1u << 20) == pdes::Eligibility::kReady)
      rt.process_next(router);
    ops += n + n / 2;
  }
  state.counters["ops/s"] = benchmark::Counter(static_cast<double>(ops),
                                               benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueChurn)->Arg(256)->Arg(4096);

// ---- Pending-queue primitive pair ---------------------------------------
//
// The same churn pattern (bulk insert, annihilate half by uid, drain)
// against the raw structures, old vs new, with a Threads(8) variant so the
// JSON records the ratio at 8 workers (each thread churns its own queue,
// exactly like 8 workers each owning their LPs' pending sets).  The set
// reference reproduces the pre-overhaul LpRuntime path: an ordered
// std::set<Event, EventOrder> whose annihilation is a linear uid scan.

pdes::Event churn_event(std::uint64_t& x, std::size_t i, bool negative) {
  pdes::Event ev;
  ev.ts = {negative ? 0
                    : static_cast<PhysTime>(
                          1 + (x = pdes::splitmix64(x)) % 65536),
           0};
  ev.src = 1;
  ev.dst = 0;
  ev.uid = 1000 + (negative ? 2 * i : i);
  ev.kind = 1;
  ev.negative = negative;
  return ev;
}

void BM_EventQueueOps(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t ops = 0;
  for (auto _ : state) {
    pdes::PendingQueue q;
    std::uint64_t x = pdes::splitmix64(n * 1000003u + 17);
    for (std::size_t i = 0; i < n; ++i)
      q.push(churn_event(x, i, /*negative=*/false));
    for (std::size_t i = 0; i < n / 2; ++i)
      q.erase_uid(1000 + 2 * i);  // O(1) lazy-deletion mark
    while (!q.empty()) q.pop_top();
    ops += n + n / 2;
  }
  state.counters["ops/s"] = benchmark::Counter(static_cast<double>(ops),
                                               benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueOps)->Arg(256)->Arg(4096)->Threads(1)->Threads(8)
    ->UseRealTime();

void BM_EventQueueOpsSetRef(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t ops = 0;
  for (auto _ : state) {
    std::set<pdes::Event, pdes::EventOrder> q;
    std::uint64_t x = pdes::splitmix64(n * 1000003u + 17);
    for (std::size_t i = 0; i < n; ++i)
      q.insert(churn_event(x, i, /*negative=*/false));
    for (std::size_t i = 0; i < n / 2; ++i) {
      const pdes::EventUid uid = 1000 + 2 * i;
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->uid == uid) {  // the old linear annihilation scan
          q.erase(it);
          break;
        }
      }
    }
    while (!q.empty()) q.erase(q.begin());
    ops += n + n / 2;
  }
  state.counters["ops/s"] = benchmark::Counter(static_cast<double>(ops),
                                               benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueOpsSetRef)->Arg(256)->Arg(4096)->Threads(1)->Threads(8)
    ->UseRealTime();

void BM_WaveformScheduleApply(benchmark::State& state) {
  vhdl::Waveform w(LogicVector{Logic::k0});
  PhysTime t = 0;
  for (auto _ : state) {
    ++t;
    w.schedule({t + 5, 1}, LogicVector{t % 2 ? Logic::k1 : Logic::k0},
               /*transport=*/false, {t, 0});
    benchmark::DoNotOptimize(w.apply_matured({t, 1}));
  }
}
BENCHMARK(BM_WaveformScheduleApply);

void BM_LogicResolution(benchmark::State& state) {
  const LogicVector a = LogicVector::from_string("01ZXWLH-U01ZXWLH");
  const LogicVector b = LogicVector::from_string("ZZZZZZZZZZZZZZZZ");
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolve(a, b));
  }
}
BENCHMARK(BM_LogicResolution);

// Console reporter that also records every run into the machine-readable
// report (BENCH_microbench.json), so bench_diff.py can track wall-clock
// regressions alongside the machine-model figures.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(bench::Report* rep) : rep_(rep) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      rep_->add_micro(r.benchmark_name(), r.GetAdjustedRealTime(),
                      r.GetAdjustedCPUTime(),
                      static_cast<std::uint64_t>(r.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::Report* rep_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::Report report("microbench");

  // Deterministic machine-model speedup rows (FSM, dynamic configuration).
  // Unlike the wall-clock micro rows above -- which bench_diff.py treats as
  // warn-only because they vary with the host -- these are exact functions
  // of the protocol and cost model, so the CI baseline diff fails hard when
  // a change regresses them.
  {
    bench::BuildFn build = [] { return make_fsm(4); };
    constexpr PhysTime kUntil = 400;
    const double seq = bench::sequential_cost(build, kUntil);
    for (std::size_t p : {1, 4, 8, 16}) {
      pdes::RunConfig rc;
      rc.num_workers = p;
      rc.configuration = pdes::Configuration::kDynamic;
      rc.until = kUntil;
      const auto st = bench::run_machine(build, rc);
      report.add_row("model_fsm", p, "dynamic",
                     st.deadlocked ? 0.0 : seq / st.makespan, st);
    }
  }

  RecordingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.write();
  return 0;
}
