// Chaos testing of the transport layer: with the reliable channel stacked
// on a faulty wire (drops, duplicates, reordering, latency jitter, link
// blackouts) every synchronisation configuration under both ordering modes
// must still commit exactly the sequential oracle's traces -- the transport
// faults may cost time but never correctness.  The reliable channel is
// composed exactly when the wire below is not lossless: a fault-free run
// passes straight through, and a dead link must still terminate with a
// structured TransportError, never hang or silently corrupt.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <set>

#include "circuits/builder.h"
#include "circuits/fsm.h"
#include "circuits/random_circuit.h"
#include "partition/partition.h"
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
using pdes::Configuration;
using pdes::FaultPlan;
using pdes::MachineEngine;
using pdes::OrderingMode;
using pdes::RunConfig;
using pdes::RunStats;
using pdes::SequentialEngine;
using pdes::ThreadedEngine;
using vhdl::SignalId;
using vhdl::TraceRecorder;

struct Built {
  std::unique_ptr<pdes::LpGraph> graph;
  std::unique_ptr<vhdl::Design> design;
  std::unique_ptr<vhdl::TraceRecorder> recorder;
};

using BuildFn = Built (*)();

// Hand-built gate netlist: clocked feedback through a DFF plus a small
// combinational cloud, enough cross-LP traffic to exercise every fault.
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

struct Circuit {
  const char* name;
  BuildFn build;
  PhysTime until;
};

const Circuit kCircuits[] = {
    {"gates", &build_gates, 600},
    {"fsm", &build_fsm, 250},
    {"random", &build_random, 300},
};

// An aggressive but recoverable fault plan: drop <= 20%, duplicate <= 10%,
// heavy reordering, latency jitter and occasional short blackouts.
FaultPlan chaos_plan(std::uint64_t seed) {
  FaultPlan fp;
  fp.seed = seed;
  fp.drop = 0.15;
  fp.duplicate = 0.08;
  fp.reorder = 0.30;
  fp.jitter = 1.5;
  fp.blackout = 0.01;
  fp.blackout_span = 6;
  return fp;
}

struct ChaosParam {
  const char* name;
  Configuration config;
  OrderingMode ordering;
};

std::string param_name(const testing::TestParamInfo<ChaosParam>& info) {
  return info.param.name;
}

class ChaosEquivalence : public testing::TestWithParam<ChaosParam> {};

// Tentpole acceptance: reliable channel over the faulty wire is
// protocol-transparent for every configuration x ordering mode, on every
// circuit -- and the counters prove the faults actually fired.
TEST_P(ChaosEquivalence, ReliableChannelMatchesOracle) {
  const ChaosParam& cp = GetParam();
  std::uint64_t seed = 1;
  for (const Circuit& tc : kCircuits) {
    Built ref = tc.build();
    SequentialEngine seq(*ref.graph);
    seq.set_commit_hook(ref.recorder->hook());
    seq.run(tc.until);

    Built par = tc.build();
    RunConfig rc;
    rc.num_workers = 4;
    rc.configuration = cp.config;
    rc.ordering = cp.ordering;
    rc.until = tc.until;
    rc.gvt_interval = 24;
    rc.transport.faults = chaos_plan(seed++);
    const auto part = partition::round_robin(par.graph->size(),
                                             rc.num_workers);
    MachineEngine eng(*par.graph, part, rc);
    eng.set_commit_hook(par.recorder->hook());
    const RunStats st = eng.run();

    EXPECT_FALSE(st.deadlocked) << tc.name;
    EXPECT_FALSE(st.transport_error.has_value())
        << tc.name << ": " << st.transport_error->str();
    EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "")
        << tc.name << " under " << cp.name;
    // The plan must have actually mangled traffic, and the channel must
    // have repaired it: every drop forces at least one retransmission.
    EXPECT_GT(st.transport.data_sent, 0u) << tc.name;
    EXPECT_GT(st.transport.dropped, 0u) << tc.name;
    EXPECT_GT(st.transport.retransmits, 0u) << tc.name;
    EXPECT_GT(st.transport.acks_sent, 0u) << tc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ChaosEquivalence,
    testing::Values(
        ChaosParam{"optimistic_arbitrary", Configuration::kAllOptimistic,
                   OrderingMode::kArbitrary},
        ChaosParam{"optimistic_user", Configuration::kAllOptimistic,
                   OrderingMode::kUserConsistent},
        ChaosParam{"conservative_arbitrary", Configuration::kAllConservative,
                   OrderingMode::kArbitrary},
        ChaosParam{"conservative_user", Configuration::kAllConservative,
                   OrderingMode::kUserConsistent},
        ChaosParam{"mixed_arbitrary", Configuration::kMixed,
                   OrderingMode::kArbitrary},
        ChaosParam{"mixed_user", Configuration::kMixed,
                   OrderingMode::kUserConsistent},
        ChaosParam{"dynamic_arbitrary", Configuration::kDynamic,
                   OrderingMode::kArbitrary},
        ChaosParam{"dynamic_user", Configuration::kDynamic,
                   OrderingMode::kUserConsistent}),
    param_name);

// Fuzz: random circuits under random fault plans and random protocol
// configurations, always trace-identical to the oracle.
TEST(ChaosFuzz, RandomPlansMatchOracle) {
  const Configuration configs[] = {
      Configuration::kAllOptimistic, Configuration::kAllConservative,
      Configuration::kMixed, Configuration::kDynamic};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCircuitParams p;
    p.seed = seed * 7919;
    p.num_gates = 16 + (seed * 13) % 24;
    p.num_dffs = 3 + seed % 5;
    p.zero_delay_pct = static_cast<int>((seed * 37) % 100);
    const PhysTime until = 250;

    Built ref;
    ref.graph = std::make_unique<pdes::LpGraph>();
    ref.design = std::make_unique<vhdl::Design>(*ref.graph);
    auto rc_ref = circuits::build_random_circuit(*ref.design, p);
    ref.recorder =
        std::make_unique<TraceRecorder>(*ref.design, rc_ref.observable);
    ref.design->finalize();
    SequentialEngine seq(*ref.graph);
    seq.set_commit_hook(ref.recorder->hook());
    seq.run(until);

    Built par;
    par.graph = std::make_unique<pdes::LpGraph>();
    par.design = std::make_unique<vhdl::Design>(*par.graph);
    auto rc_par = circuits::build_random_circuit(*par.design, p);
    par.recorder =
        std::make_unique<TraceRecorder>(*par.design, rc_par.observable);
    par.design->finalize();

    RunConfig rc;
    rc.num_workers = 2 + seed % 5;
    rc.configuration = configs[seed % 4];
    rc.ordering = seed % 2 ? OrderingMode::kUserConsistent
                           : OrderingMode::kArbitrary;
    rc.until = until;
    rc.gvt_interval = 16 + (seed % 3) * 16;
    FaultPlan& fp = rc.transport.faults;
    fp.seed = seed * 104729;
    fp.drop = 0.02 * static_cast<double>(seed % 10);       // 0 .. 0.18
    fp.duplicate = 0.015 * static_cast<double>(seed % 7);  // 0 .. 0.09
    fp.reorder = 0.05 * static_cast<double>(seed % 8);     // 0 .. 0.35
    fp.jitter = 0.5 * static_cast<double>(seed % 4);
    fp.blackout = seed % 3 ? 0.0 : 0.02;

    MachineEngine eng(
        *par.graph,
        partition::round_robin(par.graph->size(), rc.num_workers), rc);
    eng.set_commit_hook(par.recorder->hook());
    const RunStats st = eng.run();
    EXPECT_FALSE(st.deadlocked) << "seed " << seed;
    EXPECT_FALSE(st.transport_error.has_value()) << "seed " << seed;
    EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "")
        << "seed " << seed << " cfg " << to_string(rc.configuration);
  }
}

// The threaded engine shares the same channel stack; chaos must be
// transparent there too (real threads, ops-counter retransmit clock).
TEST(ChaosThreaded, ReliableChannelMatchesOracle) {
  for (const Circuit& tc : kCircuits) {
    Built ref = tc.build();
    SequentialEngine seq(*ref.graph);
    seq.set_commit_hook(ref.recorder->hook());
    seq.run(tc.until);

    Built par = tc.build();
    RunConfig rc;
    rc.num_workers = 3;
    rc.configuration = Configuration::kDynamic;
    rc.until = tc.until;
    rc.transport.faults = chaos_plan(77);
    rc.transport.faults.jitter = 0.0;  // no latency model on this wire
    ThreadedEngine eng(
        *par.graph,
        partition::round_robin(par.graph->size(), rc.num_workers), rc);
    eng.set_commit_hook(par.recorder->hook());
    const RunStats st = eng.run();
    EXPECT_FALSE(st.deadlocked) << tc.name;
    EXPECT_FALSE(st.transport_error.has_value()) << tc.name;
    EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "")
        << tc.name;
    EXPECT_GT(st.transport.dropped, 0u) << tc.name;
    EXPECT_GT(st.transport.retransmits, 0u) << tc.name;
  }
}

// Reliability follows the wire: a fault-free machine run has a lossless
// wire below its channel stack, so no seq/ack/retransmit is composed --
// not one ack or retransmission -- and the trace still matches the oracle.
TEST(ChaosDerivation, FaultFreeRunComposesNoReliableLayer) {
  Built ref = build_fsm();
  SequentialEngine seq(*ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(250);

  Built par = build_fsm();
  RunConfig rc;
  rc.num_workers = 4;
  rc.configuration = Configuration::kDynamic;
  rc.until = 250;
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  eng.set_commit_hook(par.recorder->hook());
  const RunStats st = eng.run();
  EXPECT_FALSE(st.transport_error.has_value());
  EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "");
  EXPECT_GT(st.transport.data_sent, 0u);
  EXPECT_EQ(st.transport.delivered, st.transport.data_sent);
  EXPECT_EQ(st.transport.acks_sent, 0u);
  EXPECT_EQ(st.transport.retransmits, 0u);
}

// A dead link (100% drop) with reliability on must exhaust the retry cap
// and unwind with a structured error naming the link, not spin forever.
TEST(ChaosUnreliable, DeadLinkExhaustsRetriesWithStructuredError) {
  testutil::Watchdog wd(
      "ChaosUnreliable.DeadLinkExhaustsRetriesWithStructuredError",
      std::chrono::seconds(120));
  Built par = build_gates();
  RunConfig rc;
  rc.num_workers = 3;
  rc.configuration = Configuration::kAllOptimistic;
  rc.until = 600;
  rc.transport.faults.seed = 11;
  rc.transport.faults.drop = 1.0;
  rc.transport.max_retries = 5;
  rc.transport.rto = 4.0;
  MachineEngine eng(*par.graph,
                    partition::round_robin(par.graph->size(), rc.num_workers),
                    rc);
  const RunStats st = eng.run();  // must not hang
  ASSERT_TRUE(st.transport_error.has_value());
  EXPECT_GE(st.transport_error->attempts, rc.transport.max_retries);
  EXPECT_LT(st.transport_error->src_worker, rc.num_workers);
  EXPECT_LT(st.transport_error->dst_worker, rc.num_workers);
  EXPECT_FALSE(st.transport_error->str().empty());
  EXPECT_GT(st.transport.retransmits, 0u);
}

// Same dead-link contract on the threaded engine.
TEST(ChaosUnreliable, ThreadedDeadLinkSurfacesError) {
  testutil::Watchdog wd("ChaosUnreliable.ThreadedDeadLinkSurfacesError",
                        std::chrono::seconds(120));
  Built par = build_gates();
  RunConfig rc;
  rc.num_workers = 2;
  rc.configuration = Configuration::kDynamic;
  rc.until = 600;
  rc.transport.faults.seed = 13;
  rc.transport.faults.drop = 1.0;
  rc.transport.max_retries = 5;
  rc.transport.rto = 8.0;
  ThreadedEngine eng(*par.graph,
                     partition::round_robin(par.graph->size(),
                                            rc.num_workers),
                     rc);
  const RunStats st = eng.run();  // must not hang
  ASSERT_TRUE(st.transport_error.has_value());
  EXPECT_GE(st.transport_error->attempts, rc.transport.max_retries);
}

// A wire that swallows every packet, for pinning down the session layer's
// retry-cap contract without an engine in the way.
struct BlackholeWire final : pdes::Transport {
  std::uint64_t swallowed = 0;
  void submit(pdes::Packet&&, double) override { ++swallowed; }
  [[nodiscard]] bool lossless() const override { return false; }
};

// A lossy wire that records every packet it is handed, so a test can
// deliver them by hand in any order.
struct CaptureWire final : pdes::Transport {
  std::vector<pdes::Packet> sent;
  void submit(pdes::Packet&& pkt, double) override {
    sent.push_back(std::move(pkt));
  }
  [[nodiscard]] bool lossless() const override { return false; }
};

pdes::Packet data_packet(std::uint32_t src, std::uint32_t dst,
                         std::uint64_t seq, pdes::EventUid uid) {
  pdes::Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.seq = seq;
  pkt.ev.ts = VirtualTime{static_cast<PhysTime>(uid), 0};
  pkt.ev.uid = uid;
  return pkt;
}

// Recovery resets the channel instead of restoring it: with packets in
// flight, successors buffered out of order, an ack owed and a packet parked
// in the fault decorator, reset() leaves the stack quiescent, and the next
// packet on each link is sequence 1 again and is delivered in order.
TEST(ChannelStackReset, ResetLeavesQuiescentFreshLinks) {
  CaptureWire wire;
  FaultPlan plan;
  plan.seed = 5;
  plan.reorder = 1.0;  // every submission parks in the decorator
  pdes::FaultyTransport faulty(wire, /*num_workers=*/2, plan);
  pdes::TransportConfig tc;
  pdes::ChannelStack stack(faulty, /*num_workers=*/2, tc);
  stack.attach_faulty(&faulty);
  std::vector<std::pair<std::uint32_t, pdes::EventUid>> got;
  stack.set_deliver([&](std::uint32_t worker, pdes::Event&& ev) {
    got.emplace_back(worker, ev.uid);
  });

  for (pdes::EventUid uid = 1; uid <= 3; ++uid) {
    pdes::Packet p = data_packet(0, 1, 0, uid);
    stack.send(0, 1, std::move(p.ev), 0.0);
  }
  stack.on_wire_delivery(data_packet(1, 0, 3, 13), 0.0);
  stack.on_wire_delivery(data_packet(1, 0, 2, 12), 0.0);
  ASSERT_TRUE(got.empty());  // seq 1 of link 1->0 never arrived
  ASSERT_EQ(stack.counters().buffered, 2u);
  ASSERT_EQ(faulty.held_count(), 3u);
  ASSERT_FALSE(stack.quiescent());

  stack.reset();
  EXPECT_TRUE(stack.quiescent());
  EXPECT_EQ(faulty.held_count(), 0u);
  EXPECT_EQ(stack.flush_acks(0, 0.0), 0u);  // the owed ack is forgotten
  EXPECT_TRUE(wire.sent.empty());

  // Link 1->0: its first packet after the reset is delivered at once, and
  // the stale buffered successors stay gone.
  stack.on_wire_delivery(data_packet(1, 0, 1, 21), 0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], std::make_pair(0u, pdes::EventUid{21}));

  // Link 0->1: the next send is numbered 1 again and is delivered in order.
  pdes::Packet p = data_packet(0, 1, 0, 31);
  stack.send(0, 1, std::move(p.ev), 0.0);
  EXPECT_EQ(faulty.release_held(0, 0.0), 1u);
  ASSERT_EQ(wire.sent.size(), 1u);
  EXPECT_EQ(wire.sent[0].seq, 1u);
  stack.on_wire_delivery(std::move(wire.sent[0]), 0.0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], std::make_pair(1u, pdes::EventUid{31}));
  EXPECT_EQ(stack.flush_acks(1, 0.0), 1u);
}

// The per-link counts the distributed engine's GVT cuts compare: a send
// counts at once, a delivery only once it is in order -- a reorder-buffered
// packet and a duplicate copy never count -- over a lossy wire (seq/ack
// composed) and a lossless one alike, and reset() zeroes both sides.
struct PassWire final : pdes::Transport {
  std::vector<pdes::Packet> sent;
  void submit(pdes::Packet&& pkt, double) override {
    sent.push_back(std::move(pkt));
  }
};

TEST(ChannelStackCounts, OnlyInOrderDeliveriesCount) {
  CaptureWire wire;
  pdes::ChannelStack stack(wire, /*num_workers=*/2, pdes::TransportConfig{});
  std::size_t delivered = 0;
  stack.set_deliver([&](std::uint32_t, pdes::Event&&) { ++delivered; });
  for (pdes::EventUid uid = 1; uid <= 3; ++uid) {
    pdes::Packet p = data_packet(0, 1, 0, uid);
    stack.send(0, 1, std::move(p.ev), 0.0);
  }
  EXPECT_EQ(stack.sent_count(0, 1), 3u);
  EXPECT_EQ(stack.sent_count(1, 0), 0u);
  EXPECT_EQ(stack.sent_counts(0), (std::vector<std::uint64_t>{0, 3}));

  stack.on_wire_delivery(data_packet(0, 1, 3, 3), 0.0);  // buffered
  stack.on_wire_delivery(data_packet(0, 1, 3, 3), 0.0);  // duplicate of it
  EXPECT_EQ(stack.delivered_count(0, 1), 0u);
  EXPECT_EQ(stack.counters().buffered, 1u);
  stack.on_wire_delivery(data_packet(0, 1, 1, 1), 0.0);
  EXPECT_EQ(stack.delivered_count(0, 1), 1u);
  stack.on_wire_delivery(data_packet(0, 1, 1, 1), 0.0);  // stale duplicate
  EXPECT_EQ(stack.delivered_count(0, 1), 1u);
  stack.on_wire_delivery(data_packet(0, 1, 2, 2), 0.0);  // releases seq 3
  EXPECT_EQ(stack.delivered_count(0, 1), 3u);
  EXPECT_EQ(stack.delivered_counts(1), (std::vector<std::uint64_t>{3, 0}));
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(stack.counters().dup_discarded, 2u);

  stack.reset();
  EXPECT_EQ(stack.sent_count(0, 1), 0u);
  EXPECT_EQ(stack.delivered_count(0, 1), 0u);

  // A lossless wire passes straight through, and still counts.
  PassWire pass;
  pdes::ChannelStack direct(pass, /*num_workers=*/2, pdes::TransportConfig{});
  pdes::Packet p = data_packet(1, 0, 0, 9);
  direct.send(1, 0, std::move(p.ev), 0.0);
  ASSERT_EQ(pass.sent.size(), 1u);
  EXPECT_EQ(pass.sent[0].seq, 0u);
  EXPECT_EQ(direct.sent_count(1, 0), 1u);
  EXPECT_EQ(direct.delivered_count(1, 0), 0u);
  direct.on_wire_delivery(std::move(pass.sent[0]), 0.0);
  EXPECT_EQ(direct.delivered_count(1, 0), 1u);
  direct.reset();
  EXPECT_EQ(direct.sent_count(1, 0), 0u);
  EXPECT_EQ(direct.delivered_count(1, 0), 0u);
}

// Three workers over one ChannelStack whose wire the test delivers by
// hand, each with a local event queue and a GvtCut: enough to replay the
// distributed engine's two-wave cut against adversarial message timing and
// compare its estimate with the true GVT (the minimum over every queue and
// every packet still on the wire).
class CutHarness {
 public:
  static constexpr std::uint32_t kWorkers = 3;

  CutHarness() : stack_(wire_, kWorkers, pdes::TransportConfig{}) {
    stack_.set_deliver([this](std::uint32_t w, pdes::Event&& ev) {
      queue_[w].insert(ev.ts);
    });
  }

  void enqueue(std::uint32_t w, PhysTime ts) { queue_[w].insert(vt(ts)); }
  /// Worker `w` processes its earliest event.
  void process(std::uint32_t w) { queue_[w].erase(queue_[w].begin()); }
  /// A data packet: an event, a null message or an anti-message alike.
  void send(std::uint32_t from, std::uint32_t to, PhysTime ts) {
    cut_[from].note_send(vt(ts));
    pdes::Event ev;
    ev.ts = vt(ts);
    ev.uid = ++uid_;
    stack_.send(from, to, std::move(ev), 0.0);
  }
  /// Delivers the oldest packet still on the wire for link from->to.
  void deliver(std::uint32_t from, std::uint32_t to) {
    for (auto it = wire_.sent.begin(); it != wire_.sent.end(); ++it) {
      if (it->src != from || it->dst != to) continue;
      pdes::Packet pkt = std::move(*it);
      wire_.sent.erase(it);
      stack_.on_wire_delivery(std::move(pkt), 0.0);
      return;
    }
    FAIL() << "nothing in flight on " << from << "->" << to;
  }

  /// Wave 1 on every worker, then the coordinator's transposition.
  void open_cut() {
    std::vector<std::vector<std::uint64_t>> sent(kWorkers);
    for (std::uint32_t w = 0; w < kWorkers; ++w)
      sent[w] = cut_[w].open(stack_, w);
    for (std::uint32_t w = 0; w < kWorkers; ++w)
      cut_[w].set_targets(pdes::GvtCut::white_targets(sent, w));
  }
  [[nodiscard]] bool whites_in(std::uint32_t w) const {
    return cut_[w].whites_in(stack_, w);
  }
  /// Wave 2 for worker `w`; only legal once its whites are in.
  void report(std::uint32_t w) {
    ASSERT_TRUE(whites_in(w));
    const VirtualTime local =
        queue_[w].empty() ? kTimeInf : *queue_[w].begin();
    estimate_ = std::min(estimate_, cut_[w].report(local));
  }
  [[nodiscard]] VirtualTime estimate() const { return estimate_; }
  [[nodiscard]] VirtualTime true_gvt() const {
    VirtualTime m = kTimeInf;
    for (const auto& q : queue_)
      if (!q.empty()) m = std::min(m, *q.begin());
    for (const pdes::Packet& p : wire_.sent)
      if (p.kind == pdes::Packet::Kind::kData) m = std::min(m, p.ev.ts);
    return m;
  }

 private:
  static VirtualTime vt(PhysTime ts) { return VirtualTime{ts, 0}; }

  CaptureWire wire_;
  pdes::ChannelStack stack_;
  std::array<std::multiset<VirtualTime>, kWorkers> queue_;
  std::array<pdes::GvtCut, kWorkers> cut_;
  pdes::EventUid uid_ = 0;
  VirtualTime estimate_ = kTimeInf;
};

// A white straggler delivered after its receiver's cut: the receiver must
// not report until it lands, and then its report covers it.
TEST(GvtCutArithmetic, WhiteStragglerHoldsTheReceiversReport) {
  CutHarness h;
  h.enqueue(0, 30);
  h.enqueue(1, 20);
  h.enqueue(2, 25);
  h.send(0, 1, 5);  // white: sent before any cut, still on the wire
  h.open_cut();
  EXPECT_TRUE(h.whites_in(0));
  EXPECT_TRUE(h.whites_in(2));
  EXPECT_FALSE(h.whites_in(1));
  h.report(0);
  h.report(2);
  h.deliver(0, 1);  // the straggler arrives after worker 1's cut
  ASSERT_TRUE(h.whites_in(1));
  h.report(1);
  EXPECT_EQ(h.estimate(), (VirtualTime{5, 0}));
  EXPECT_LE(h.estimate(), h.true_gvt());
}

// A red packet still on the wire at wave 2: its sender executed past it
// and its receiver reported without it, so only the sender's red minimum
// keeps the estimate down.
TEST(GvtCutArithmetic, RedPacketInFlightAtWaveTwo) {
  CutHarness h;
  h.enqueue(0, 30);
  h.enqueue(1, 40);
  h.enqueue(2, 25);
  h.open_cut();
  h.process(2);      // worker 2 keeps executing inside the cut...
  h.send(2, 0, 26);  // ...and sends red at 26
  h.report(0);       // worker 0 reports 30 without the packet
  h.report(1);
  h.report(2);       // worker 2's queue is empty: it reports the red 26
  EXPECT_EQ(h.estimate(), (VirtualTime{26, 0}));
  EXPECT_LE(h.estimate(), h.true_gvt());
  h.deliver(2, 0);
  EXPECT_LE(h.estimate(), h.true_gvt());
}

// A rollback inside the cut: a white straggler at 12 rolls worker 1 back,
// which cancels its earlier send at 14 with a red anti-message and then
// re-executes past the straggler before it reports.  The anti-message is
// the true minimum until it lands; without the red minimum the estimate
// would read 30.
TEST(GvtCutArithmetic, RollbackAntiMessageStaysCovered) {
  CutHarness h;
  h.enqueue(0, 30);
  h.enqueue(1, 50);
  h.enqueue(2, 30);
  h.send(0, 1, 12);  // white straggler for worker 1
  h.open_cut();
  h.report(0);
  h.report(2);       // worker 2 already processed the event at 14
  h.deliver(0, 1);
  h.send(1, 2, 14);  // anti-message for the send at 14, red
  h.process(1);      // re-executes the straggler at 12
  h.report(1);       // local minimum 50, red minimum 14
  EXPECT_EQ(h.estimate(), (VirtualTime{14, 0}));
  EXPECT_LE(h.estimate(), h.true_gvt());
}

// The stop-the-world close rule: every link's sender-side count must equal
// its receiver's delivered count; a worker that takes no part is skipped.
TEST(GvtCutArithmetic, BalancedComparesEveryLinkBothWays) {
  using Counts = std::vector<std::vector<std::uint64_t>>;
  const Counts sent = {{0, 4, 1}, {2, 0, 0}, {}};
  EXPECT_TRUE(pdes::GvtCut::balanced(sent, {{0, 2, 9}, {4, 0, 9}, {}}));
  EXPECT_FALSE(pdes::GvtCut::balanced(sent, {{0, 2, 9}, {3, 0, 9}, {}}));
  EXPECT_FALSE(pdes::GvtCut::balanced(sent, {{0, 1, 9}, {4, 0, 9}, {}}));
  EXPECT_EQ(pdes::GvtCut::white_targets(sent, 0),
            (std::vector<std::uint64_t>{0, 2, 0}));
}

// Unit-level retry-cap contract, timer path: a permanently black link must
// latch exactly one structured error naming the link and sequence once the
// retransmission budget is spent, and from then on poll() and flush() must
// be no-ops -- an unwinding engine keeps calling both, and a dead stack
// that still retransmits would livelock the shutdown.
TEST(ChaosUnreliable, ChannelStackPollLatchesErrorThenGoesQuiet) {
  BlackholeWire wire;
  pdes::TransportConfig tc;
  tc.max_retries = 4;
  tc.rto = 1.0;
  pdes::ChannelStack stack(wire, /*num_workers=*/3, tc);
  stack.set_deliver([](std::uint32_t, pdes::Event&&) {
    FAIL() << "a blackhole wire must never deliver";
  });

  pdes::Event ev;
  ev.ts = VirtualTime{10, 0};
  ev.src = 0;
  ev.dst = 5;
  ev.uid = 7;
  stack.send(0, 2, std::move(ev), 0.0);
  ASSERT_FALSE(stack.error().has_value());
  ASSERT_FALSE(stack.quiescent());

  // Advance far past every (doubling) timeout each round; the cap must hit
  // within max_retries polls, never later.
  double now = 0.0;
  for (std::uint32_t i = 0; i < tc.max_retries + 2 && !stack.error(); ++i) {
    now += 1e6;
    stack.poll(0, now);
  }
  ASSERT_TRUE(stack.error().has_value());
  const pdes::TransportError err = *stack.error();
  EXPECT_EQ(err.src_worker, 0u);
  EXPECT_EQ(err.dst_worker, 2u);
  EXPECT_EQ(err.seq, 1u);  // first packet on the link
  EXPECT_GE(err.attempts, tc.max_retries);
  EXPECT_NE(err.str().find("0->2"), std::string::npos) << err.str();

  // Latched means latched: no more wire traffic, no busy-work, and the
  // error object itself never changes.
  const std::uint64_t sent_at_latch = wire.swallowed;
  now += 1e6;
  EXPECT_EQ(stack.poll(0, now), 0u);
  EXPECT_EQ(stack.flush(0, now), 0u);
  EXPECT_EQ(wire.swallowed, sent_at_latch);
  EXPECT_EQ(stack.error()->attempts, err.attempts);
  EXPECT_EQ(stack.error()->seq, err.seq);
}

// Unit-level retry-cap contract, drain path: flush() force-retransmits and
// bills one attempt per call, so a drain loop that keeps flushing into a
// black link must exhaust the cap in bounded steps even with timers frozen.
TEST(ChaosUnreliable, ChannelStackFlushExhaustsCapWithFrozenClock) {
  BlackholeWire wire;
  pdes::TransportConfig tc;
  tc.max_retries = 6;
  tc.rto = 1e9;  // timer path can never fire; only flush() spends attempts
  pdes::ChannelStack stack(wire, /*num_workers=*/2, tc);
  stack.set_deliver([](std::uint32_t, pdes::Event&&) {
    FAIL() << "a blackhole wire must never deliver";
  });

  pdes::Event ev;
  ev.ts = VirtualTime{1, 0};
  ev.src = 0;
  ev.dst = 1;
  stack.send(0, 1, std::move(ev), 0.0);
  std::uint32_t flushes = 0;
  while (!stack.error() && flushes < tc.max_retries + 2) {
    stack.flush(0, 0.0);
    ++flushes;
  }
  ASSERT_TRUE(stack.error().has_value());
  EXPECT_LE(flushes, tc.max_retries + 1u);
  EXPECT_EQ(stack.error()->src_worker, 0u);
  EXPECT_EQ(stack.error()->dst_worker, 1u);
  EXPECT_GE(stack.error()->attempts, tc.max_retries);
  EXPECT_EQ(stack.flush(0, 0.0), 0u);  // no-op once latched
  EXPECT_EQ(stack.poll(0, 1e18), 0u);
}

// Determinism: the same fault seed must yield bit-identical fault counters
// on the machine engine (the whole point of a seeded plan).
TEST(ChaosDeterminism, SameSeedSameCounters) {
  auto run_once = [] {
    Built par = build_fsm();
    RunConfig rc;
    rc.num_workers = 4;
    rc.configuration = Configuration::kDynamic;
    rc.until = 250;
    rc.transport.faults = chaos_plan(42);
    MachineEngine eng(
        *par.graph,
        partition::round_robin(par.graph->size(), rc.num_workers), rc);
    return eng.run();
  };
  const RunStats a = run_once();
  const RunStats b = run_once();
  EXPECT_EQ(a.transport.data_sent, b.transport.data_sent);
  EXPECT_EQ(a.transport.dropped, b.transport.dropped);
  EXPECT_EQ(a.transport.duplicated, b.transport.duplicated);
  EXPECT_EQ(a.transport.reordered, b.transport.reordered);
  EXPECT_EQ(a.transport.retransmits, b.transport.retransmits);
  EXPECT_EQ(a.makespan, b.makespan);
}

// ---- Structured-diagnostic formatting -------------------------------------
// DeadlockReport::str() and TransportError::str() are what a user actually
// sees when a run unwinds; their content and shape are contracts.

TEST(Diagnostics, DeadlockReportFormatsBlockedLps) {
  pdes::DeadlockReport report;
  report.gvt = VirtualTime{40, 2};
  pdes::DeadlockReport::LpDiag d;
  d.id = 7;
  d.next_ts = VirtualTime{41, 0};
  d.min_channel_clock = VirtualTime{39, 0};
  d.pending = 3;
  d.mode = pdes::SyncMode::kConservative;
  report.blocked.push_back(d);
  const std::string s = report.str();
  EXPECT_NE(s.find("protocol deadlock"), std::string::npos) << s;
  EXPECT_NE(s.find("1 LP(s) with pending work"), std::string::npos) << s;
  EXPECT_NE(s.find("lp 7"), std::string::npos) << s;
  EXPECT_NE(s.find("pending=3"), std::string::npos) << s;
  EXPECT_NE(s.find("mode=conservative"), std::string::npos) << s;
  EXPECT_NE(s.find("min_channel_clock"), std::string::npos) << s;
  EXPECT_EQ(s.find("..."), std::string::npos) << s;  // no truncation marker
}

TEST(Diagnostics, DeadlockReportTruncatesAfterEightLps) {
  pdes::DeadlockReport report;
  report.gvt = kTimeZero;
  for (pdes::LpId id = 0; id < 12; ++id) {
    pdes::DeadlockReport::LpDiag d;
    d.id = id;
    d.next_ts = VirtualTime{static_cast<PhysTime>(id), 0};
    d.min_channel_clock = kTimeInf;  // suppresses the channel column
    d.pending = 1;
    d.mode = pdes::SyncMode::kOptimistic;
    report.blocked.push_back(d);
  }
  const std::string s = report.str();
  EXPECT_NE(s.find("protocol deadlock"), std::string::npos) << s;
  EXPECT_NE(s.find("12 LP(s) with pending work"), std::string::npos) << s;
  EXPECT_NE(s.find(" ..."), std::string::npos) << s;
  EXPECT_NE(s.find("lp 7"), std::string::npos) << s;   // 8th entry shown
  EXPECT_EQ(s.find("lp 8"), std::string::npos) << s;   // 9th entry cut
  EXPECT_EQ(s.find("min_channel_clock"), std::string::npos) << s;
  EXPECT_NE(s.find("mode=optimistic"), std::string::npos) << s;
}

TEST(Diagnostics, TransportErrorNamesLinkWhenAttemptsKnown) {
  pdes::TransportError err;
  err.src_worker = 2;
  err.dst_worker = 5;
  err.seq = 99;
  err.attempts = 7;
  err.message = "gave up after retry cap";
  const std::string s = err.str();
  EXPECT_NE(s.find("transport error"), std::string::npos) << s;
  EXPECT_NE(s.find("2->5"), std::string::npos) << s;
  EXPECT_NE(s.find("seq 99"), std::string::npos) << s;
  EXPECT_NE(s.find("7 attempts"), std::string::npos) << s;
  EXPECT_NE(s.find("gave up after retry cap"), std::string::npos) << s;
}

}  // namespace
}  // namespace vsim
