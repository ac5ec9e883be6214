// Ablation benches for the design choices called out in DESIGN.md:
//  (a) GVT round interval: synchronisation frequency vs overhead;
//  (b) partitioning: the paper's naive round-robin vs the bipartite-aware
//      BFS scheme suggested in its "Remarks" section;
//  (c) optimistic memory pressure: capping saved history forces memory
//      stalls (the paper: "optimistic demands huge amounts of memory");
//  (f) fault tolerance: checkpoint period vs crash rate -- the capture tax
//      of short periods against the re-execution lost to each recovery;
//  (g) placement: static round-robin / blocks / bipartite-BFS vs dynamic
//      GVT-round rebalancing (blocks start + LP migration);
//  (h) clustering: flat one-LP-per-signal/process vs BFS-fused ClusterLps
//      on a 100k-signal netlist -- cluster size x P, with the memory proxy
//      and GVT scan volume before/after fusing.
//  (i) adaptation: the rate-based kDynamic controller vs its own ablated
//      variants on the IIR at P=16, the workload/scale cell where the old
//      single-window controller collapsed to ~0.26x of all-optimistic.
//
// Optional trailing args name sections (their report `section` tags, e.g.
// `placement adaptation`) and skip the rest -- CI gates those cells
// against the committed baseline without paying for the full sweep.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/report.h"
#include "circuits/dct.h"
#include "circuits/fsm.h"
#include "circuits/iir.h"
#include "circuits/random_circuit.h"
#include "obs/metrics.h"
#include "partition/cluster.h"
#include "partition/partition.h"
#include "pdes/cluster.h"

using namespace vsim;

namespace {

bench::BuildFn fsm_build = [] {
  bench::Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  circuits::FsmParams p;
  circuits::build_fsm(*b.design, p);
  b.design->finalize();
  return b;
};

bench::BuildFn iir_build = [] {
  bench::Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  circuits::IirParams p;
  circuits::build_iir(*b.design, p);
  b.design->finalize();
  return b;
};

// Rate-skewed 3-bit counter lanes, the load-imbalance generator for the
// placement ablation.  Every lane is a fixed number of LPs (clock,
// inverter, 2 xor, 1 and, 3 dff + their signals) clocked at rates spanning
// `prefix`x..1x, so both naive static schemes are load-blind in a different
// way: `blocks` hands whole lanes out and overloads the fast-lane workers,
// while `round-robin`'s stride divides the lane stride, so one worker
// collects every lane's clock LP (the hottest position class).  Only
// observed-load migration can repair either.
void add_counter_lanes(circuits::CircuitBuilder& cb, int lanes,
                       const PhysTime (&half_periods)[4],
                       const char* prefix) {
  for (int lane = 0; lane < lanes; ++lane) {
    const std::string tag =
        std::string(prefix) + std::to_string(lane) + "_";
    const auto clk = cb.wire(tag + "clk");
    cb.clock(clk, half_periods[lane % 4]);
    const auto q0 = cb.wire(tag + "q0");
    const auto q1 = cb.wire(tag + "q1");
    const auto q2 = cb.wire(tag + "q2");
    const auto nq0 = cb.wire(tag + "nq0");
    cb.gate(circuits::GateKind::kNot, {q0}, nq0);  // d0 = !q0
    const auto d1 = cb.wire(tag + "d1");
    cb.gate(circuits::GateKind::kXor, {q1, q0}, d1);
    const auto c1 = cb.wire(tag + "c1");
    cb.gate(circuits::GateKind::kAnd, {q0, q1}, c1);
    const auto d2 = cb.wire(tag + "d2");
    cb.gate(circuits::GateKind::kXor, {q2, c1}, d2);
    cb.dff(clk, nq0, q0);
    cb.dff(clk, d1, q1);
    cb.dff(clk, d2, q2);
  }
}

// Imbalanced FSM bank: nothing but skewed counter lanes.
bench::BuildFn fsm_imb_build = [] {
  bench::Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  circuits::CircuitBuilder cb(*b.design, /*gate_delay=*/1);
  const PhysTime half_periods[] = {5, 10, 20, 40};
  add_counter_lanes(cb, 16, half_periods, "l");
  b.design->finalize();
  return b;
};

// Imbalanced DCT: the paper's gate-level datapath plus a rate-skewed
// control counter bank (think clock-domain controllers beside a
// homogeneous datapath).  The datapath part is naturally count-balanced,
// so all the skew the static schemes must cope with comes from the bank --
// which neither copes with (see add_counter_lanes).
bench::BuildFn dct_imb_build = [] {
  bench::Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  circuits::DctParams p;
  p.n = 2;  // ablation-sized: the full 4x4 array is bench_fig10's job
  p.width = 3;
  circuits::build_dct(*b.design, p);
  circuits::CircuitBuilder cb(*b.design, /*gate_delay=*/1);
  const PhysTime half_periods[] = {4, 8, 16, 32};
  add_counter_lanes(cb, 8, half_periods, "ctrl");
  b.design->finalize();
  return b;
};

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> only(argv + 1, argv + argc);
  const auto want = [&only](const char* section) {
    if (only.empty()) return true;
    for (const std::string& s : only)
      if (s == section) return true;
    return false;
  };
  const PhysTime until = 800;
  const bool need_fsm_seq = want("gvt_interval") || want("transport_faults") ||
                            want("checkpointing") || want("history_cap");
  const double seq =
      need_fsm_seq ? bench::sequential_cost(fsm_build, until) : 0.0;
  bench::Report report("ablation");
  report.set_config("until_fsm", static_cast<std::uint64_t>(until));

  if (want("gvt_interval")) {
  std::printf("# Ablation (a): GVT interval sweep, FSM, dynamic, P=8\n");
  std::printf("%-10s%12s%12s%14s\n", "interval", "speedup", "rounds",
              "rollbacks");
  for (std::uint32_t interval : {8u, 16u, 32u, 64u, 128u, 256u}) {
    pdes::RunConfig rc;
    rc.num_workers = 8;
    rc.configuration = pdes::Configuration::kDynamic;
    rc.gvt_interval = interval;
    rc.until = until;
    const auto st = bench::run_machine(fsm_build, rc);
    std::printf("%-10u%12s%12llu%14llu\n", interval,
                bench::fmt(seq / st.makespan).c_str(),
                static_cast<unsigned long long>(st.gvt_rounds),
                static_cast<unsigned long long>(st.total_rollbacks()));
    std::fflush(stdout);
    report.add_row("gvt_interval", 8, "interval=" + std::to_string(interval),
                   seq / st.makespan, st);
  }
  }

  if (want("partitioning")) {
  std::printf("\n# Ablation (b): partitioning, IIR, dynamic\n");
  const PhysTime iuntil = 4000;
  const double iseq = bench::sequential_cost(iir_build, iuntil);
  {
    bench::Built probe = iir_build();
    std::printf("%-6s%16s%16s%12s%12s\n", "P", "round-robin", "bipartite",
                "cut(rr)", "cut(bfs)");
    for (std::size_t p : {2u, 4u, 8u, 16u}) {
      pdes::RunConfig rc;
      rc.num_workers = p;
      rc.configuration = pdes::Configuration::kDynamic;
      rc.until = iuntil;
      const auto rr = bench::run_machine(iir_build, rc, false);
      const auto bf = bench::run_machine(iir_build, rc, true);
      const auto prr = partition::round_robin(probe.graph->size(), p);
      const auto pbf = partition::bipartite_bfs(*probe.graph, p);
      std::printf("%-6zu%16s%16s%12zu%12zu\n", p,
                  bench::fmt(iseq / rr.makespan).c_str(),
                  bench::fmt(iseq / bf.makespan).c_str(),
                  partition::cut_size(*probe.graph, prr),
                  partition::cut_size(*probe.graph, pbf));
      std::fflush(stdout);
      report.add_row("partitioning", p, "round-robin", iseq / rr.makespan,
                     rr);
      report.add_row("partitioning", p, "bipartite", iseq / bf.makespan, bf);
    }
  }
  }

  if (want("cancellation")) {
  std::printf(
      "\n# Ablation (d): cancellation policy, aggressive vs lazy, P=8\n"
      "# (lazy suppresses anti-messages when re-execution regenerates the\n"
      "#  same messages -- frequent in digital logic where recomputation\n"
      "#  after a rollback often converges to identical values)\n");
  std::printf("%-10s%14s%14s%12s%12s\n", "circuit", "aggressive", "lazy",
              "anti(aggr)", "anti(lazy)");
  {
    struct Row {
      const char* name;
      const bench::BuildFn* build;
      PhysTime until;
    };
    const Row rows[] = {{"FSM", &fsm_build, 800}, {"IIR", &iir_build, 4000}};
    for (const Row& row : rows) {
      const double sc = bench::sequential_cost(*row.build, row.until);
      double mk[2];
      std::uint64_t anti[2];
      for (int lazy = 0; lazy < 2; ++lazy) {
        pdes::RunConfig rc;
        rc.num_workers = 8;
        rc.configuration = pdes::Configuration::kAllOptimistic;
        rc.cancellation = lazy ? pdes::CancellationPolicy::kLazy
                               : pdes::CancellationPolicy::kAggressive;
        rc.until = row.until;
        const auto st = bench::run_machine(*row.build, rc);
        mk[lazy] = st.makespan;
        anti[lazy] = 0;
        for (const auto& l : st.per_lp) anti[lazy] += l.anti_messages_sent;
        report.add_row(
            "cancellation", 8,
            std::string(row.name) + (lazy ? "/lazy" : "/aggressive"),
            sc / st.makespan, st);
      }
      std::printf("%-10s%14s%14s%12llu%12llu\n", row.name,
                  bench::fmt(sc / mk[0]).c_str(),
                  bench::fmt(sc / mk[1]).c_str(),
                  static_cast<unsigned long long>(anti[0]),
                  static_cast<unsigned long long>(anti[1]));
      std::fflush(stdout);
    }
  }
  }

  if (want("transport_faults")) {
  std::printf(
      "\n# Ablation (e): transport faults with reliable delivery, FSM, P=8\n"
      "# (drop/dup/reorder on the wire; the reliable channel repairs the\n"
      "#  stream, and its acks + retransmissions are charged to the worker\n"
      "#  clocks, so fault recovery shows up directly in the makespan.  The\n"
      "#  channel is composed only over a lossy wire: the drop=0 row has no\n"
      "#  faults, so it runs pass-through with no acks at all)\n");
  std::printf("%-10s%12s%12s%14s%12s\n", "drop", "speedup", "drops",
              "retransmits", "acks");
  for (double drop : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    pdes::RunConfig rc;
    rc.num_workers = 8;
    rc.configuration = pdes::Configuration::kDynamic;
    rc.until = until;
    rc.transport.faults.seed = 7;
    rc.transport.faults.drop = drop;
    rc.transport.faults.duplicate = drop / 2;
    rc.transport.faults.reorder = drop * 2;
    const auto st = bench::run_machine(fsm_build, rc);
    std::printf("%-10s%12s%12llu%14llu%12llu\n", bench::fmt(drop).c_str(),
                bench::fmt(seq / st.makespan).c_str(),
                static_cast<unsigned long long>(st.transport.dropped),
                static_cast<unsigned long long>(st.transport.retransmits),
                static_cast<unsigned long long>(st.transport.acks_sent));
    std::fflush(stdout);
    report.add_row("transport_faults", 8, "drop=" + bench::fmt(drop),
                   seq / st.makespan, st);
  }
  }

  if (want("checkpointing")) {
  std::printf(
      "\n# Ablation (f): checkpoint period x crash rate, FSM, P=8, dynamic\n"
      "# (GVT-consistent checkpoints every `period` rounds; seeded crash-stop\n"
      "#  failures per processed event; capture, detection and state-reload\n"
      "#  costs are charged to the worker clocks, so the fault-tolerance tax\n"
      "#  and the re-execution lost to each recovery both land in makespan.\n"
      "#  Recovery retires the dead workers, so a run that loses all eight\n"
      "#  ends with a RecoveryError: it prints `failed`, reports speedup 0)\n");
  std::printf("%-10s%-12s%12s%8s%10s%12s%14s\n", "period", "crash_rate",
              "speedup", "ckpts", "crashes", "recoveries", "ft_overhead");
  for (std::uint32_t period : {1u, 2u, 4u, 8u, 16u}) {
    for (double crash_rate : {0.0, 0.0001, 0.0002, 0.001}) {
      pdes::RunConfig rc;
      rc.num_workers = 8;
      rc.configuration = pdes::Configuration::kDynamic;
      rc.until = until;
      rc.checkpoint.period = period;
      rc.checkpoint.max_recoveries = 1000;  // sweep the rate, not the budget
      rc.transport.faults.seed = 11;
      rc.transport.faults.crash_rate = crash_rate;
      const auto st = bench::run_machine(fsm_build, rc);
      const bool failed = st.recovery_error.has_value();
      const double speedup = failed ? 0.0 : seq / st.makespan;
      std::printf("%-10u%-12s%12s%8llu%10llu%12llu%14s\n", period,
                  bench::fmt(crash_rate, 4).c_str(),
                  failed ? "failed" : bench::fmt(speedup).c_str(),
                  static_cast<unsigned long long>(st.checkpoint.checkpoints),
                  static_cast<unsigned long long>(st.checkpoint.crashes),
                  static_cast<unsigned long long>(st.checkpoint.recoveries),
                  bench::fmt(st.checkpoint.overhead_cost).c_str());
      std::fflush(stdout);
      report.add_row("checkpointing", 8,
                     "period=" + std::to_string(period) +
                         "/crash=" + bench::fmt(crash_rate, 4),
                     speedup, st);
    }
  }
  }

  if (want("history_cap")) {
  std::printf("\n# Ablation (c): optimistic history cap (memory), FSM, P=8\n");
  std::printf("%-10s%12s%16s\n", "cap", "speedup", "total_history");
  for (std::size_t cap : {0u, 256u, 64u, 16u, 4u}) {
    pdes::RunConfig rc;
    rc.num_workers = 8;
    rc.configuration = pdes::Configuration::kAllOptimistic;
    rc.max_history = cap;
    rc.until = until;
    const auto st = bench::run_machine(fsm_build, rc);
    std::printf("%-10zu%12s%16zu\n", cap,
                bench::fmt(seq / st.makespan).c_str(), st.total_history());
    std::fflush(stdout);
    report.add_row("history_cap", 8, "cap=" + std::to_string(cap),
                   seq / st.makespan, st);
  }
  }

  if (want("placement")) {
  std::printf(
      "\n# Ablation (g): placement x dynamic rebalancing\n"
      "# (static schemes fix the LP->worker map for the whole run; `dynamic`\n"
      "#  starts from the locality-preserving but load-blind blocks map and\n"
      "#  lets the GVT-round rebalancer migrate LPs toward observed load.\n"
      "#  cut(dyn) is the achieved cut of the final migrated placement)\n");
  struct Cell {
    const char* name;
    const bench::BuildFn* build;
    PhysTime until;
  };
  const Cell cells[] = {{"fsm-imb", &fsm_imb_build, 2000},
                        {"dct-imb", &dct_imb_build, 3000}};
  const bench::Placement statics[] = {bench::Placement::kRoundRobin,
                                      bench::Placement::kBlocks,
                                      bench::Placement::kBipartite};
  for (const Cell& cell : cells) {
    const double sc = bench::sequential_cost(*cell.build, cell.until);
    bench::Built probe = (*cell.build)();
    std::printf("# %s: %zu LPs\n", cell.name, probe.graph->size());
    std::printf("%-6s%14s%14s%14s%14s%12s%12s%12s\n", "P", "round-robin",
                "blocks", "bipartite", "dynamic", "migrations", "cut(blk)",
                "cut(dyn)");
    for (std::size_t p : {4u, 8u}) {
      pdes::RunConfig rc;
      rc.num_workers = p;
      rc.configuration = pdes::Configuration::kDynamic;
      rc.until = cell.until;
      std::printf("%-6zu", p);
      for (const bench::Placement place : statics) {
        const auto st = bench::run_machine(*cell.build, rc, place);
        std::printf("%14s", bench::fmt(sc / st.makespan).c_str());
        report.add_row("placement", p,
                       std::string(cell.name) + "/" +
                           bench::to_string(place),
                       sc / st.makespan, st);
      }
      pdes::RunConfig dyn = rc;
      dyn.rebalance.period = 4;
      dyn.rebalance.imbalance_trigger = 0.20;
      dyn.rebalance.max_moves = 4;
      pdes::Partition final_part;
      const auto st = bench::run_machine(*cell.build, dyn,
                                         bench::Placement::kBlocks,
                                         &final_part);
      const auto blk = bench::make_placement(*probe.graph,
                                             bench::Placement::kBlocks, p);
      std::printf("%14s%12llu%12zu%12zu\n",
                  bench::fmt(sc / st.makespan).c_str(),
                  static_cast<unsigned long long>(
                      st.metrics.counter(obs::Metric::kMigrations)),
                  partition::cut_size(*probe.graph, blk),
                  partition::cut_size(*probe.graph, final_part));
      std::fflush(stdout);
      report.add_row("placement", p, std::string(cell.name) + "/dynamic",
                     sc / st.makespan, st);
    }
  }
  }

  if (want("adaptation")) {
  std::printf(
      "\n# Ablation (i): adaptation policy, IIR, P=16\n"
      "# (the feedback lattice is where mixed-mode operation CREATES\n"
      "#  rollbacks: conservative LPs hold events back, their late outputs\n"
      "#  straggle into sped-ahead optimistic neighbours, and every demotion\n"
      "#  makes the next one likelier.  `rate-based` is the shipped\n"
      "#  controller; each ablated variant removes one of its guards, and\n"
      "#  `single-window` is the pre-fix controller shape: per-window\n"
      "#  decisions with no memory, no budget, no P-scaled threshold)\n");
  const PhysTime auntil = 4000;
  const double aseq = bench::sequential_cost(iir_build, auntil);
  struct Variant {
    const char* name;
    void (*tweak)(pdes::AdaptPolicy&);
  };
  const Variant variants[] = {
      {"rate-based", [](pdes::AdaptPolicy&) {}},
      {"no-budget",
       [](pdes::AdaptPolicy& a) { a.max_demote_fraction = 1.0; }},
      {"no-headroom", [](pdes::AdaptPolicy& a) { a.p_headroom = 0.0; }},
      {"single-window",
       [](pdes::AdaptPolicy& a) {
         a.rate_alpha = 1.0;
         a.min_decision_windows = 1;
         a.max_demote_fraction = 1.0;
         a.p_headroom = 0.0;
       }},
  };
  std::printf("%-16s%10s%10s%10s%10s%8s%10s\n", "policy", "speedup",
              "switches", "rollbacks", "demote", "pin", "opt_frac");
  for (const Variant& v : variants) {
    pdes::RunConfig rc;
    rc.num_workers = 16;
    rc.configuration = pdes::Configuration::kDynamic;
    rc.until = auntil;
    rc.max_history = 128;
    v.tweak(rc.adapt);
    const auto st = bench::run_machine(iir_build, rc);
    std::uint64_t switches = 0;
    for (const auto& l : st.per_lp) switches += l.mode_switches;
    std::printf("%-16s%10s%10llu%10llu%10llu%8llu%10s\n", v.name,
                bench::fmt(aseq / st.makespan).c_str(),
                static_cast<unsigned long long>(switches),
                static_cast<unsigned long long>(st.total_rollbacks()),
                static_cast<unsigned long long>(
                    st.metrics.counter(obs::Metric::kAdaptDemotions)),
                static_cast<unsigned long long>(
                    st.metrics.counter(obs::Metric::kAdaptPins)),
                bench::fmt(
                    st.metrics.gauge(obs::Gauge::kAdaptOptimisticFraction))
                    .c_str());
    std::fflush(stdout);
    report.add_row("adaptation", 16, v.name, aseq / st.makespan, st);
  }
  // Static anchors: what dynamic must track (optimistic) and beat
  // (conservative) on this circuit.
  for (const auto cfg : {pdes::Configuration::kAllOptimistic,
                         pdes::Configuration::kAllConservative}) {
    pdes::RunConfig rc;
    rc.num_workers = 16;
    rc.configuration = cfg;
    rc.until = auntil;
    rc.max_history = 128;
    const auto st = bench::run_machine(iir_build, rc);
    std::printf("%-16s%10s\n", pdes::to_string(cfg),
                bench::fmt(aseq / st.makespan).c_str());
    std::fflush(stdout);
    report.add_row("adaptation", 16, pdes::to_string(cfg),
                   aseq / st.makespan, st);
  }
  }

  if (want("clustering")) {
  std::printf(
      "\n# Ablation (h): LP clustering, 100k-signal random netlist\n"
      "# (the paper's bipartite mapping gives every signal/process its own\n"
      "#  LP; at six figures the per-LP scheduling, mailbox and GVT-scan\n"
      "#  overheads dominate.  `flat` runs the unfused graph; `target=N`\n"
      "#  fuses BFS neighbourhoods of ~N flat LPs into one ClusterLp, so\n"
      "#  intra-cluster traffic never touches the router and the GVT scan\n"
      "#  walks clusters, not flat LPs)\n");
  const PhysTime cuntil = 15;
  const auto cparams = circuits::sized_random_params(100'000, 17);
  const bench::BuildFn cbuild = [&cparams] {
    bench::Built b;
    b.graph = std::make_unique<pdes::LpGraph>();
    b.design = std::make_unique<vhdl::Design>(*b.graph);
    circuits::build_random_circuit(*b.design, cparams);
    b.design->finalize();
    return b;
  };
  const double cseq = bench::sequential_cost(cbuild, cuntil);
  {
    bench::Built probe = cbuild();
    std::printf("# flat LPs: %zu, sequential cost: %s work units\n",
                probe.graph->size(), bench::fmt(cseq, 0).c_str());
  }
  // target = 0 is the flat baseline row.
  const auto run_cell = [&](std::size_t workers,
                            std::size_t target) -> pdes::RunStats {
    bench::Built b = cbuild();
    pdes::RunConfig rc;
    rc.num_workers = workers;
    rc.configuration = pdes::Configuration::kDynamic;
    rc.gvt_interval = 256;
    rc.until = cuntil;
    if (target == 0) {
      pdes::MachineEngine eng(
          *b.graph, partition::round_robin(b.graph->size(), workers), rc);
      return eng.run();
    }
    partition::ClusterOptions co;
    co.target_size = target;
    co.seed = 3;
    const auto assign = partition::cluster_bfs(*b.graph, co);
    pdes::FusedGraph fused = pdes::fuse_clusters(*b.graph, assign);
    pdes::MachineEngine eng(
        fused.graph, partition::round_robin(fused.graph.size(), workers), rc);
    return eng.run();
  };
  std::printf("%-6s%-12s%10s%10s%12s%14s%12s%14s\n", "P", "cluster",
              "speedup", "lps", "remote", "gvt_scan", "peak_hist",
              "total_hist");
  for (std::size_t p : {2u, 4u, 8u}) {
    for (std::size_t target : {0u, 16u, 64u, 256u}) {
      const auto st = run_cell(p, target);
      const std::string label =
          target == 0 ? "flat" : "target=" + std::to_string(target);
      std::printf("%-6zu%-12s%10s%10zu%12llu%14llu%12llu%14zu\n", p,
                  label.c_str(), bench::fmt(cseq / st.makespan).c_str(),
                  st.per_lp.size(),
                  static_cast<unsigned long long>(
                      st.metrics.counter(obs::Metric::kMessagesRemote)),
                  static_cast<unsigned long long>(
                      st.metrics.counter(obs::Metric::kGvtScanItems)),
                  static_cast<unsigned long long>(
                      st.metrics.gauge(obs::Gauge::kPeakHistory)),
                  st.total_history());
      std::fflush(stdout);
      report.add_row("clustering", p, label, cseq / st.makespan, st);
    }
  }
  }
  report.write();
  return 0;
}
