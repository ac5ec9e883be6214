// Deterministic machine-model engine.
//
// Simulates the *parallel simulator itself*: P virtual workers, each with a
// virtual wall clock, exchanging messages with configurable latencies and
// synchronising at GVT rounds.  Every protocol action (event execution,
// state saving, rollback, anti-messages, null messages, barriers) is charged
// to the owning worker's clock; the run's makespan is the maximum final
// clock, and speedup(P) = sequential cost / makespan.
//
// Rationale (see DESIGN.md): the paper measured wall-clock speedups on a
// 16-processor SGI Challenge.  Wall-clock measurements of a threaded run on
// a shared, few-core host reflect its load and core count rather than
// algorithmic parallelism.  The machine model executes the
// identical protocol logic (same LpRuntime code as the threaded engine) and
// measures the critical path deterministically, which preserves the *shape*
// of the paper's figures: who wins, how close to linear, and where the
// configurations diverge.
//
// It also runs the real engines' scheduler: each modelled worker is a
// ReadyScope (engine_core.h), so selection, parking with blocked-poll
// credit, delivery and the dirty-LP round sweep are the threaded and
// distributed engines' own code.  What is the machine's alone: the virtual
// clocks and their cost charges, the latency mailbox and the modelled
// drain.
#pragma once

#include <memory>
#include <queue>
#include <vector>

#include "pdes/engine_core.h"

namespace vsim::pdes {

/// Work-unit costs of the modelled machine.  The absolute values are
/// arbitrary; ratios are chosen so that protocol overheads are visible but
/// do not dominate (comparable to per-event costs measured on 1990s
/// shared-memory multiprocessors).
struct MachineCosts {
  double state_save = 0.4;       ///< Time Warp snapshot, per event
  double rollback_fixed = 1.0;   ///< per rollback occurrence
  double undo_per_event = 0.6;   ///< per undone event (incl. anti-message)
  double msg_local = 0.05;       ///< send to an LP on the same worker
  double msg_remote_send = 0.3;  ///< sender-side cost of a remote send
  double msg_latency = 2.0;      ///< delay until a remote message arrives
  double recv_cost = 0.05;       ///< receiver-side handling per message
  double null_msg = 0.15;        ///< per null message (sender side)
  double gvt_cost = 4.0;         ///< per worker per synchronisation round
  double ack = 0.1;              ///< reliable-channel ack emission (sender side)
  double checkpoint_per_lp = 0.5;  ///< snapshot write, per LP on the worker
  double restore_per_lp = 0.8;     ///< recovery reload, per LP on the worker
  double crash_detect = 12.0;      ///< failure-detection latency, per missed
                                   ///< heartbeat round
};

class MachineEngine : public EngineCore {
 public:
  MachineEngine(LpGraph& graph, Partition partition, RunConfig config,
                MachineCosts costs = {});
  ~MachineEngine();  // out-of-line: MachineWire is an incomplete type here

  /// Runs to completion (or deadlock); returns statistics incl. makespan.
  RunStats run();

 private:
  struct Arrival {
    double when;
    std::uint64_t seq;
    Packet pkt;
    friend bool operator>(const Arrival& a, const Arrival& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  struct Worker : ReadyScope {
    double clock = 0.0;
    std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> mailbox;
  };

  class MachineRouter;
  class MachineWire;  // the bottom of the transport stack: latency-stamped
                      // arrivals pushed into the destination's mailbox

  /// True while worker `w` is crashed or permanently retired.
  [[nodiscard]] bool worker_dead(std::size_t w) const {
    return crashed_[w] || retired_[w];
  }
  /// Crash-stop injection, evaluated after every processed event.
  void maybe_crash(std::size_t wi);
  /// Heartbeat accounting at round entry; runs recovery once the budget is
  /// reached.  Returns false when recovery itself failed (run must abort).
  bool detect_and_recover();
  /// Pipeline step 3, charged to every live worker's clock per LP it holds.
  void take_checkpoint(VirtualTime gvt);
  /// One scheduling turn for worker `w`: deliver due messages, then process
  /// the first eligible event.  Returns false if the worker cannot advance
  /// without a synchronisation round.
  bool step(std::size_t w);
  /// Pipeline step 5: the sender pays a checkpoint write per migrated LP,
  /// the receiver a state reload.
  void rebalance(VirtualTime gvt);
  /// One GVT round: recovery, drain, GVT, verdict and the round pipeline.
  /// Returns false when the run must stop.
  bool sync_round();

  MachineCosts costs_;
  std::vector<Worker> workers_;
  std::vector<LpId> round_lps_;  ///< the round's dirty LPs, every worker's
  std::uint64_t arrival_seq_ = 0;
  std::size_t current_worker_ = 0;
  std::vector<bool> crashed_;  ///< dead, recovery still outstanding
  std::unique_ptr<MachineWire> wire_;
};

}  // namespace vsim::pdes
