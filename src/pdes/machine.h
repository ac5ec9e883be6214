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
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdes/adaptive.h"
#include "pdes/checkpoint.h"
#include "pdes/config.h"
#include "pdes/graph.h"
#include "pdes/lp_runtime.h"
#include "pdes/stats.h"
#include "pdes/transport.h"

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
  double checkpoint_per_lp = 0.5;  ///< snapshot write, per owned LP
  double restore_per_lp = 0.8;     ///< recovery reload, per owned LP
  double crash_detect = 12.0;      ///< failure-detection latency, per missed
                                   ///< heartbeat round
};

/// Maps each LP to a worker; produced by the partition module.
using Partition = std::vector<std::uint32_t>;

class MachineEngine {
 public:
  using CommitHook = std::function<void(const Event&)>;

  MachineEngine(LpGraph& graph, Partition partition, RunConfig config,
                MachineCosts costs = {});
  ~MachineEngine();  // out-of-line: MachineWire is an incomplete type here

  void set_commit_hook(CommitHook hook) { hook_ = std::move(hook); }

  /// Runs to completion (or deadlock); returns statistics incl. makespan.
  RunStats run();

  /// Current LP->worker mapping.  With dynamic rebalancing or redistribute
  /// recovery this differs from the constructor argument; benches read it
  /// after run() to score the final placement (cut size).
  [[nodiscard]] const Partition& partition() const { return partition_; }

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

  struct Worker {
    double clock = 0.0;
    std::vector<LpId> owned;
    /// Owned LPs keyed by their minimal pending timestamp.  Deliberately
    /// not a ReadyQueue (ready_queue.h): this engine polls blocked LPs on
    /// every pass and those exact poll counts feed the modelled adaptation,
    /// so parking them would change the figures' makespans.
    std::set<std::pair<VirtualTime, LpId>> ready;
    std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> mailbox;
    std::uint64_t events_since_round = 0;
    WorkerStats stats;
  };

  class MachineRouter;
  class MachineWire;  // the bottom of the transport stack: latency-stamped
                      // arrivals pushed into the destination's mailbox

  void deliver(Worker& w, Event ev);
  [[nodiscard]] DeadlockReport build_deadlock_report();
  void refresh_key(LpId lp);
  /// True while worker `w` is crashed or permanently retired.
  [[nodiscard]] bool worker_dead(std::size_t w) const {
    return crashed_[w] || retired_[w];
  }
  [[nodiscard]] bool any_crashed() const;
  /// Crash-stop injection, evaluated after every processed event; returns
  /// true when worker `wi` just died.
  bool maybe_crash(std::size_t wi);
  /// Heartbeat accounting at round entry; runs recovery once the budget is
  /// reached.  Returns false when recovery itself failed (run must abort).
  bool detect_and_recover();
  bool recover();
  /// Takes a GVT-consistent checkpoint of the current state (speculation is
  /// undone in place via rollback-all-deferred first).
  void take_checkpoint(VirtualTime gvt);
  /// Releases buffered commit-hook invocations in LP-id order.
  void flush_commits();
  /// One scheduling turn for worker `w`: deliver due messages, then process
  /// the first eligible event.  Returns false if the worker cannot advance
  /// without a synchronisation round.
  bool step(std::size_t w);
  /// Dynamic load balancing (partition/rebalance.h), evaluated inside
  /// sync_round() while the network is quiescent: scores the placement from
  /// the per-LP work since the previous rebalance and migrates a bounded set
  /// of LPs, packing each one through the checkpoint codec.
  void maybe_rebalance();
  /// Global synchronisation: barrier, drain, compute GVT, fossil collect,
  /// adapt modes, emit null promises.  Returns the new GVT.
  VirtualTime sync_round();
  /// Emits null messages to `lp`'s fan-out if its promise increased.
  void send_null_messages_for(LpId lp);

  LpGraph& graph_;
  Partition partition_;
  RunConfig config_;
  MachineCosts costs_;
  CommitHook hook_;

  std::vector<LpRuntime> lps_;
  std::vector<VirtualTime> key_;  ///< cached ready-set key per LP
  std::vector<Worker> workers_;
  std::vector<VirtualTime> last_promise_;  ///< last null promise per LP
  VirtualTime safe_bound_ = kTimeZero;
  std::uint64_t arrival_seq_ = 0;
  std::uint64_t gvt_rounds_ = 0;
  // Dynamic load balancing: rounds since the last rebalance attempt, and
  // per-LP counter snapshots so each attempt scores only the work of the
  // window since the previous one (cumulative totals would anchor the score
  // to stale early-run behaviour).
  std::uint32_t rounds_since_rebalance_ = 0;
  std::vector<std::uint64_t> lb_events_base_;
  std::vector<std::uint64_t> lb_undone_base_;
  bool deadlocked_ = false;
  bool transport_failed_ = false;
  std::size_t current_worker_ = 0;

  // Observability: one metrics shard per modelled worker, merged at GVT
  // rounds; optional trace session (config-provided or $VSIM_TRACE global).
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceSession> trace_own_;  ///< env-created sessions
  obs::TraceSession* trace_ = nullptr;

  // Fault tolerance (checkpoint/restart + crash-stop injection).
  bool ft_on_ = false;  ///< checkpointing or crash schedules enabled
  std::vector<bool> crashed_;   ///< dead, recovery still outstanding
  std::vector<bool> retired_;   ///< permanently removed (redistribute policy)
  std::vector<std::uint32_t> missed_heartbeats_;
  std::vector<std::uint64_t> crash_rng_;  ///< never restored from checkpoints
  std::uint32_t recoveries_ = 0;
  std::uint32_t rounds_since_ckpt_ = 0;
  /// GVT of the newest stored checkpoint.  Periodic capture requires the
  /// frontier to have ADVANCED past this: a same-GVT checkpoint is redundant
  /// (the store already holds this frontier) and, worse, re-rolling back the
  /// speculative suffix every round can consume the whole next round's event
  /// budget on re-execution, pinning GVT forever (livelock at period=1).
  VirtualTime last_ckpt_gvt_ = kTimeZero;
  bool failed_ = false;  ///< recovery gave up; unwind with recovery_error_
  CheckpointStore store_;
  CheckpointStats ckstats_;
  /// Output commit: with fault tolerance on, commit-hook invocations are
  /// buffered per LP and released at checkpoints/termination, so a recovery
  /// can discard the uncommitted suffix instead of double-reporting it.
  std::vector<std::vector<Event>> commit_buf_;
  std::optional<RecoveryError> recovery_error_;
  std::optional<ConfigError> config_error_;

  // Transport stack, bottom-up: wire -> (faults) -> channel layer.
  std::unique_ptr<MachineWire> wire_;
  std::unique_ptr<FaultyTransport> faulty_;
  std::unique_ptr<ChannelStack> net_;
};

}  // namespace vsim::pdes
