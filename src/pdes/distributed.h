// Multi-process distributed engine over real sockets, with coordinator
// failover.
//
// One OS process per rank, connected by a full mesh of Unix-domain (or TCP
// loopback) stream sockets.  run() forks ALL ranks 0..P-1; the caller's
// process stays outside the mesh as a passive *supervisor* that only reads
// result frames from per-rank pipes.  Every rank therefore inherits the
// constructed LP graph copy-on-write and only LP *state* ever crosses the
// wire (via the checkpoint codec, pdes/checkpoint.h) -- and, crucially, no
// rank is structurally special: the rank that happens to be coordinating is
// just the lowest live rank, and its death is as survivable as any other's.
//
// Layering per rank (bottom-up):
//
//   SocketNode (src/net/node.h: framing, hello/heartbeats, reconnect
//        |       backoff, epoch filtering)
//   SocketTransport (src/net/socket_transport.h: Packet <-> kData frames)
//   [FaultyTransport] (seeded chaos, now injected on real network traffic)
//   ChannelStack (seq/ack/dedup/retransmit -- reliability is forced on:
//        |        a reconnect may drop or replay the frame that straddled
//        |        the break, and the channel layer owns exactly-once)
//   DistributedEngine (this file: scheduling, GVT rounds, recovery)
//
// GVT uses the same drain-until-quiet protocol as the threaded engine,
// driven by control frames instead of barriers: the coordinator broadcasts
// kDrain passes and declares the network quiet only after two consecutive
// passes in which every rank reported a quiescent channel stack and the
// cluster-wide data-frame activity counters did not move.  The pass-p+1
// broadcast happens only after every pass-p vote arrived, which gives the
// cross-rank ordering that makes the two-pass rule sound without barriers.
//
// Fault tolerance (DESIGN.md "Coordinator failover"): every rank fans its
// share of each GVT-consistent checkpoint out to the *successor set* -- the
// `checkpoint.replicas` lowest live ranks (which always include the
// coordinator).  Each successor assembles the complete global snapshot,
// spills it durably (atomic tmp+fsync+rename), and acks the round; the
// coordinator releases output-commit batches to the supervisor only once
// every other live successor has acked the covering round, so a commit can
// reach the outside world only when the snapshot that regenerates-or-covers
// it would survive the coordinator's own death.
//
// A worker that dies is retired by the coordinator exactly as before
// (kRecover: epoch bump, orphan redistribution, restore blob).  A dead
// *coordinator* is detected by the lowest surviving rank (silence from the
// coordinator and from every rank below itself); if that rank is a
// successor it promotes itself: it fences the old regime with a term-level
// epoch bump, re-emits its retained commit batches (the supervisor
// deduplicates by round, so re-sends of already-released batches are
// harmless and unreleased ones emit exactly once), and runs the ordinary
// recovery broadcast.  Survivors that are not successors abort with a
// structured RecoveryError rather than hang.  The committed trace of a
// crashed-and-recovered run -- coordinator deaths included -- is
// bit-identical to an uninterrupted one.
//
// Clustered graphs (pdes/cluster.h) run unchanged: a ClusterLp is a plain
// LP to this engine, Event::sub carries the inner flat destination across
// the wire (checkpoint codec v3) and through the supervisor's commit pipe,
// and only inter-cluster edges ever touch the socket mesh -- intra-cluster
// traffic is a local enqueue inside the owning rank.  At 100k+ signals this
// is what keeps per-rank mailbox pressure and the per-round scan bounded by
// clusters instead of flat LPs (see DESIGN.md "LP clustering").
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/frame.h"
#include "pdes/engine_core.h"

namespace vsim::net {
class SocketNode;
class SocketTransport;
}  // namespace vsim::net

namespace vsim::pdes {

class DistributedEngine : public EngineCore {
 public:
  /// The commit hook is invoked always in the caller's (supervisor)
  /// process, in LP-id order within each release batch.  Invocations are
  /// buffered on the owning rank and released only once a replicated
  /// checkpoint (or termination) covers them, so neither recovery nor
  /// coordinator failover can duplicate one.  partition() is the LP -> rank
  /// mapping after the run.
  DistributedEngine(LpGraph& graph, Partition partition, RunConfig config);
  ~DistributedEngine();

  /// Runs the simulation across config.num_workers OS processes.  Returns
  /// in the caller's process, which supervises but does not simulate; all
  /// ranks are forked children and never return (they _exit).
  RunStats run();

  /// Progress snapshot for test watchdogs: last GVT, rounds, events,
  /// recoveries, and (racily) socket counters.  Callable from another
  /// thread while run() executes in this process.
  void debug_dump(std::FILE* out) const;

 private:
  class DistRouter;

  /// One control frame copied out of the socket layer for the main loop
  /// (FrameView payloads are only valid during the handler call).
  struct ControlMsg {
    net::FrameType type{};
    std::uint32_t src = 0;
    std::uint32_t epoch = 0;
    std::vector<std::uint8_t> payload;
  };

  /// One drain-pass vote from a rank.
  struct DrainVote {
    bool got = false;
    bool quiescent = false;
    bool error = false;
    std::uint64_t activity = 0;  ///< cumulative data frames sent + received
    VirtualTime local_min = kTimeInf;
    std::uint64_t events = 0;
  };

  /// A global checkpoint being assembled from per-rank shares.  Every
  /// successor (not just the coordinator) runs one per checkpoint round.
  struct CkptAssembly {
    Checkpoint ck;
    std::vector<std::vector<Event>> commits;  ///< per LP, release when covered
    std::vector<bool> got;                    ///< per rank
    std::size_t missing = 0;
  };

  enum class Wait : std::uint8_t { kOk, kDied, kAborted };

  // --- shared by every rank ---
  void setup_stack_or_die();
  void on_frame(std::uint32_t src, const net::FrameView& view);
  std::size_t pump_io(int timeout_ms);
  /// Recomputes owned_ from partition_ and rebuilds the ready queue.
  void adopt_partition();
  /// This rank's drain-pass vote (the ranks ship it, the coordinator keeps
  /// its own): flush what we hold, then report quiescence and the local
  /// GVT candidate.
  DrainVote drain_vote();
  /// Whether drains force-retransmit (and the retransmit timeout stays
  /// short): only when the wire can lose more than a reconnect does, with
  /// injected faults or with rank deaths possible.
  [[nodiscard]] bool force_flush_drain() const {
    return config_.transport.faults.active() || ft_on_;
  }
  /// Adds the socket node's counters to the metrics shard.
  void fold_node_counters();
  void capture_fault_ring(std::uint64_t round);
  void apply_restore(const Checkpoint& ck);
  void encode_lp_share(bytes::Writer& w, LpId id, const LpCheckpoint& lpck,
                       double work);
  bool decode_lp_share(bytes::Reader& r, LpId* id, LpCheckpoint* out,
                       double* work, VirtualTime* promise,
                       std::vector<std::uint8_t>* state_bytes);
  [[nodiscard]] double nowd() const;
  [[nodiscard]] std::int64_t cfg_connect_deadline() const;
  void note_progress(VirtualTime gvt);
  void note_round(std::uint64_t round);
  [[nodiscard]] std::vector<std::uint32_t> successor_set() const;
  [[nodiscard]] bool is_successor(std::uint32_t r) const;

  /// Unified per-rank driver: event slices, control dispatch, the
  /// coordinator duties when `rank_ == coord_`, the promotion watch when
  /// not.  Every forked rank runs this; only the final coordinator falls
  /// out of it with `stopping_` set (workers _exit on the way).
  [[noreturn]] void child_main();
  void main_loop();
  void handle_ctrl(const ControlMsg& m);

  // --- worker duties (rank_ != coord_) ---
  void rank_handle(const ControlMsg& m);
  void rank_drain_pass(std::uint64_t round, std::uint32_t pass);
  void rank_apply_gvt(const ControlMsg& m);
  void rank_apply_recover(const ControlMsg& m);
  [[noreturn]] void rank_finish(bool ok);
  void rank_send_stats();
  [[noreturn]] void rank_abort_transport(const TransportError& err);
  /// Deterministic succession watch: promote when the coordinator AND every
  /// live rank below us have gone silent.  Returns true when this rank just
  /// became coordinator (the caller restarts its loop iteration).
  bool monitor_cluster();
  void promote_self();
  [[noreturn]] void abort_replica_lost();

  // --- coordinator duties (rank_ == coord_) ---
  void coordinator_handle(const ControlMsg& m);
  bool coordinator_round();  ///< false: stop the run
  Wait coordinator_collect_votes();
  void apply_gvt_local(std::uint64_t round, VirtualTime gvt, bool ckpt_due);
  void ckpt_capture_and_ship(std::uint64_t round, VirtualTime gvt);
  void ckpt_ingest(std::uint32_t src, const ControlMsg& m);
  void ckpt_complete(std::uint64_t round);
  void try_release_batches();
  bool check_deaths();
  bool coordinator_recover();  ///< false: recovery failed, run is done
  void fail_run(std::uint32_t worker, std::string message);
  void broadcast(net::FrameType type, const std::vector<std::uint8_t>& p);
  void coordinator_finish(RunStats& out);
  [[nodiscard]] std::size_t live_ranks() const;

  // --- result pipe (rank -> supervisor) and the supervisor itself ---
  void pipe_send(net::FrameType type, const std::vector<std::uint8_t>& p);
  void pipe_commit_events(std::uint64_t round, const std::vector<Event>& evs,
                          bool terminal);
  void pipe_commit_batch(std::uint64_t round,
                         const std::vector<std::vector<Event>>& batch,
                         bool terminal);
  void pipe_final(const RunStats& st);
  void supervisor_main(RunStats& out);
  void reap_children(bool force);

  std::vector<LpId> owned_;
  ReadyScope self_;  ///< this rank's scheduler (ready_queue.h)

  std::uint32_t rank_ = 0;
  std::uint32_t nranks_ = 1;
  std::uint32_t coord_ = 0;     ///< current coordinator (lowest live rank)
  std::uint32_t replicas_ = 1;  ///< successor-set size (clamped to nranks_)
  bool own_socket_dir_ = false;
  bool is_child_ = false;  ///< set in forked ranks; the supervisor stays false

  // Socket transport stack (built per rank, after the fork).
  std::unique_ptr<net::SocketNode> node_;
  std::unique_ptr<net::SocketTransport> wire_;
  bool got_data_ = false;

  std::deque<ControlMsg> ctrl_;
  /// Recovery epoch: (term << kEpochSeqBits) | seq.  Ordinary recoveries
  /// bump the sequence; a coordinator promotion bumps the *term* past every
  /// epoch the promoting rank has ever seen, fencing the old regime.
  std::uint32_t epoch_ = 0;
  std::uint32_t max_epoch_seen_ = 0;

  // Scheduling.
  bool in_round_ = false;
  bool recovering_ = false;
  bool round_req_sent_ = false;
  std::uint32_t idle_spins_ = 0;

  // Coordinator round state.
  bool round_req_ = false;
  std::uint64_t max_round_seen_ = 0;  ///< keeps rounds monotone across takeover
  std::uint64_t baseline_round_ = 0;  ///< round of the pre-fork baseline ckpt
  bool stopping_ = false;
  std::vector<DrainVote> votes_;
  std::uint32_t cur_pass_ = 0;
  bool collecting_ = false;  ///< a drain pass is awaiting votes
  std::int64_t last_round_ms_ = 0;
  std::vector<bool> recover_done_;

  // Fault tolerance (retired_: rank is dead and recovered-around).
  std::vector<bool> dead_pending_;
  std::map<std::uint64_t, CkptAssembly> pending_ck_;
  /// Per-rank local ring of OWN fault-injector cursors per checkpoint
  /// round: recovery resets the channel layer outright (epoch filtering
  /// handles staleness) but must rewind the chaos RNGs for determinism.
  std::map<std::uint64_t, std::vector<FaultLinkCheckpoint>> fault_ring_;
  std::vector<double> lp_work_;  ///< work scores for orphan placement
  /// Coordinator: assembled-but-not-yet-released commit batches per round,
  /// released to the supervisor once every other live successor acked the
  /// round (succ_ack_ tracks the cumulative per-rank ack frontier).
  std::map<std::uint64_t, std::vector<std::vector<Event>>> unreleased_;
  std::vector<std::uint64_t> succ_ack_;
  /// Successor: commit batches of the checkpoints this rank assembled,
  /// kept so a promotion can re-emit them (the supervisor dedups by round).
  std::map<std::uint64_t, std::vector<std::vector<Event>>> retained_batches_;
  std::optional<TransportError> remote_transport_error_;

  // Termination collection (final coordinator).
  std::vector<bool> stats_got_;
  std::vector<LpStats> final_lp_stats_;
  std::vector<bool> final_lp_got_;
  std::vector<WorkerStats> final_worker_stats_;
  TransportCounters remote_transport_;
  std::vector<obs::MetricsSnapshot> rank_snapshots_;
  std::vector<bool> rank_snapshot_got_;
  std::vector<DeadlockReport::LpDiag> remote_diag_;
  std::vector<std::vector<Event>> final_commits_;

  // Child processes and result pipes (supervisor only; `pipe_w_` is the
  // forked rank's own write end).
  std::vector<int> pids_;
  std::vector<bool> reaped_;
  std::vector<int> pipe_r_;
  int pipe_w_ = -1;

  // Watchdog-visible progress (updated with relaxed atomics via helpers).
  std::int64_t dump_gvt_pt_ = 0;
  std::int64_t dump_gvt_lt_ = 0;
  std::uint64_t dump_rounds_ = 0;
  std::uint64_t dump_events_ = 0;
  std::uint64_t dump_recoveries_ = 0;
};

}  // namespace vsim::pdes
