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
//   SocketNode (src/net/node.h: framing, hello/heartbeats, peer loss,
//        |       epoch filtering)
//   SocketTransport (src/net/socket_transport.h: Packet <-> kData frames;
//        |            lossless within an epoch -- the node never reconnects)
//   [FaultyTransport] (seeded chaos, now injected on real network traffic)
//   ChannelStack (per-link counts; seq/ack/dedup/retransmit only when a
//        |        FaultyTransport sits below it)
//   DistributedEngine (this file: scheduling, GVT rounds, recovery)
//
// Recovery resets each rank's channel stack to fresh cursors; checkpoints
// carry LP state only.  Epoch filtering in the SocketNode keeps frames of
// the abandoned timeline away from the reset stack, and the fault RNGs of
// a stacked FaultyTransport run on rather than rewinding.
//
// GVT rounds are asynchronous two-wave cuts (Mattern) on the channel
// stack's per-link sent/delivered counts (GvtCut, pdes/transport.h), and no
// rank stops executing for one.  The coordinator broadcasts a kDrain cut:
// every rank takes its per-link sent counts, starts noting the minimum
// timestamp of every data packet it sends from then on, answers with the
// counts and keeps processing events.  The coordinator transposes the counts
// into each rank's white targets; a rank reports min(local minimum, red
// minimum) as soon as every white packet addressed to it has been
// delivered.  The minimum of the reports is GVT; RoundGate judges it and
// kGvtSet is applied between event slices.  The coordinator runs its round
// as a non-blocking step of its own event loop.  A rank runs at most two
// GVT intervals past the last GVT it applied, so a round stalled by a dead
// peer holds the ranks until recovery instead of letting them speculate
// without bound.
//
// Only a checkpoint capture needs a quiescent network.  Such a round stops
// every rank with kDrain stop passes; a pass closes the drain when every
// rank voted quiescent and every link's sent count equals its receiver's
// delivered count (GvtCut::balanced).  Without fault tolerance no round
// ever stops the world.
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
// Death verdicts come from the kernel, not from a clock: every rank is a
// child of the supervisor on this host, so a connection breaks only when
// the process behind it dies, and a lost connection is a dead rank.  A
// worker that dies is retired by the coordinator (kRecover: epoch bump,
// orphan redistribution, restore blob).  A dead *coordinator* is replaced
// by the lowest surviving rank once the coordinator's connection and those
// of every live rank below it are lost; if that rank is a successor it
// promotes itself: it fences the old regime with a term-level epoch bump,
// re-emits its retained commit batches (the supervisor deduplicates by
// round, so re-sends of already-released batches are harmless and
// unreleased ones emit exactly once), and runs the ordinary recovery
// broadcast.  Survivors that are not successors abort with a structured
// RecoveryError rather than hang.  Heartbeat silence past
// net.heartbeat_timeout_ms only ends the run ("rank r unresponsive"): a
// rank that is alive but wedged is never recovered around, so it cannot
// come back as a zombie.  The committed trace of a crashed-and-recovered
// run -- coordinator deaths included -- is bit-identical to an
// uninterrupted one.
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

  /// Where the coordinator's current GVT round stands; on the wire, the
  /// kDrain/kDrainAck wave.
  enum class Phase : std::uint8_t {
    kIdle,    ///< no round open
    kCut,     ///< wave 1: ranks open their cuts and return sent counts
    kReport,  ///< wave 2: ranks have their white targets; GVT reports due
    kStop,    ///< a checkpoint's stop-the-world drain pass
  };

  /// A rank's answer to one kDrain wave: its cut counts (kCut), its GVT
  /// report (kReport) or its drain vote (kStop).
  struct DrainVote {
    bool got = false;
    bool quiescent = false;
    bool error = false;
    VirtualTime local_min = kTimeInf;
    std::uint64_t events = 0;
    std::vector<std::uint64_t> sent;       ///< per destination rank
    std::vector<std::uint64_t> delivered;  ///< per source rank (kStop)
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
  /// This rank's stop-drain vote (the ranks ship it, the coordinator keeps
  /// its own): flush what we hold, then report quiescence, the per-link
  /// counts and the local GVT candidate.
  DrainVote drain_vote();
  /// Wave 2 of an open cut: once every white packet addressed to this rank
  /// has been delivered, report (ranks ship it, the coordinator keeps it).
  void cut_step();
  void send_vote(std::uint64_t round, Phase wave, std::uint32_t pass,
                 const DrainVote& v, bool snapshot);
  /// Adds the socket node's counters to the metrics shard.
  void fold_node_counters();
  void apply_restore(const Checkpoint& ck);
  void encode_lp_share(bytes::Writer& w, LpId id, const LpCheckpoint& lpck,
                       double work);
  bool decode_lp_share(bytes::Reader& r, LpId* id, LpCheckpoint* out,
                       double* work, VirtualTime* promise,
                       std::vector<std::uint8_t>* state_bytes);
  [[nodiscard]] double nowd() const;
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
  void rank_drain(const ControlMsg& m);
  void rank_apply_gvt(const ControlMsg& m);
  /// Delivers the data frames held while parked between drain votes.
  void release_held_data();
  void rank_apply_recover(const ControlMsg& m);
  /// The stop order: commit the rest, pipe this rank's commit tail straight
  /// to the supervisor, then report stats to the coordinator.
  [[noreturn]] void rank_finish();
  void rank_send_stats();
  [[noreturn]] void rank_abort_transport(const TransportError& err);
  /// Deterministic succession watch: promote when the connections of the
  /// coordinator AND of every live rank below us are lost; end the run when
  /// one of them is silent past the heartbeat timeout instead.  Returns
  /// true when this rank just became coordinator (the caller restarts its
  /// loop iteration).
  bool monitor_cluster();
  void promote_self();
  /// Records the RecoveryError, stops the run, pipes the result as this
  /// rank's kFinal and exits.
  [[noreturn]] void fail_from_rank(std::uint32_t worker, std::string message);
  [[nodiscard]] std::string unresponsive_message(std::uint32_t r) const;

  // --- coordinator duties (rank_ == coord_) ---
  void coordinator_handle(const ControlMsg& m);
  /// One non-blocking step of the round state machine: open a round when
  /// one is wanted, hand out white targets once every cut is in, close the
  /// round once every report is in.  False: stop the run.
  bool coordinator_step();
  void open_round();
  bool close_round();  ///< false: stop the run
  /// A checkpoint round's stop-the-world drain; sets `*error` on a
  /// transport failure.
  Wait stop_drain(std::uint64_t round, bool* error);
  [[nodiscard]] bool votes_in() const;
  Wait coordinator_collect_votes();
  /// A kDrain frame's header: round, wave, stop-drain pass.
  static std::vector<std::uint8_t> drain_payload(std::uint64_t round,
                                                 Phase wave,
                                                 std::uint32_t pass);
  void apply_gvt_local(std::uint64_t round, VirtualTime gvt, bool ckpt_due);
  void ckpt_capture_and_ship(std::uint64_t round, VirtualTime gvt);
  void ckpt_ingest(std::uint32_t src, const ControlMsg& m);
  void ckpt_complete(std::uint64_t round);
  void try_release_batches();
  /// Pipes every assembled batch still held, oldest round first: before
  /// the stop order goes out, so no rank's commit tail can overtake one.
  void release_held_batches();
  /// True when a live rank's connection is lost (coordinator_recover then
  /// retires it), or when one was silent past the heartbeat timeout (the
  /// run is failed then).
  bool check_deaths();
  bool coordinator_recover();  ///< false: recovery failed, run is done
  /// Records the RecoveryError, then abort_run().
  void fail_run(std::uint32_t worker, std::string message);
  /// Stops the run after a recorded RecoveryError: broadcasts the stop
  /// order and flushes it out.
  void abort_run();
  void broadcast(net::FrameType type, const std::vector<std::uint8_t>& p);
  void coordinator_finish(RunStats& out);
  [[nodiscard]] std::size_t live_ranks() const;

  // --- result pipe (rank -> supervisor) and the supervisor itself ---
  void pipe_send(net::FrameType type, const std::vector<std::uint8_t>& p);
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
  /// A rank parked by a stop drain takes delivery only while it votes
  /// (voting_); data arriving in between waits here for the next vote or,
  /// after the final pass, for the checkpoint capture.
  bool voting_ = false;
  std::vector<Packet> held_data_;

  std::deque<ControlMsg> ctrl_;
  /// Recovery epoch: (term << kEpochSeqBits) | seq.  Ordinary recoveries
  /// bump the sequence; a coordinator promotion bumps the *term* past every
  /// epoch the promoting rank has ever seen, fencing the old regime.
  std::uint32_t epoch_ = 0;
  std::uint32_t max_epoch_seen_ = 0;

  // Scheduling.
  bool in_round_ = false;  ///< stopped for a checkpoint's drain
  bool recovering_ = false;
  bool round_req_sent_ = false;
  std::uint32_t idle_spins_ = 0;
  GvtCut cut_;  ///< this rank's side of the open GVT cut
  std::uint64_t cut_round_ = 0;

  // Coordinator round state.
  bool round_req_ = false;
  std::uint64_t max_round_seen_ = 0;  ///< keeps rounds monotone across takeover
  bool stopping_ = false;
  std::vector<DrainVote> votes_;
  Phase phase_ = Phase::kIdle;
  std::uint32_t cur_pass_ = 0;  ///< stop-drain pass (0 in async waves)
  std::int64_t last_round_ms_ = 0;
  std::vector<bool> recover_done_;

  // Fault tolerance (retired_: rank is dead and recovered-around).
  std::map<std::uint64_t, CkptAssembly> pending_ck_;
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
