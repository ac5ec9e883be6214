// Real multi-threaded engine.
//
// One std::thread per worker; batch-drained MPSC mailboxes (mailbox.h)
// stand in for the MPI / TCP-socket transport of the original
// implementation: senders buffer packets in per-destination outboxes and
// publish each buffer as one batch per scheduling round, and the receiver
// drains its inbox with a single atomic exchange.  GVT uses barrier rounds
// with full network draining, which is exact in shared memory: between the
// first and last barrier of a round no worker sends, so the drained state
// contains every in-flight message.
//
// This engine is the production runtime on real multiprocessors; the
// machine-model engine (machine.h) executes the same LpRuntime protocol
// deterministically, so its speedups reproduce the paper's figures
// independently of the host's core count and load.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdes/adaptive.h"
#include "pdes/config.h"
#include "pdes/graph.h"
#include "pdes/lp_runtime.h"
#include "pdes/machine.h"  // Partition
#include "pdes/mailbox.h"
#include "pdes/ready_queue.h"
#include "pdes/stats.h"
#include "pdes/transport.h"

namespace vsim::pdes {

class ThreadedEngine {
 public:
  /// Invoked once per committed event.  May be called concurrently from
  /// different workers, but calls for any single LP are ordered.
  using CommitHook = std::function<void(const Event&)>;

  ThreadedEngine(LpGraph& graph, Partition partition, RunConfig config);
  ~ThreadedEngine();  // out-of-line: RoundBarrier is an incomplete type here

  void set_commit_hook(CommitHook hook) { hook_ = std::move(hook); }

  RunStats run();

  /// Current LP->worker mapping (differs from the constructor argument
  /// after dynamic rebalancing or redistribute recovery).  Only meaningful
  /// once run() returned.
  [[nodiscard]] const Partition& partition() const { return partition_; }

 private:
  /// Cache-line aligned so two workers' hot scheduler state (ready queue,
  /// inbox head, op counters) never share a line; the inbox head is the
  /// only field other workers touch.
  struct alignas(64) Worker {
    /// The LPs this worker owns, as an indexed ready heap, a parked list and
    /// a dirty set (ready_queue.h).  Selection, the local GVT minimum and
    /// the round's fossil/adapt sweep all go through it.
    ReadyQueue ready;
    /// Reused scratch for the round's dirty-LP sweep.
    std::vector<LpId> sweep;
    /// Counted in idle_workers_ (idle past the spin limit, or crashed).
    bool idle = false;
    /// Incoming packets, published by other workers as whole batches on
    /// per-sender lanes (sized to num_workers in the engine constructor).
    BatchMailbox inbox;
    /// Per-destination send buffers.  Written only by THIS worker (the
    /// transport threading contract makes pkt.src the submitting worker);
    /// flushed into the destinations' inboxes once per scheduling round.
    std::vector<std::vector<Packet>> outbox;
    /// Reused drain scratch so steady-state drains do not allocate.
    std::vector<Packet> drain_buf;
    std::uint64_t events_since_round = 0;
    /// Scheduler loop iterations; the worker's "time" for retransmit
    /// backoff (the threaded wire has no latency model to clock against).
    std::uint64_t ops = 0;
    WorkerStats stats;
  };
  class ThreadedRouter;
  class ThreadedWire;  // bottom of the transport stack: outbox append

  void worker_main(std::size_t wi);
  void deliver(std::size_t wi, Event ev);
  void refresh_key(std::size_t wi, LpId lp);
  /// Charges a parked LP the blocked polls it sat out (ReadyQueue credit).
  void credit_parked(std::size_t wi, LpId lp);
  void set_idle(Worker& w, bool idle);
  bool try_process_one(std::size_t wi);
  std::size_t drain_own_mailbox(std::size_t wi);
  /// Publishes every non-empty outbox buffer of `wi` as one batch into the
  /// destination's inbox.  Returns the number of packets flushed.
  std::size_t flush_outboxes(std::size_t wi);
  void send_null_messages_for(std::size_t wi, LpId lp);
  [[nodiscard]] double now(std::size_t wi) const {
    return static_cast<double>(workers_[wi]->ops);
  }
  /// Wall-clock microseconds since run() started; the threaded engine's
  /// trace timestamps (real time, unlike the machine model's work units).
  [[nodiscard]] double tnow() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - trace_epoch_)
        .count();
  }
  [[nodiscard]] DeadlockReport build_deadlock_report(VirtualTime gvt);
  /// True while worker `w` is crashed or permanently retired.
  [[nodiscard]] bool worker_dead(std::size_t w) const {
    return crashed_[w].load(std::memory_order_acquire) || retired_[w];
  }
  /// Coordinator for the current round: the lowest live worker.
  [[nodiscard]] std::size_t first_live_worker() const;
  [[nodiscard]] bool any_crashed_unretired() const;
  /// Crash-stop injection, evaluated after every processed event; returns
  /// true when worker `wi` must die now (caller performs the exit).
  bool maybe_crash(std::size_t wi);
  /// Coordinator-only: heartbeat accounting + recovery once the budget is
  /// reached.  Returns false when recovery failed (done_ is already set and
  /// the run unwinds with recovery_error_).
  bool coordinator_recover();
  /// Coordinator-only: GVT-consistent checkpoint capture.  All other
  /// workers are parked at a barrier, so touching their LPs is race-free.
  void coordinator_checkpoint(std::size_t coord, VirtualTime gvt);
  /// Coordinator-only: dynamic load balancing (partition/rebalance.h).
  /// Runs inside the round's exclusive section -- network drained to
  /// quiescence, every other worker parked -- and migrates a bounded set of
  /// LPs by packing each through the checkpoint codec and retargeting
  /// ownership (ready queues + partition_); the barrier that releases the
  /// other workers publishes the new mapping to their routers.
  void coordinator_rebalance(std::size_t coord);
  /// Releases buffered commit-hook invocations in LP-id order.
  void flush_commits();

  LpGraph& graph_;
  Partition partition_;
  RunConfig config_;
  CommitHook hook_;

  std::vector<LpRuntime> lps_;
  std::vector<VirtualTime> last_promise_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Round coordination.
  std::atomic<bool> round_requested_{false};
  std::atomic<bool> done_{false};
  /// Workers idle past the spin limit, crashed ones included.  An idle
  /// worker without parked LPs forces a round only when this reaches the
  /// worker count: until then a busy worker's rounds advance GVT for it.
  std::atomic<std::size_t> idle_workers_{0};
  std::atomic<std::uint64_t> drained_in_pass_{0};
  std::mutex gvt_mutex_;
  VirtualTime gvt_candidate_ = kTimeInf;
  VirtualTime safe_bound_ = kTimeZero;  // written by one thread inside barriers
  VirtualTime last_gvt_ = kTimeZero;
  std::uint64_t last_total_events_ = 0;
  std::uint32_t stall_rounds_ = 0;
  std::uint64_t gvt_rounds_ = 0;
  // Dynamic load balancing (coordinator-only, barrier-ordered): rebalance
  // cadence plus per-LP counter snapshots, so each attempt scores only the
  // work of the window since the previous one.
  std::uint32_t rounds_since_rebalance_ = 0;
  std::vector<std::uint64_t> lb_events_base_;
  std::vector<std::uint64_t> lb_undone_base_;
  bool deadlocked_ = false;
  bool transport_failed_ = false;
  std::optional<DeadlockReport> deadlock_report_;

  // Observability: one metrics shard per worker thread (single-writer;
  // merged by the round coordinator while everyone else is parked), plus an
  // optional trace session with one track per thread.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceSession> trace_own_;
  obs::TraceSession* trace_ = nullptr;
  std::chrono::steady_clock::time_point trace_epoch_;

  // Fault tolerance (checkpoint/restart + crash-stop injection).  Threads
  // cannot be respawned, so the kRestart policy degrades to redistribution.
  bool ft_on_ = false;  ///< checkpointing or crash schedules enabled
  std::unique_ptr<std::atomic<bool>[]> crashed_;  ///< dead, not yet recovered
  std::vector<bool> retired_;  ///< permanently removed after recovery
  std::vector<std::uint32_t> missed_heartbeats_;
  std::vector<std::uint64_t> crash_rng_;  ///< never restored from checkpoints
  std::uint32_t recoveries_ = 0;
  std::uint32_t rounds_since_ckpt_ = 0;
  /// GVT of the newest stored checkpoint; periodic capture requires GVT to
  /// have advanced past it (same livelock guard as the machine engine --
  /// see MachineEngine::last_ckpt_gvt_).  Coordinator-only, barrier-ordered.
  VirtualTime last_ckpt_gvt_ = kTimeZero;
  bool failed_ = false;  ///< recovery gave up; written before done_ release
  std::atomic<std::uint64_t> crash_count_{0};
  CheckpointStore store_;
  CheckpointStats ckstats_;
  /// Output commit: with fault tolerance on, commit-hook invocations are
  /// buffered per LP (written only by the LP's owner, flushed only while
  /// every other worker is parked) and released at checkpoints/termination.
  std::vector<std::vector<Event>> commit_buf_;
  std::optional<RecoveryError> recovery_error_;
  std::optional<ConfigError> config_error_;

  // Transport stack, bottom-up: wire -> (faults) -> channel layer.
  std::unique_ptr<ThreadedWire> wire_;
  std::unique_ptr<FaultyTransport> faulty_;
  std::unique_ptr<ChannelStack> net_;

  std::unique_ptr<class RoundBarrier> barrier_;
};

}  // namespace vsim::pdes
