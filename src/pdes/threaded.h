// Real multi-threaded engine.
//
// One std::thread per worker; batch-drained MPSC mailboxes (mailbox.h)
// stand in for the MPI / TCP-socket transport of the original
// implementation: senders buffer packets in per-destination outboxes and
// publish each buffer as one batch per scheduling round, and the receiver
// drains its inbox with a single atomic exchange.  GVT uses barrier rounds
// with full network draining, which is exact in shared memory: between the
// first and last barrier of a round no worker sends new work, so the
// drained state contains every in-flight message.  The barrier
// (round_barrier.h) spins briefly before it parks, and the steps that need
// every other worker held -- the drain-pass reduction, GVT, the verdict,
// checkpoint, recovery, rebalance -- run as completions of the barriers
// that end the round's phases, so a round is the stop barrier, one barrier
// per drain pass and the end barrier.
//
// This engine is the production runtime on real multiprocessors; the
// machine-model engine (machine.h) executes the same LpRuntime protocol
// deterministically, so its speedups reproduce the paper's figures
// independently of the host's core count and load.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "pdes/engine_core.h"
#include "pdes/mailbox.h"
#include "pdes/round_barrier.h"

namespace vsim::pdes {

class ThreadedEngine : public EngineCore {
 public:
  /// The commit hook may be called concurrently from different workers,
  /// but calls for any single LP are ordered.
  ThreadedEngine(LpGraph& graph, Partition partition, RunConfig config);
  ~ThreadedEngine();  // out-of-line: ThreadedWire is an incomplete type here

  RunStats run();

 private:
  /// Cache-line aligned so two workers' hot scheduler state (ready queue,
  /// inbox head, op counters) never share a line; the inbox head is the
  /// only field other workers touch.
  struct alignas(64) Worker : ReadyScope {
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
    /// Scheduler loop iterations; the worker's "time" for retransmit
    /// backoff (the threaded wire has no latency model to clock against).
    std::uint64_t ops = 0;
  };
  class ThreadedRouter;
  class ThreadedWire;  // bottom of the transport stack: outbox append

  void worker_main(std::size_t wi);
  void set_idle(Worker& w, bool idle);
  std::size_t drain_own_mailbox(std::size_t wi);
  /// Publishes every non-empty outbox buffer of `wi` as one batch into the
  /// destination's inbox.  Returns the number of packets flushed.
  std::size_t flush_outboxes(std::size_t wi);
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
  /// True while worker `w` is crashed or permanently retired.
  [[nodiscard]] bool worker_dead(std::size_t w) const {
    return crashed_[w].load(std::memory_order_acquire) || retired_[w];
  }
  /// Coordinator for the current round: the lowest live worker.
  [[nodiscard]] std::size_t first_live_worker() const;
  [[nodiscard]] bool any_crashed_unretired() const;
  // The coordinator steps run as barrier completions, on whichever worker
  // arrives last, with every other worker held; `coord` (the lowest live
  // worker) names the shard and trace track they are charged to.

  /// Closes the round after the drain: counts it, then either recovers
  /// (crash pending) or runs the verdict, and merges the metrics.
  void coordinator_round(std::size_t coord, bool crash_pending);
  /// Heartbeat accounting + recovery once the budget is reached.  Returns
  /// false when recovery failed (done_ is already set and the run unwinds
  /// with recovery_error_).
  bool coordinator_recover();
  /// GVT over every live worker's ready queue, the round verdict and, when
  /// due, pipeline step 3 over every worker's LPs.
  void coordinator_verdict(std::size_t coord);
  /// After every sweep: pipeline step 5, retargeting ready queues and
  /// partition_; releasing the workers publishes the new mapping to their
  /// routers.
  void coordinator_rebalance(std::size_t coord);

  std::vector<std::unique_ptr<Worker>> workers_;

  // Round coordination.
  std::atomic<bool> round_requested_{false};
  std::atomic<bool> done_{false};
  /// Workers idle past the spin limit, crashed ones included.  An idle
  /// worker without parked LPs forces a round only when this reaches the
  /// worker count: until then a busy worker's rounds advance GVT for it.
  std::atomic<std::size_t> idle_workers_{0};
  /// Packets moved in the current drain pass, summed over the workers.
  std::atomic<std::uint64_t> drained_in_pass_{0};
  /// The last drain pass moved nothing; written by the pass barrier's
  /// completion, read by every worker after it.
  bool pass_empty_ = false;
  std::optional<DeadlockReport> deadlock_report_;
  std::chrono::steady_clock::time_point trace_epoch_;

  // Crash-stop: threads cannot be respawned, so a dead worker's LPs are
  // redistributed over the survivors.
  std::unique_ptr<std::atomic<bool>[]> crashed_;  ///< dead, not yet recovered
  std::atomic<std::uint64_t> crash_count_{0};

  std::unique_ptr<ThreadedWire> wire_;
  std::unique_ptr<RoundBarrier> barrier_;
};

}  // namespace vsim::pdes
