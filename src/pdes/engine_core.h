// Protocol machinery shared by the machine, threaded and distributed engines.
//
// The three engines run one algorithm: LPs execute conservatively or under
// Time Warp, self-adapt at global GVT rounds and fossil-collect below GVT.
// What differs is the transport and how a quiescent cut is reached (modelled
// drain, thread barriers, kDrain votes), where each round step runs (on the
// coordinator, or per worker or rank), and the machine model's cost clocks.
// Everything else lives here, once:
//
//   * RoundGate -- the coordinator's per-round verdict: stop, deadlock
//     stall counting, checkpoint cadence with the GVT-progress livelock
//     gate, rebalance cadence, and rewind after a recovery or promotion.
//   * The GVT round pipeline (DESIGN.md "GVT round pipeline"): the sweep,
//     the checkpoint-capture prologue, migration, and rebalance planning.
//   * The scheduler and the LP event path: every engine's workers (or
//     ranks) are ReadyScopes, so delivery with rollback-depth observation,
//     parked credit, key refresh and null propagation; null promises; the
//     ready-heap selection pass; router accounting and commit buffering
//     exist once.  The hot pieces are templates on each engine's `final`
//     router, so the per-event path takes no virtual call beyond
//     LpRuntime's own Router; the machine model's cost charge is an inline
//     router member.
//   * Scaffolding: LP construction, transport-stack assembly, trace setup,
//     crash injection, the recovery steps, the deadlock report and the
//     RunStats epilogue.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdes/adaptive.h"
#include "pdes/checkpoint.h"
#include "pdes/config.h"
#include "pdes/graph.h"
#include "pdes/lp_runtime.h"
#include "pdes/ready_queue.h"
#include "pdes/stats.h"
#include "pdes/transport.h"

namespace vsim::partition {
struct RebalancePlan;
}

namespace vsim::pdes {

/// Maps each LP to a worker; produced by the partition module.
using Partition = std::vector<std::uint32_t>;

/// What the coordinator decided about one GVT round.
struct RoundVerdict {
  /// GVT is infinite or past `until`, the transport failed, or deadlock.
  bool stop = false;
  /// The stall counter reached RunConfig::deadlock_rounds.
  bool deadlock = false;
  /// Pipeline step 3 runs this round.
  bool checkpoint = false;
  /// Pipeline step 5 runs this round.
  bool rebalance = false;
};

/// The coordinator's per-round verdict, with all of its cross-round state.
///
/// Rules:
///  * stop at GVT = infinity, GVT past `until`, or a transport error;
///  * deadlock once GVT and the cumulative event count stood still for
///    `deadlock_rounds` consecutive live rounds;
///  * checkpoint every `checkpoint.period` rounds (the counter advances at
///    every round entry, recovery rounds included), but only at a GVT that
///    advanced past the newest checkpoint: a same-frontier capture is
///    redundant, and its rollback-all can eat the next round's event budget
///    on re-execution and pin GVT forever (livelock at period 1).  The
///    counter is kept, so the capture fires on the first round that
///    advances;
///  * rebalance every `rebalance.period` live rounds.
/// No checkpoint or rebalance is due while a crash is pending, after a
/// transport error, or once GVT is infinite or past `until`.
class RoundGate {
 public:
  RoundGate() = default;
  explicit RoundGate(const RunConfig& config);

  /// Round entry: advances the checkpoint cadence.
  void begin_round() {
    if (ckpt_period_ > 0) ++rounds_since_ckpt_;
  }
  /// The verdict for a round that reached GVT `gvt` with `total_events`
  /// events processed so far (cumulative over all workers).
  RoundVerdict judge(VirtualTime gvt, std::uint64_t total_events,
                     bool transport_error, bool crash_pending = false);
  /// After a recovery or a coordinator promotion restored the cut at `gvt`:
  /// the next round never counts as a stall, and the next checkpoint must
  /// advance past `gvt`.  A fresh gate starts rewound to time zero.
  void rewind(VirtualTime gvt);

  [[nodiscard]] std::uint32_t stall_rounds() const { return stall_rounds_; }

 private:
  PhysTime until_ = std::numeric_limits<PhysTime>::max();
  std::uint32_t deadlock_rounds_ = 3;
  std::uint32_t ckpt_period_ = 0;
  std::uint32_t rebalance_period_ = 0;
  VirtualTime last_gvt_ = kTimeZero;
  std::uint64_t last_total_events_ = ~0ull;
  std::uint32_t stall_rounds_ = 0;
  std::uint32_t rounds_since_ckpt_ = 0;
  VirtualTime last_ckpt_gvt_ = kTimeZero;
  std::uint32_t rounds_since_rebalance_ = 0;
};

/// Crash-stop injection: the explicit schedule plus a per-worker RNG that
/// advances on every processed event and is never restored from a
/// checkpoint -- a crash that replays into the identical pre-crash state
/// must not re-fire forever.
class CrashInjector {
 public:
  CrashInjector() = default;
  CrashInjector(const FaultPlan& plan, std::size_t workers);
  /// Called after every event worker `w` processes (`events` is its
  /// cumulative count, which never rewinds); true when `w` dies now.
  bool fire(std::size_t w, std::uint64_t events);

 private:
  std::vector<WorkerCrash> crashes_;
  double rate_ = 0.0;
  std::vector<std::uint64_t> rng_;
};

/// Scheduling state of one ReadyQueue scope: a modelled machine worker, a
/// threaded worker or a distributed rank.
struct ReadyScope {
  /// The owned LPs as an indexed ready heap, a parked list, a dirty set and
  /// a fossil heap (ready_queue.h): selection, the local GVT minimum and
  /// the round sweep.
  ReadyQueue ready;
  /// Reused scratch for the round's sweep set.
  std::vector<LpId> sweep;
  std::uint64_t events_since_round = 0;
  WorkerStats stats;
};

/// Where the round sweep finds an LP: its owner's queue, and whether the
/// owner is alive (only the machine model sweeps a dead worker's LPs).
struct SweepTarget {
  ReadyQueue& queue;
  bool live;
};

/// Base of the three engines.  Engine routers are `final` classes that
/// provide `worker()` (metrics shard and trace track of the current scope),
/// `clock()` (trace timestamp) and `charge_event(lp, cost)` (the machine
/// model's per-event clock charge, empty elsewhere) next to the Router
/// interface.
class EngineCore {
 public:
  /// Invoked once per committed event, in LP-id order within each release
  /// (see each engine for where and when).
  using CommitHook = std::function<void(const Event&)>;

  void set_commit_hook(CommitHook hook) { hook_ = std::move(hook); }

  /// Current LP->worker mapping.  With dynamic rebalancing or redistribute
  /// recovery this differs from the constructor argument; read it once
  /// run() returned.
  [[nodiscard]] const Partition& partition() const { return partition_; }

 protected:
  /// Builds the LpRuntimes unless `config_error` is set (run() then
  /// surfaces the error without starting).  `metric_shards`: one per
  /// single-writer scope.
  EngineCore(LpGraph& graph, Partition partition, const RunConfig& config,
             std::optional<ConfigError> config_error,
             std::size_t metric_shards);
  ~EngineCore();
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  // ---- scaffolding ----

  /// wire -> [FaultyTransport] -> ChannelStack over `endpoints` endpoints;
  /// the stack is reliable exactly when what sits below it is not lossless.
  void assemble_transport(Transport& wire, std::size_t endpoints);
  /// Attaches RunConfig::trace, or a $VSIM_TRACE session named `name`.
  void open_trace(const char* name);
  /// Enqueues the graph's initial events; the engine refreshes their keys.
  void seed_initial_events();

  // ---- LP event path ----

  /// Enqueues `ev` at its destination and observes a rollback it caused.
  template <class R>
  void enqueue_observed(Event&& ev, R& router);
  /// Delivery into the scope that owns `ev.dst`.
  template <class R>
  void deliver(ReadyScope& s, Event&& ev, R& router);
  /// Emits null messages to `lp`'s fan-out if its promise increased.
  template <class R>
  void send_null_messages_for(LpId lp, R& router);
  /// One selection pass of a scope: pops LPs in ascending (next_ts, lp)
  /// order, parking blocked ones, and processes the first ready event,
  /// which `router.charge_event` bills.  False when nothing in the scope
  /// can run now.
  template <class R>
  bool try_process_one(ReadyScope& s, R& router);
  /// Charges `lp`'s parked credit in `q` to its blocked polls.
  void credit(ReadyQueue& q, LpId lp);
  /// Router accounting for `ev`: a local send, or a remote data / null
  /// message.  Debug builds also check the null-message contract: no LP
  /// routes an event that promises less than its last null message did.
  void count_send(WorkerStats& s, std::size_t shard, bool local,
                  const Event& ev);
  /// Router::commit.  Buffered per LP while `buffer_commits_` (output
  /// commit under fault tolerance), otherwise straight to the hook.
  void commit(const Event& ev);
  /// Releases the buffered commits in LP-id order.
  void flush_commits();

  // ---- GVT round pipeline ----

  /// Step 1 for one scope: charges every parked LP the blocked polls of
  /// the passes it sat out.  Runs before step 3's capture (a rollback
  /// changes how the polls classify) and before step 4 reads them.
  void settle_credits(ReadyQueue& q);
  /// Steps 2 and 4 over `ids` (a round's dirty and due LPs, ascending: the
  /// owners' take_due(gvt) then take_dirty()), one adaptation scope of
  /// `scope` LPs: fossil-collect each at `gvt`, then, if alive, adapt it
  /// (or reset its window) and send its null promise.  `enter(lp)`, called
  /// first, points the router at the LP's owner and returns its
  /// SweepTarget.  LPs with a stall streak or a deferred demotion are
  /// re-touched; LPs left holding history are held in the owner's fossil
  /// heap.  Counts the visits.
  template <class R, class Enter>
  void sweep(const std::vector<LpId>& ids, std::size_t scope, VirtualTime gvt,
             R& router, Enter&& enter);
  /// Step 3's capture prologue over `ids`: fossil-collect at `gvt`, then
  /// undo the remaining speculation with deferred cancellation (no anti-
  /// messages, so the drained network stays quiescent and no receiver
  /// observes the capture); `rekey(lp)` for every LP that rolled back.
  /// Parked credits must be settled first: a rollback changes how they
  /// classify.
  template <class R, class Rekey>
  void undo_speculation(const std::vector<LpId>& ids, VirtualTime gvt,
                        R& router, Rekey&& rekey);
  /// Step 3 for the in-process engines: capture, release the commits the
  /// snapshot covers, store.
  void store_checkpoint(VirtualTime gvt);
  /// Step 5's plan from the per-LP work of the window since the previous
  /// attempt; publishes the imbalance gauge and round counter to `shard`.
  partition::RebalancePlan plan_rebalance(std::size_t shard);
  /// Moves `lp` from queue `src` to worker `to`'s queue `dst` through the
  /// checkpoint codec.  Fossil-collect at `gvt` first: the deferred
  /// rollback is protocol-transparent only for events strictly above GVT --
  /// a parked send whose receiver already committed it could never be
  /// cancelled again.
  template <class R>
  void migrate_lp(LpId lp, ReadyQueue& src, std::uint32_t to, ReadyQueue& dst,
                  VirtualTime gvt, R& router);

  // ---- recovery ----

  /// Heartbeat accounting: every crashed, unretired worker misses one more
  /// round.  True once one reaches `heartbeat_rounds`; `first_dead` gets
  /// the lowest crashed worker.
  template <class Crashed>
  bool heartbeat_due(Crashed&& crashed, std::uint32_t* first_dead);
  /// Records a RecoveryError and marks the run failed; returns false.
  bool fail_recovery(std::uint32_t worker, std::string message);
  /// The checkpoint to restore, or null after a recorded RecoveryError
  /// (budget exhausted or nothing stored).
  const Checkpoint* recovery_point(std::uint32_t first_dead);
  /// Kept-work score per LP (processed net of undone), the orphan weight.
  [[nodiscard]] static double orphan_work(const LpStats& s);
  [[nodiscard]] std::vector<double> orphan_work() const;
  /// Deals every retired worker's LPs to the survivors with the
  /// rebalancer's load- and cut-aware placement.  False (after a recorded
  /// RecoveryError) when no worker survives.
  bool redistribute(const std::vector<double>& work, std::uint32_t first_dead);
  /// In-process restore: LPs and null-promise cache from `ck`, a fresh
  /// transport stack; rewinds the gate and drops the commits of the
  /// abandoned timeline.
  void restore(const Checkpoint& ck);

  // ---- epilogue ----

  /// Diagnostics for every LP (owned by `owner`, when given) that still
  /// has pending work.
  [[nodiscard]] DeadlockReport deadlock_report(
      VirtualTime gvt, std::optional<std::uint32_t> owner = {}) const;
  /// Everything but per_worker, makespan and metrics.
  void fill_run_stats(RunStats& out) const;
  /// Folds the run totals into the metrics and snapshots them.
  void finish_metrics(RunStats& out);

  LpGraph& graph_;
  Partition partition_;
  RunConfig config_;
  CommitHook hook_;
  std::optional<ConfigError> config_error_;

  std::vector<LpRuntime> lps_;
  std::vector<LpId> all_lps_;  ///< 0..n-1, the checkpoint capture's scope
  std::vector<VirtualTime> last_promise_;  ///< last null promise per LP
  bool null_msgs_ = false;  ///< ConservativeStrategy::kNullMessage
  VirtualTime safe_bound_ = kTimeZero;
  std::uint64_t gvt_rounds_ = 0;
  RoundGate gate_;
  RoundVerdict verdict_;  ///< the current round's
  bool deadlocked_ = false;
  bool transport_failed_ = false;
  // Rebalance window: per-LP counter snapshots, so each attempt scores only
  // the work since the previous one (cumulative totals would anchor the
  // score to stale early-run behaviour).
  std::vector<std::uint64_t> lb_events_base_;
  std::vector<std::uint64_t> lb_undone_base_;

  // Fault tolerance (checkpoint/restart + crash-stop injection).
  bool ft_on_ = false;  ///< checkpointing or crash schedules enabled
  bool buffer_commits_ = false;
  std::vector<std::vector<Event>> commit_buf_;  ///< per LP
  CrashInjector crash_;
  std::vector<bool> retired_;  ///< permanently removed workers
  std::vector<std::uint32_t> missed_heartbeats_;
  std::uint32_t recoveries_ = 0;
  bool failed_ = false;  ///< recovery gave up; unwind with recovery_error_
  CheckpointStore store_;
  CheckpointStats ckstats_;
  std::optional<RecoveryError> recovery_error_;

  // Observability: one metrics shard per single-writer scope, merged at
  // rounds; optional trace session.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceSession> trace_own_;  ///< env-created sessions
  obs::TraceSession* trace_ = nullptr;

  // Transport stack above the engine's wire.
  std::unique_ptr<FaultyTransport> faulty_;
  std::unique_ptr<ChannelStack> net_;
};

// ---------------------------------------------------------------------------
// Per-event inline pieces and templates.
// ---------------------------------------------------------------------------

inline void EngineCore::count_send(WorkerStats& s, std::size_t shard,
                                   bool local, const Event& ev) {
  assert(!null_msgs_ ||
         !(lps_[ev.src].promise_from(ev.ts) < last_promise_[ev.src]));
  const bool is_null = ev.kind == kNullMsgKind;
  obs::MetricsShard& m = metrics_.shard(shard);
  if (local) {
    ++s.messages_sent_local;
    m.inc(obs::Metric::kMessagesLocal);
  } else if (is_null) {
    ++s.null_messages;
    m.inc(obs::Metric::kNullMessages);
  } else {
    ++s.messages_sent_remote;
    m.inc(obs::Metric::kMessagesRemote);
  }
}

inline void EngineCore::commit(const Event& ev) {
  if (!hook_) return;
  // Output commit: under fault tolerance the hook only fires once a
  // checkpoint (or termination) covers the commit, so a recovery never
  // replays an already-reported event.
  if (buffer_commits_)
    commit_buf_[ev.dst].push_back(ev);
  else
    hook_(ev);
}

template <class R>
void EngineCore::enqueue_observed(Event&& ev, R& router) {
  LpRuntime& rt = lps_[ev.dst];
  const LpId dst = ev.dst;
  // enqueue() is the only entry point that can trigger a rollback, so
  // counter deltas around it give the per-episode depth without touching
  // the LpRuntime hot path.
  const std::uint64_t rb0 = rt.stats().rollbacks;
  const std::uint64_t un0 = rt.stats().events_undone;
  rt.enqueue(std::move(ev), router);
  if (rt.stats().rollbacks == rb0) return;
  const std::uint64_t undone = rt.stats().events_undone - un0;
  metrics_.shard(router.worker())
      .observe(obs::Hist::kRollbackDepth, static_cast<double>(undone));
  VSIM_TRACE(if (trace_ != nullptr) {
    trace_->instant(router.worker(), "tw", "rollback", router.clock(), dst,
                    "undone", static_cast<std::int64_t>(undone));
  });
  (void)dst;
}

template <class R>
void EngineCore::deliver(ReadyScope& s, Event&& ev, R& router) {
  const LpId dst = ev.dst;
  assert(s.ready.contains(dst));
  const bool is_null = ev.kind == kNullMsgKind;
  // Credit before enqueue: a rollback may shrink the history, which changes
  // how note_blocked() classifies the polls the LP sat out.
  credit(s.ready, dst);
  enqueue_observed(std::move(ev), router);
  s.ready.update(dst, lps_[dst].next_ts());
  // A null message can raise this LP's own promise; propagate downstream.
  if (is_null && null_msgs_) send_null_messages_for(dst, router);
}

template <class R>
void EngineCore::send_null_messages_for(LpId lp, R& router) {
  const VirtualTime promise = lps_[lp].null_promise();
  if (!(promise > last_promise_[lp])) return;
  last_promise_[lp] = promise;
  for (LpId dst : graph_.fan_out(lp)) {
    Event n;
    n.ts = promise;
    n.src = lp;
    n.dst = dst;
    n.kind = kNullMsgKind;
    router.route(std::move(n));
  }
}

template <class R>
bool EngineCore::try_process_one(ReadyScope& s, R& router) {
  // A blocked LP parks until a delivery or the next round re-arms it, so
  // each pass costs O(log n) per LP it touches, not a walk of the scope.
  ReadyQueue& q = s.ready;
  q.begin_pass();
  while (!q.empty()) {
    const VirtualTime ts = q.top_key();
    if (ts.pt > config_.until) break;  // later keys are even larger
    const LpId lp = q.top();
    const Eligibility e = lps_[lp].peek(safe_bound_, config_.until);
    if (e != Eligibility::kReady) {
      // A finite cached key within the horizon is never kIdle.
      assert(e == Eligibility::kBlocked);
      lps_[lp].note_blocked();
      q.park_top();
      continue;
    }
    double exec_start = 0.0;
    VSIM_TRACE(if (trace_ != nullptr) exec_start = router.clock());
    const double cost = lps_[lp].process_next(router);
    router.charge_event(lps_[lp], cost);
    s.stats.busy_cost += cost;
    ++s.stats.events;
    ++s.events_since_round;
    metrics_.shard(router.worker()).inc(obs::Metric::kEventsProcessed);
    VSIM_TRACE(if (trace_ != nullptr) {
      // Named by delta-cycle phase (lt mod 3); nested send/rollback records
      // were emitted by the router while the event executed.
      trace_->complete(router.worker(), "execute", to_string(ts.phase()),
                       exec_start, router.clock() - exec_start, lp, "pt",
                       static_cast<std::int64_t>(ts.pt));
    });
    (void)exec_start;
    q.update(lp, lps_[lp].next_ts());
    if (null_msgs_) send_null_messages_for(lp, router);
    return true;
  }
  return false;
}

inline void EngineCore::credit(ReadyQueue& q, LpId lp) {
  if (const std::uint64_t n = q.take_credit(lp)) lps_[lp].note_blocked(n);
}

template <class R, class Enter>
void EngineCore::sweep(const std::vector<LpId>& ids, std::size_t scope,
                       VirtualTime gvt, R& router, Enter&& enter) {
  // The demotion budget drains in ascending LP id, so decisions depend only
  // on the scope's deterministic counters, never on other scopes' timing.
  AdaptController adapt(config_.adapt, config_.num_workers);
  adapt.begin_round(scope);
  for (const LpId lp : ids) {
    const SweepTarget t = enter(lp);
    lps_[lp].fossil_collect(gvt, router);
    bool deferred = false;
    if (t.live && config_.configuration == Configuration::kDynamic) {
      const AdaptDecision d = adapt.adapt(lps_[lp]);
      deferred = d.action == AdaptAction::kDeferred;
      if (deferred)
        metrics_.shard(router.worker()).inc(obs::Metric::kAdaptDeferrals);
      VSIM_TRACE(if (trace_ != nullptr && d.action != AdaptAction::kNone) {
        trace_->instant(router.worker(), "adapt", to_string(d.action),
                        router.clock(), lp, "waste_pct",
                        static_cast<std::int64_t>(d.waste_rate * 100.0));
      });
    } else if (t.live) {
      lps_[lp].reset_window();
    }
    if (t.live && null_msgs_) send_null_messages_for(lp, router);
    // Idle LPs come back only for what a visit would do without new
    // activity: fold a memory-stall streak, retry a deferred demotion, or
    // (through the fossil heap) commit history once GVT passes its oldest
    // entry.  A dead worker's LPs are only fossil-collected until recovery,
    // and are held like live ones.
    if (lps_[lp].stall_streak() > 0 || deferred) t.queue.touch(lp);
    t.queue.hold(lp, lps_[lp].oldest_history_ts());
  }
  metrics_.shard(router.worker()).inc(obs::Metric::kRoundLpVisits, ids.size());
}

template <class R, class Rekey>
void EngineCore::undo_speculation(const std::vector<LpId>& ids,
                                  VirtualTime gvt, R& router, Rekey&& rekey) {
  for (const LpId lp : ids) {
    lps_[lp].fossil_collect(gvt, router);
    if (lps_[lp].rollback_all_deferred() > 0) rekey(lp);
  }
}

template <class R>
void EngineCore::migrate_lp(LpId lp, ReadyQueue& src, std::uint32_t to,
                            ReadyQueue& dst, VirtualTime gvt, R& router) {
  credit(src, lp);
  src.remove(lp);
  lps_[lp].fossil_collect(gvt, router);
  lps_[lp].rollback_all_deferred();
  const LpCheckpoint ck = lps_[lp].make_checkpoint();
  partition_[lp] = to;
  lps_[lp].restore_from(ck);
  dst.add(lp, lps_[lp].next_ts());
}

template <class Crashed>
bool EngineCore::heartbeat_due(Crashed&& crashed, std::uint32_t* first_dead) {
  bool due = false;
  bool have_dead = false;
  for (std::size_t w = 0; w < retired_.size(); ++w) {
    if (!crashed(w) || retired_[w]) continue;
    if (!have_dead) *first_dead = static_cast<std::uint32_t>(w);
    have_dead = true;
    if (++missed_heartbeats_[w] >= config_.checkpoint.heartbeat_rounds)
      due = true;
  }
  return due;
}

}  // namespace vsim::pdes
