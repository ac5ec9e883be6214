// Per-LP, per-worker and global statistics collected by all engines.
//
// The authoritative cross-run aggregation lives in obs/metrics.h: engines
// feed a sharded MetricsRegistry during the run and fold these structs into
// it at termination (absorb_run_stats), so RunStats::metrics carries every
// counter under its schema name (`tw.rollbacks`, `net.null_messages`, ...).
// The total_*() helpers below remain as cheap conveniences over the raw
// per-LP/per-worker vectors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "pdes/checkpoint.h"
#include "pdes/transport.h"

namespace vsim::pdes {

/// Counters kept by one LpRuntime.  Metrics schema: summed over LPs these
/// become the `tw.*` / `engine.*` counters noted per field.
struct LpStats {
  /// Events executed, including rolled-back work that was re-executed
  /// (metrics: `engine.events_processed`).
  std::uint64_t events_processed = 0;
  /// Events at or below the final GVT, i.e. definitely part of the committed
  /// trajectory (metrics: `engine.events_committed`).
  std::uint64_t events_committed = 0;
  /// Rollback episodes triggered by stragglers or anti-messages
  /// (metrics: `tw.rollbacks`).
  std::uint64_t rollbacks = 0;
  /// Speculative events undone across all rollbacks (metrics:
  /// `tw.events_undone`; per-episode distribution: `tw.rollback_depth`).
  std::uint64_t events_undone = 0;
  /// Anti-messages emitted by aggressive or settled-lazy cancellation
  /// (metrics: `tw.anti_messages`).
  std::uint64_t anti_messages_sent = 0;
  /// Positive/anti pairs that met and annihilated in a pending queue
  /// (metrics: `tw.annihilations`).
  std::uint64_t annihilations = 0;
  /// Re-sends suppressed by lazy cancellation's identical-message match
  /// (metrics: `tw.lazy_reuses`).
  std::uint64_t lazy_reuses = 0;
  /// Lazy entries that re-execution failed to regenerate, settled as
  /// anti-messages (metrics: `tw.lazy_cancels`).
  std::uint64_t lazy_cancels = 0;
  /// State snapshots taken before optimistic event execution
  /// (metrics: `tw.state_saves`).
  std::uint64_t state_saves = 0;
  /// Peak saved-history length of THIS LP (memory proxy).  Aggregations:
  /// max over LPs = `tw.peak_history` (RunStats::peak_history()), sum over
  /// LPs = `tw.total_history` (RunStats::total_history()).  On a clustered
  /// graph the runtime LP is a ClusterLp, so this is the *per-cluster* peak
  /// (one history entry per inner event executed by the cluster) and the
  /// per_lp vector has one slot per cluster, not per flat LP --
  /// ClusterStats.MetricsMatchLegacyTotalsUnderClustering pins the
  /// gauge/legacy-total equivalence under fusing.
  std::size_t max_history = 0;
  /// Conservative<->optimistic transitions by the dynamic configuration
  /// (metrics: `tw.mode_switches`).
  std::uint64_t mode_switches = 0;
  /// Optimistic->conservative adaptation flips (metrics: `adapt.demotions`).
  std::uint64_t adapt_demotions = 0;
  /// Conservative->optimistic adaptation flips (metrics: `adapt.promotions`).
  std::uint64_t adapt_promotions = 0;
  /// Times this LP was pinned conservative by persistent memory stalls
  /// (metrics: `adapt.pinned`; at most 1 per LP between recoveries).
  std::uint64_t adapt_pins = 0;
  /// 1 when the LP ended the run in optimistic mode (maintained by
  /// LpRuntime, so the distributed codec ships it for free); the mean over
  /// LPs is the `adapt.optimistic_fraction` gauge.
  std::uint64_t final_optimistic = 0;
  /// Times the LP had pending work that was not yet provably safe
  /// (metrics: `engine.blocked_polls`).
  std::uint64_t blocked_polls = 0;
  /// Speculative events undone by checkpoint capture (rollback-all-deferred);
  /// kept separate from `rollbacks` so adaptation stats stay meaningful
  /// (metrics: `ckpt.events_undone`).
  std::uint64_t checkpoint_undone = 0;
  /// Pending-queue operations (push + pop + annihilation) performed by this
  /// LP's PendingQueue (metrics: `engine.queue_ops`).  Mirrors
  /// PendingQueue::ops(), which is monotonic across checkpoint restores.
  std::uint64_t queue_ops = 0;
};

/// Counters kept by one engine worker (a modelled machine or an OS thread).
struct WorkerStats {
  /// Accumulated useful + wasted work units charged to this worker.
  double busy_cost = 0.0;
  /// Machine model: the worker's final virtual clock (max over workers is
  /// the run's makespan, metrics gauge `engine.makespan`).
  double final_clock = 0.0;
  /// Events this worker processed, including re-executions
  /// (sharded live into metrics `engine.events_processed`).
  std::uint64_t events = 0;
  /// Data events routed to an LP on another worker, anti-messages included,
  /// null messages excluded (metrics: `net.messages_remote`).
  std::uint64_t messages_sent_remote = 0;
  /// Data events routed within this worker (metrics: `net.messages_local`).
  std::uint64_t messages_sent_local = 0;
  /// Chandy-Misra-Bryant null messages emitted by this worker's LPs
  /// (metrics: `net.null_messages`).
  std::uint64_t null_messages = 0;
};

/// Why a run aborted without finishing, and who was stuck: actionable
/// per-LP diagnostics behind the bare `deadlocked` flag.
struct DeadlockReport {
  VirtualTime gvt;  ///< the bound the run could not advance past
  struct LpDiag {
    LpId id = kInvalidLp;
    VirtualTime next_ts;            ///< minimal pending timestamp
    VirtualTime min_channel_clock;  ///< null-message strategy, else kTimeInf
    std::size_t pending = 0;        ///< pending-queue length
    SyncMode mode = SyncMode::kConservative;
  };
  std::vector<LpDiag> blocked;  ///< every LP that still had pending work

  [[nodiscard]] std::string str() const;
};

struct RunStats {
  std::vector<LpStats> per_lp;
  std::vector<WorkerStats> per_worker;
  std::uint64_t gvt_rounds = 0;
  bool deadlocked = false;
  double makespan = 0.0;  ///< machine model: max worker clock at termination
  TransportCounters transport;
  /// Set when the reliable layer gave up on a link.
  std::optional<TransportError> transport_error;
  /// Populated whenever `deadlocked` is set.
  std::optional<DeadlockReport> deadlock_report;
  /// Fault-tolerance accounting (checkpoints, crashes, recoveries).
  CheckpointStats checkpoint;
  /// Set when a worker crash could not be recovered from (budget exhausted
  /// or no survivors); the run's results are partial.
  std::optional<RecoveryError> recovery_error;
  /// Set when the configuration failed validation; the run never started.
  std::optional<ConfigError> config_error;
  /// Distributed engine: the rank that was coordinating at termination and
  /// the recovery epoch it finished under.  0 / 0 for the in-process engines
  /// and for distributed runs that never failed over.  Deterministic given
  /// the same seed + fault plan, so succession tests pin them.
  std::uint32_t final_coordinator = 0;
  std::uint32_t final_epoch = 0;
  /// Merged metrics snapshot (obs/metrics.h), taken after the engine folded
  /// this struct's totals in.  Empty (all zeros) for hand-built RunStats.
  obs::MetricsSnapshot metrics;

  [[nodiscard]] std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const auto& s : per_lp) n += s.events_processed;
    return n;
  }
  [[nodiscard]] std::uint64_t total_committed() const {
    std::uint64_t n = 0;
    for (const auto& s : per_lp) n += s.events_committed;
    return n;
  }
  [[nodiscard]] std::uint64_t total_rollbacks() const {
    std::uint64_t n = 0;
    for (const auto& s : per_lp) n += s.rollbacks;
    return n;
  }
  [[nodiscard]] std::uint64_t total_null_messages() const {
    std::uint64_t n = 0;
    for (const auto& s : per_worker) n += s.null_messages;
    return n;
  }
  /// Largest saved-history length reached by ANY single LP.  (Historically
  /// this summed the per-LP maxima; that aggregate lives on as
  /// total_history().)
  [[nodiscard]] std::size_t peak_history() const {
    std::size_t n = 0;
    for (const auto& s : per_lp)
      if (s.max_history > n) n = s.max_history;
    return n;
  }
  /// Sum of the per-LP peak history lengths: an upper bound on the run's
  /// aggregate saved-state footprint (the memory-pressure proxy plotted by
  /// the fig6/ablation benches).
  [[nodiscard]] std::size_t total_history() const {
    std::size_t n = 0;
    for (const auto& s : per_lp) n += s.max_history;
    return n;
  }
};

/// Folds this RunStats' totals (per-LP counters, transport, checkpoint,
/// history gauges) into shard 0 of `reg`.  Engines call it exactly once at
/// termination, before the final merge; the shard-native counters
/// (events processed, messages, GVT rounds, rollback-depth samples) are NOT
/// re-added here.
void absorb_run_stats(obs::MetricsRegistry& reg, const RunStats& st);

}  // namespace vsim::pdes
