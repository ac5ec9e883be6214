// Lock-cheap metrics registry: counters, gauges and histograms, sharded per
// worker and merged at synchronisation (GVT) rounds.
//
// Design: the engines are single-writer per worker, so each worker owns a
// MetricsShard -- plain arrays indexed by compile-time metric ids, no atomics
// or locks on the hot path.  merge() folds the shards into one consistent
// MetricsSnapshot; the engines call it inside their GVT rounds (where every
// worker is parked at a barrier or the engine is single-threaded), which is
// the only point a cross-worker total is well-defined anyway.  The snapshot
// is what RunStats carries and what bench reports serialise -- it supersedes
// ad-hoc summing loops over per-LP/per-worker stats structs.
//
// The metric id spaces are closed enums: every counter the engines emit is
// named here, next to its schema name.  DESIGN.md ("Observability") is the
// human-readable registry of the same schema.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "obs/json.h"

namespace vsim::obs {

/// Monotonic counters.  Schema names (metric_name()) are dot-scoped:
/// `engine.*` scheduler-level, `tw.*` Time Warp, `net.*` message routing,
/// `transport.*` wire/channel layer, `ckpt.*` fault tolerance.
enum class Metric : std::uint16_t {
  // Scheduler (hot path: incremented by the owning worker's shard).
  kEventsProcessed,   ///< engine.events_processed (incl. re-executions)
  kEventsCommitted,   ///< engine.events_committed
  kGvtRounds,         ///< engine.gvt_rounds
  /// engine.gvt_scan_items — candidates touched by GVT min-reductions, the
  /// direct evidence that rounds are hierarchical: each worker's (or
  /// rank's) minimum reads its ReadyQueue's heap top (1 when the heap is
  /// non-empty) plus its parked LPs, in every engine, so this grows with
  /// the worker count and the blocked-LP count, NOT with workers x LPs.
  kGvtScanItems,
  kBlockedPolls,      ///< engine.blocked_polls
  kQueueOps,          ///< engine.queue_ops — pending-queue push/pop/annihilate
  // Time Warp protocol.
  kRollbacks,         ///< tw.rollbacks
  kEventsUndone,      ///< tw.events_undone
  kAntiMessages,      ///< tw.anti_messages
  kAnnihilations,     ///< tw.annihilations
  kLazyReuses,        ///< tw.lazy_reuses
  kLazyCancels,       ///< tw.lazy_cancels
  kStateSaves,        ///< tw.state_saves
  kModeSwitches,      ///< tw.mode_switches
  // Message routing (engine router, above the transport stack).
  kMessagesLocal,     ///< net.messages_local
  kMessagesRemote,    ///< net.messages_remote
  kNullMessages,      ///< net.null_messages
  kMailboxBatches,    ///< net.mailbox_batches — batch flushes into inboxes
  // Transport stack (folded from TransportCounters at run end).
  kTransportDataSent,      ///< transport.data_sent
  kTransportAcksSent,      ///< transport.acks_sent
  kTransportDelivered,     ///< transport.delivered
  kTransportDropped,       ///< transport.dropped
  kTransportDuplicated,    ///< transport.duplicated
  kTransportReordered,     ///< transport.reordered
  kTransportRetransmits,   ///< transport.retransmits
  kTransportDupDiscarded,  ///< transport.dup_discarded
  kTransportBuffered,      ///< transport.buffered
  // Fault tolerance (folded from CheckpointStats).
  kCheckpoints,            ///< ckpt.checkpoints
  kCheckpointUndone,       ///< ckpt.events_undone
  kCrashes,                ///< ckpt.crashes
  kRecoveries,             ///< ckpt.recoveries
  kLpsRestored,            ///< ckpt.lps_restored
  kCheckpointDiskBytes,    ///< ckpt.disk_bytes
  // Dynamic load balancing (partition/rebalance.h).
  kMigrations,             ///< engine.migrations — LPs moved between workers
  kRebalanceRounds,        ///< engine.rebalance_rounds — planner evaluations
  // Socket layer (src/net, distributed engine only).
  kNetFramesSent,          ///< net.frames_sent — wire frames written
  kNetFramesRecv,          ///< net.frames_recv — wire frames parsed
  kNetHeartbeats,          ///< net.heartbeats — heartbeat frames sent
  kNetDisconnects,         ///< net.disconnects — peer connections lost
  kNetCrcErrors,           ///< net.crc_errors — frames dropped on checksum
  // Frontend native codegen (process-global, folded at run end).
  kNativeBodies,           ///< frontend.native_bodies — compiled bodies built
  kCodegenCacheHits,       ///< frontend.codegen_cache_hits — .so reuses
  kCodegenCompiles,        ///< frontend.codegen_compiles — compiler runs
  kInterpFallbacks,        ///< frontend.interp_fallbacks — native -> interp
  // Dynamic adaptation (adaptive.h).  Demotions/promotions/pins are per-LP
  // counters folded from LpStats at run end; deferrals are shard-native
  // (charged by the controller's owner when the round budget runs out).
  kAdaptDemotions,         ///< adapt.demotions — optimistic -> conservative
  kAdaptPromotions,        ///< adapt.promotions — conservative -> optimistic
  kAdaptPins,              ///< adapt.pinned — LPs pinned conservative
  kAdaptDeferrals,         ///< adapt.deferrals — demotions deferred by budget
  /// engine.round_lp_visits — LPs the GVT rounds' fossil/adapt sweeps
  /// visited: dirty and due LPs only in every engine, so it tracks
  /// activity and commits, not rounds x LPs.
  kRoundLpVisits,
  /// engine.round_barriers — completed round-barrier generations (threaded
  /// engine): the stop barrier, one per drain pass and the end barrier of
  /// every GVT round.
  kRoundBarriers,
  /// engine.cut_events — events the distributed ranks processed while an
  /// asynchronous GVT cut was open (between a rank's cut and its report):
  /// the work a stop-the-world round would have held back.
  kCutEvents,
  /// engine.stop_rounds — distributed GVT rounds that stopped every rank
  /// to drain the network: only checkpoint captures under fault tolerance.
  kStopRounds,
  kCount
};

/// Gauges: merged with MAX across shards (a gauge is a level, not a flow).
enum class Gauge : std::uint16_t {
  kPeakHistory,   ///< tw.peak_history — largest saved-history length of any LP
  kTotalHistory,  ///< tw.total_history — summed per-LP peak history (memory proxy)
  kMakespan,      ///< engine.makespan — machine model critical path
  kFtOverhead,    ///< ckpt.overhead_cost — work units charged to fault tolerance
  kLbImbalance,   ///< lb.imbalance — peak (max-min)/avg worker load observed
                  ///< at a rebalance round (gauges merge with MAX)
  kCodegenCompileMs,  ///< frontend.codegen_compile_ms — slowest .so compile
  kAdaptOptimisticFraction,  ///< adapt.optimistic_fraction — LPs ending the
                             ///< run optimistic / all LPs (max across merges
                             ///< is a no-op: folded once at run end)
  kCount
};

/// Histograms: power-of-two buckets, merged by bucket-wise addition.
enum class Hist : std::uint16_t {
  kRollbackDepth,  ///< tw.rollback_depth — events undone per rollback
  kBatchSize,      ///< net.batch_size — packets per flushed mailbox batch
  kCount
};

[[nodiscard]] const char* metric_name(Metric m);
[[nodiscard]] const char* gauge_name(Gauge g);
[[nodiscard]] const char* hist_name(Hist h);

/// Log2-bucketed histogram: bucket i counts observations in [2^(i-1), 2^i)
/// (bucket 0 is [0, 1)).  Fixed size, trivially mergeable.
struct Histogram {
  static constexpr std::size_t kBuckets = 32;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;

  void observe(double v);
  Histogram& operator+=(const Histogram& o);
  [[nodiscard]] Json to_json() const;
};

/// One worker's private slice of the registry.  Single-writer: only the
/// owning worker may call the mutating methods, so none of them synchronise.
class MetricsShard {
 public:
  void inc(Metric m, std::uint64_t delta = 1) {
    counters_[static_cast<std::size_t>(m)] += delta;
  }
  void gauge_max(Gauge g, double v) {
    auto& slot = gauges_[static_cast<std::size_t>(g)];
    if (v > slot) slot = v;
  }
  void observe(Hist h, double v) {
    hists_[static_cast<std::size_t>(h)].observe(v);
  }

 private:
  friend class MetricsRegistry;
  std::array<std::uint64_t, static_cast<std::size_t>(Metric::kCount)>
      counters_{};
  std::array<double, static_cast<std::size_t>(Gauge::kCount)> gauges_{};
  std::array<Histogram, static_cast<std::size_t>(Hist::kCount)> hists_{};
};

/// Consistent merged view of all shards, frozen at a merge point.
struct MetricsSnapshot {
  std::array<std::uint64_t, static_cast<std::size_t>(Metric::kCount)>
      counters{};
  std::array<double, static_cast<std::size_t>(Gauge::kCount)> gauges{};
  std::array<Histogram, static_cast<std::size_t>(Hist::kCount)> hists{};

  [[nodiscard]] std::uint64_t counter(Metric m) const {
    return counters[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] double gauge(Gauge g) const {
    return gauges[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] const Histogram& histogram(Hist h) const {
    return hists[static_cast<std::size_t>(h)];
  }
  /// Flat name -> value object (histograms expand to sub-objects); the
  /// serialisation used by bench reports.
  [[nodiscard]] Json to_json() const;
};

/// Byte codec and cross-process merge for snapshots, used by the
/// distributed engine to ship per-rank metrics to the *current coordinator*
/// at GVT rounds and at run end (rank 0 only until a failover promotes a
/// successor -- the codec does not care who assembles).  Each rank ships one
/// pre-merged snapshot, so the cross-process reduction is O(ranks), not
/// O(ranks x LPs) -- the same hierarchical shape as the GVT scan.  decode tolerates snapshots from a binary with a different
/// metric count (older/newer rank mix is a config error upstream; this just
/// refuses to misalign).  merge_snapshot applies the same semantics as
/// MetricsRegistry::merge: counters add, gauges max, histograms add.
void encode_snapshot(vsim::bytes::Writer& w, const MetricsSnapshot& s);
[[nodiscard]] bool decode_snapshot(vsim::bytes::Reader& r,
                                   MetricsSnapshot* out);
void merge_snapshot(MetricsSnapshot& into, const MetricsSnapshot& from);

/// Process-global counters for work performed outside any engine run --
/// today, elaboration-time native codegen.  Thread-safe (mutexed; these are
/// cold paths).  pdes::absorb_run_stats folds the current totals into every
/// run's shard 0, so RunStats.metrics carries the process-wide totals as of
/// that run's end (cumulative across runs in one process by design).
void process_counter_add(Metric m, std::uint64_t delta = 1);
void process_gauge_max(Gauge g, double v);
/// Snapshot of the process-global counters/gauges (histograms unused).
[[nodiscard]] MetricsSnapshot process_metrics();

/// Owns one shard per worker plus the merged totals.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t num_shards = 1)
      : shards_(num_shards ? num_shards : 1) {}

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] MetricsShard& shard(std::size_t i) { return shards_[i]; }

  /// Folds every shard into the merged totals.  Must be called at a point
  /// where no shard is being written (a GVT round barrier, or after the
  /// workers joined); shards keep accumulating monotonically, so merging is
  /// a recomputation, not a destructive drain.
  void merge();

  /// The totals as of the last merge().
  [[nodiscard]] const MetricsSnapshot& merged() const { return merged_; }

 private:
  std::vector<MetricsShard> shards_;
  MetricsSnapshot merged_;
};

}  // namespace vsim::obs
