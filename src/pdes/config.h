// Run-time configuration of the PDES engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/virtual_time.h"

namespace vsim::obs {
class TraceSession;
}

namespace vsim::pdes {

/// Synchronisation mode of an individual LP.
enum class SyncMode : std::uint8_t {
  kConservative,  ///< process only provably safe events; never rolls back
  kOptimistic,    ///< Time Warp: process eagerly, roll back on stragglers
};

/// How simultaneous (equal virtual-time) events are treated (Sec. 2.1).
enum class OrderingMode : std::uint8_t {
  /// Equal-timestamp events may be processed in any order.  Correct for the
  /// distributed VHDL cycle thanks to the (pt, lt) phase encoding; this is
  /// the paper's contribution and the default.
  kArbitrary,
  /// All events with the same timestamp must be collected before any is
  /// processed: conservative LPs need strictly greater channel clocks
  /// (=> null messages + positive lookahead, else deadlock) and optimistic
  /// LPs roll back even on equal-timestamp arrivals.
  kUserConsistent,
};

/// How conservative LPs establish safety.
enum class ConservativeStrategy : std::uint8_t {
  /// Lookahead-free: an event is safe iff its timestamp is <= the global
  /// bound computed at synchronisation rounds (GVT).  This is the paper's
  /// strategy: blocking with global deadlock recovery, no null messages.
  kGlobalSync,
  /// Chandy-Misra-Bryant channel clocks advanced by null messages carrying
  /// per-LP static lookahead (used for the Fig. 4 comparison).
  kNullMessage,
};

/// How rollbacks cancel previously sent messages.
enum class CancellationPolicy : std::uint8_t {
  /// Send anti-messages immediately during rollback (classic Time Warp).
  kAggressive,
  /// Hold anti-messages back; if re-execution regenerates a message with
  /// identical content, suppress both the anti-message and the resend
  /// (rollback waves stop where recomputation converges).  An event's
  /// undecided sends are settled the moment it is re-executed or
  /// annihilated, so no cancellation can ever drop below GVT.
  kLazy,
};

/// Global mode presets matching the paper's four configurations.
enum class Configuration : std::uint8_t {
  kAllOptimistic,
  kAllConservative,
  kMixed,    ///< builder-supplied hint: synchronous LPs conservative, rest optimistic
  kDynamic,  ///< lookahead-free self-adaptive (the paper's best performer)
};

const char* to_string(Configuration c);
const char* to_string(OrderingMode m);
const char* to_string(ConservativeStrategy s);

/// One scheduled crash-stop failure: worker `worker` dies the moment its
/// cumulative processed-event count reaches `after_events`.  The counter is
/// never rolled back by recovery, so each entry fires at most once.
struct WorkerCrash {
  std::uint32_t worker = 0;
  std::uint64_t after_events = 0;
};

/// Deterministic fault-injection plan for the inter-worker transport
/// (transport.h) and for whole-worker crash-stop failures (checkpoint.h).
/// All link probabilities are per submitted packet; faults are drawn from a
/// per-link RNG seeded from `seed`, so any given plan is fully reproducible.
/// A default-constructed plan injects nothing (perfect wire, no crashes).
struct FaultPlan {
  std::uint64_t seed = 1;
  double drop = 0.0;       ///< P(packet vanishes on the wire)
  double duplicate = 0.0;  ///< P(packet is delivered twice)
  double reorder = 0.0;    ///< P(packet is held back behind later traffic)
  /// Extra per-packet latency, uniform in [0, jitter], in engine time units
  /// (only meaningful for wires with a latency model, i.e. the machine
  /// engine; the threaded wire has no explicit timing).
  double jitter = 0.0;
  double blackout = 0.0;  ///< P(a submission starts a transient link outage)
  /// Length of a blackout, counted in subsequent submissions on the link
  /// (all of them are dropped).
  std::uint32_t blackout_span = 8;

  /// P(a worker crash-stops) per event it processes, drawn from a per-worker
  /// RNG seeded from `seed`.  Crash RNG cursors advance monotonically and
  /// are never restored from a checkpoint (a machine's MTBF does not rewind
  /// with the simulation), so recovery always makes forward progress.
  double crash_rate = 0.0;
  /// Explicit crash schedule, for reproducing precise failure timings.
  std::vector<WorkerCrash> crashes;

  /// Link faults only; gates the FaultyTransport decorator.
  [[nodiscard]] bool active() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || jitter > 0 ||
           blackout > 0;
  }
  /// Worker crash-stop failures; gates checkpointing and heartbeats.
  [[nodiscard]] bool crash_active() const {
    return crash_rate > 0 || !crashes.empty();
  }
};

/// Transport stack configuration: the fault plan the wire is wrapped with,
/// and the pacing of the reliable layer (sequence numbers, dedup,
/// cumulative acks, retransmission).  Whether that layer is composed at all
/// is not a setting: it follows the wire (Transport::lossless in
/// transport.h).  Fault-free runs, the distributed socket mesh included,
/// pass straight through; a fault plan brings it in.
struct TransportConfig {
  FaultPlan faults;
  /// Retransmission attempts per packet before the run aborts with a
  /// structured TransportError (a link that never delivers is dead).  Sized
  /// against the sync rounds' drain-to-quiescence loop, which force-flushes
  /// every pass with no RTO pacing: a healthy link riding out a few
  /// blackout_span windows back-to-back must not be declared dead.
  std::uint32_t max_retries = 100;
  /// Initial retransmit timeout in engine time units (virtual clock for the
  /// machine engine, scheduler loop iterations for the threaded engine,
  /// milliseconds for the distributed engine), doubled after every retry.
  double rto = 16.0;
};

/// Retained snapshots in a CheckpointStore (ring buffer, newest wins), and
/// commit batches a distributed successor keeps for a promotion re-emit.
inline constexpr std::size_t kCheckpointKeep = 2;

/// GVT-consistent checkpoint/restart (checkpoint.h).  Checkpointing is also
/// forced on whenever the fault plan schedules crashes, so a crashed run can
/// always fall back to at least the initial snapshot.  Recovery retires the
/// dead workers and deals their LPs to the survivors with the rebalancer's
/// load- and cut-aware placement (partition::redistribute_orphans).
struct CheckpointConfig {
  /// Take a checkpoint every `period` GVT rounds; 0 disables periodic
  /// checkpoints (only the initial pre-run snapshot is kept when crashes
  /// are scheduled).
  std::uint32_t period = 0;
  /// When non-empty, spill the portable section of each checkpoint to
  /// `<spill_dir>/ckpt-<round>.bin` and verify it reads back identically.
  std::string spill_dir;
  /// Recoveries allowed before the run aborts with a RecoveryError (a
  /// crash-looping cluster must fail, not spin).
  std::uint32_t max_recoveries = 8;
  /// GVT rounds a worker may miss before it is declared dead.
  std::uint32_t heartbeat_rounds = 1;
  /// Distributed engine only: how many ranks hold every global checkpoint.
  /// Each rank fans its checkpoint share out to the `replicas` lowest live
  /// ranks, each of which assembles and durably spills the full snapshot --
  /// so the coordinator's death loses neither the checkpoint nor the
  /// buffered output commits.  Clamped to the rank count; >= 1.
  std::uint32_t replicas = 2;
  /// Distributed engine only: before starting, scan `spill_dir` for the
  /// newest valid spilled snapshot and resume from it instead of from the
  /// initial state (kill -9 of the whole process tree is survivable).
  /// Requires a non-empty `spill_dir`.
  bool resume = false;
};

// Fixed parameters of the distributed engine's socket layer (src/net), in
// wall-clock milliseconds unless named otherwise.  The connect window
// stretches with $VSIM_TIME_SCALE (scaled_ms below), as the heartbeat
// timeout does.

/// Window for the initial full-mesh connect (covers listener-bind races at
/// process startup).  The only window in which a dial is retried: after
/// it, a broken connection is a dead rank.
inline constexpr std::uint32_t kConnectTimeoutMs = 5000;
/// Upper bound on one wire frame; larger frames are a protocol error.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Socket layer of the multi-process distributed engine (pdes/distributed.h,
/// src/net).  Every rank is a child process on this host, so the kernel
/// reports a rank's death as EOF on its connections and that is how deaths
/// are detected.  Heartbeats remain only as the backstop for a rank that is
/// alive but wedged; their durations are wall-clock milliseconds.
struct NetConfig {
  /// Directory for the per-rank Unix-domain listening sockets
  /// (`<dir>/rank-<i>.sock`).  Empty: a fresh directory under $TMPDIR.
  std::string socket_dir;
  /// Use TCP loopback instead of Unix-domain sockets; rank i listens on
  /// `host:base_port + i`.
  bool tcp = false;
  std::string host = "127.0.0.1";
  std::uint16_t base_port = 0;
  /// Heartbeat cadence; every rank heartbeats every peer so silence is
  /// observable on any link, not just at the coordinator.
  std::uint32_t heartbeat_interval_ms = 20;
  /// Silence (no frame of any kind) from a connected rank after which the
  /// run ends with a structured RecoveryError ("rank r unresponsive").
  /// Silence never starts a failover: only a lost connection does.
  std::uint32_t heartbeat_timeout_ms = 1000;
};

/// Structured configuration-validation failure: which field is bad and why.
/// Engines surface this via RunStats::config_error instead of running with
/// silently nonsensical parameters.
struct ConfigError {
  std::string field;
  std::string message;
  [[nodiscard]] std::string str() const;
};

std::optional<ConfigError> validate(const FaultPlan& plan,
                                    std::size_t num_workers);
struct AdaptPolicy;
std::optional<ConfigError> validate(const AdaptPolicy& adapt);
std::optional<ConfigError> validate_net(const NetConfig& net);
struct RunConfig;
std::optional<ConfigError> validate(const RunConfig& config);
/// Everything validate() checks plus the distributed-engine-specific rules
/// (net parameters, explicit crash schedules only, no periodic rebalancing).
std::optional<ConfigError> validate_distributed(const RunConfig& config);

/// Wall-clock scale factor from $VSIM_TIME_SCALE (>= 1, clamped to [1, 100];
/// unset or unparsable reads as 1).  Sanitizer CI legs set it so heartbeat
/// timeouts, the connect window and test watchdogs all stretch together
/// instead of a slow instrumented run being mistaken for a wedged rank.
[[nodiscard]] double time_scale();
/// `ms` stretched by time_scale(): the wall-clock budgets of the socket
/// layer (heartbeat timeout, connect window).
[[nodiscard]] std::uint32_t scaled_ms(std::uint32_t ms);

/// Parameters of the self-adaptation policy (evaluated per LP at GVT rounds
/// by the AdaptController in adaptive.h).  Decisions are driven by
/// EWMA-smoothed *rates* folded across GVT windows, not by one window's raw
/// counters: a single bursty window can neither demote a healthy LP nor
/// promote a rollback-prone one.  See DESIGN.md "Dynamic adaptation".
struct AdaptPolicy {
  /// Wasted-work fraction (events undone net of re-executed work, per event
  /// processed; EWMA-smoothed) above which an optimistic LP turns
  /// conservative.  Scaled up with the worker count via `p_headroom`: per-LP
  /// windows shrink as P grows, so the same constant over-demotes at high P.
  double rollback_rate_high = 0.5;
  /// Wasted-work EWMA below which a blocked conservative LP's record counts
  /// as clean for re-promotion.
  double rollback_rate_low = 0.1;
  /// Minimum events accumulated since the last mode flip before a demotion
  /// is considered, and the base unit of blocked-poll promotion evidence.
  std::uint32_t min_window_events = 8;
  /// Each optimistic->conservative demotion doubles the blocked-poll
  /// evidence required before the next re-promotion (left-shift of
  /// min_window_events, saturating at this many doublings).  Breaks the
  /// demote/promote ping-pong of LPs that only ever look good while idle.
  /// Must be < 32 (validated): larger caps would shift into UB territory.
  std::uint32_t promotion_backoff_cap = 4;
  /// EWMA smoothing factor per *active* window (one with >= 1 event):
  /// rate += alpha * (observation - rate).  Smaller = smoother = slower to
  /// react; 1.0 degenerates to single-window decisions.
  double rate_alpha = 0.4;
  /// Per-worker headroom on the demotion threshold: the effective high
  /// threshold is rollback_rate_high * (1 + p_headroom * (P - 1)), capped
  /// at 1.0 by construction of the waste fraction.
  double p_headroom = 0.05;
  /// Active windows observed since the last mode flip before a demotion is
  /// considered (>= 1).  Rollback bursts shorter than this never demote.
  std::uint32_t min_decision_windows = 3;
  /// Avalanche guard: at most this fraction of a controller's LP scope may
  /// be demoted per GVT round (rounded up, so always >= 1 when any LP
  /// qualifies).  A long feedback lattice can only turn conservative
  /// incrementally, giving the EWMAs time to observe the mixed-mode cost.
  double max_demote_fraction = 0.125;
  /// Consecutive memory-stall-dominated windows before an optimistic LP is
  /// pinned conservative (>= 1).  One stalled window under a tight history
  /// cap is normal backpressure; a persistent streak is a far-ahead LP.
  std::uint32_t pin_stall_windows = 3;
};

/// Dynamic load balancing: at a configurable cadence of GVT rounds the
/// round coordinator scores the current placement from the merged per-LP
/// work counters, and migrates a bounded set of LPs from overloaded to
/// underloaded workers (partition/rebalance.h).  Migration happens inside
/// the round, where the network is quiescent and every worker is parked, so
/// LP state moves via the checkpoint codec with nothing in flight.
struct RebalanceConfig {
  /// Consider migrating every `period` GVT rounds; 0 disables rebalancing.
  std::uint32_t period = 0;
  /// Upper bound on LPs moved per rebalance round (migration has real cost;
  /// moving everything at once just trades one imbalance for another).
  std::uint32_t max_moves = 4;
  /// Hysteresis: do nothing while (max-min)/avg worker load is below this,
  /// so a placement within tolerance never thrashes.
  double imbalance_trigger = 0.25;
  // The move-gain floor, rollback weight and cut tie-break weight are fixed
  // constants of the planner (partition/rebalance.h).

  [[nodiscard]] bool enabled() const { return period > 0; }
};

struct RunConfig {
  std::size_t num_workers = 1;
  Configuration configuration = Configuration::kDynamic;
  OrderingMode ordering = OrderingMode::kArbitrary;
  ConservativeStrategy strategy = ConservativeStrategy::kGlobalSync;
  CancellationPolicy cancellation = CancellationPolicy::kAggressive;
  /// Use LogicalProcess::lookahead() for null messages (Fig. 4 "la" column).
  bool use_lookahead = false;
  /// Events processed per worker between GVT rounds (optimistic workers);
  /// conservative workers trigger rounds when blocked.
  std::uint32_t gvt_interval = 64;
  /// Simulate until this physical time (inclusive); events beyond it are
  /// left unprocessed.
  PhysTime until = std::numeric_limits<PhysTime>::max();
  /// Cap on per-LP saved history entries; 0 = unlimited.  When the cap is
  /// hit, the LP stalls until fossil collection (models memory pressure).
  std::size_t max_history = 0;
  AdaptPolicy adapt;
  /// Abort threshold for the deadlock detector: a deadlock is declared
  /// when a synchronisation round cannot advance the safe bound and no LP
  /// processed an event since the previous round this many times in a row.
  std::uint32_t deadlock_rounds = 3;
  /// Inter-worker transport stack (fault injection + reliable delivery).
  TransportConfig transport;
  /// GVT-consistent checkpointing and crash recovery.
  CheckpointConfig checkpoint;
  /// Dynamic load balancing via LP migration at GVT rounds.
  RebalanceConfig rebalance;
  /// Socket layer of the multi-process distributed engine; ignored by the
  /// in-process engines.
  NetConfig net;
  /// Optional event-trace sink (obs/trace.h).  The session must have at
  /// least `num_workers` tracks and outlive the engine.  When null, engines
  /// fall back to the $VSIM_TRACE process-global tracer (if set); tracing is
  /// otherwise off.  Not owned.
  obs::TraceSession* trace = nullptr;
};

}  // namespace vsim::pdes
