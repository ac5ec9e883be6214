// GVT-consistent checkpoint/restart.
//
// GVT is the commit frontier the protocol already computes: no event below
// it is ever rolled back (DESIGN.md §5), so the state at a synchronisation
// round -- after the network has been drained to quiescence -- is a globally
// consistent cut.  A checkpoint holds LP state only: per LP, the
// committed-frontier snapshot plus the pending event set, and the engine's
// null-promise cache.  Nothing is in flight at the cut, and recovery throws
// away whatever the abandoned timeline had in flight, so the transport
// stack simply resets to fresh cursors (ChannelStack::reset) instead of
// being restored.  Re-running from the snapshot regenerates the cut's
// message sequence exactly; the link-fault RNGs run on, and the reliable
// layer repairs whatever they draw, so the committed trace of a
// crashed-and-recovered run is bit-identical to an uninterrupted one.
//
// Capture uses "rollback-all-deferred" (LpRuntime::rollback_all_deferred):
// speculative history is undone WITHOUT emitting anti-messages -- every
// undone send is parked in the lazy-cancellation queue, and deterministic
// re-execution after the checkpoint settles each entry as a suppressed
// resend.  The checkpoint is thus protocol-transparent: no receiver ever
// observes that one was taken.
//
// The per-LP capture path (rollback_all_deferred + make_checkpoint +
// restore_from) is also the migration codec: dynamic load balancing
// (partition/rebalance.h) packs an LP through it on the source worker and
// reinstates it on the destination inside the same drained GVT round, so
// migrating is exactly "checkpoint one LP, restore it under a new owner".
//
// Clustering composes transparently: a fused ClusterLp (pdes/cluster.h) is
// one LP to this module, so the cluster is the unit of checkpointing and
// migration.  Its save_state() is an O(1) undo-log marker, and its byte
// codec concatenates the inner LPs' codecs in local order -- the snapshot a
// rank ships or spills for a 64-LP cluster is one LpCheckpoint, not 64.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "pdes/lp.h"
#include "pdes/config.h"

namespace vsim::pdes {

class LpRuntime;

/// One LP's share of a checkpoint.  `state` is the opaque LpState snapshot
/// (kept in memory; LPs that implement encode_state/decode_state can also
/// ship it as bytes, which the distributed engine requires); the remaining
/// fields are plain data and form the "portable" section that can spill to
/// disk (CheckpointStore::encode_portable) or cross the wire
/// (encode_lp_checkpoint).
struct LpCheckpoint {
  std::unique_ptr<LpState> state;
  SyncMode mode = SyncMode::kConservative;
  bool pinned_conservative = false;
  VirtualTime committed_ts = kTimeZero;
  EventUid send_seq = 0;
  std::vector<Event> pending;
  std::vector<EventUid> pending_negatives;
  /// Undecided lazy-cancellation entries (gen_uid, sent event).
  std::vector<std::pair<EventUid, Event>> lazy;
  /// Null-message channel clocks, sorted by source LP for determinism.
  std::vector<std::pair<LpId, VirtualTime>> in_clocks;
};

/// A consistent global snapshot taken at a GVT round.
struct Checkpoint {
  std::uint64_t round = 0;  ///< GVT round the snapshot was taken at
  VirtualTime gvt = kTimeZero;
  std::vector<LpCheckpoint> lps;          ///< indexed by LpId
  std::vector<VirtualTime> last_promise;  ///< engine null-promise cache
  /// Encoded LpState bytes per LP (LogicalProcess::encode_state), indexed by
  /// LpId when present.  The distributed engine fills these so a spilled
  /// checkpoint is *complete*: a fresh process can revive every LP from the
  /// file alone.  The in-process engines leave it empty (their `state`
  /// pointers stay live in memory) and the codec encodes an empty list.
  std::vector<std::vector<std::uint8_t>> state_blobs;
};

/// Structured failure surfaced when crash recovery itself fails: the
/// recovery budget is exhausted (crash-looping cluster) or no survivor is
/// left to take over the dead worker's LPs.
struct RecoveryError {
  std::uint32_t worker = 0;  ///< the crash that could not be recovered from
  std::uint64_t round = 0;   ///< GVT round at which recovery gave up
  std::uint32_t recoveries_used = 0;
  std::string message;

  [[nodiscard]] std::string str() const;
};

/// What fault tolerance cost during a run.
///
/// Exported to the metrics registry (obs/metrics.h) as the `ckpt.*`
/// counters -- checkpoints, crashes, recoveries, lps_restored, disk_bytes,
/// plus the `ckpt.overhead_cost` gauge -- so BENCH_*.json reports carry the
/// fault-tolerance tax per run; see DESIGN.md "Observability".
struct CheckpointStats {
  std::uint64_t checkpoints = 0;  ///< snapshots taken (incl. the initial one)
  std::uint64_t crashes = 0;      ///< worker crash-stop events injected
  std::uint64_t recoveries = 0;   ///< successful recoveries performed
  std::uint64_t lps_restored = 0; ///< LP snapshots reinstated across recoveries
  std::uint64_t disk_bytes = 0;   ///< portable bytes spilled to disk
  double overhead_cost = 0.0;     ///< work units charged to worker clocks
};

/// Ring buffer of the most recent checkpoints.  When `spill_dir` is
/// non-empty, the portable section of every checkpoint is also written
/// durably (atomic temp-file + fsync + rename) to
/// `<spill_dir>/ckpt-<round>.bin` and read back for verification.  When the
/// checkpoint carries `state_blobs` (the distributed engine's replicated
/// snapshots do), the file alone can revive a fresh process: see
/// load_newest_valid().
class CheckpointStore {
 public:
  explicit CheckpointStore(std::size_t keep = kCheckpointKeep,
                           std::string spill_dir = {});

  void put(Checkpoint&& ck);
  [[nodiscard]] const Checkpoint* latest() const;
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t disk_bytes() const { return disk_bytes_; }
  /// First disk-spill failure (I/O error or read-back mismatch), if any.
  /// Spilling is best-effort: the in-memory checkpoint stays authoritative.
  [[nodiscard]] const std::optional<std::string>& io_error() const {
    return io_error_;
  }

  /// Drops every checkpoint with round > `round`, from the ring AND from the
  /// spill dir.  Called when a restore rewinds the cluster: snapshots from
  /// the abandoned timeline must not survive where a later succession could
  /// restore (or re-emit commits from) them.
  void drop_above(std::uint64_t round);

  /// Restart path: scans `dir` for ckpt-*.bin files and returns the decoded
  /// checkpoint with the highest round that passes the checksum + structural
  /// decode, or nullopt when none does.  Torn or corrupt files are skipped
  /// with a warning on stderr, never fatal; `skipped` (optional) counts them.
  [[nodiscard]] static std::optional<Checkpoint> load_newest_valid(
      const std::string& dir, std::uint64_t* skipped = nullptr);

  /// Serialises everything except the in-memory LpState snapshots into a
  /// versioned little-endian binary blob (CRC32-terminated so torn writes
  /// are detectable), and parses it back.  decode returns false on any
  /// corruption (bad magic, truncation, checksum mismatch, trailing bytes).
  [[nodiscard]] static std::vector<std::uint8_t> encode_portable(
      const Checkpoint& ck);
  [[nodiscard]] static bool decode_portable(
      const std::vector<std::uint8_t>& buf, Checkpoint* out);

 private:
  void spill(const Checkpoint& ck);

  std::size_t keep_;
  std::string spill_dir_;
  std::vector<Checkpoint> ring_;  ///< oldest first
  std::uint64_t disk_bytes_ = 0;
  std::optional<std::string> io_error_;
};

/// Shared field-level codecs (common/bytes.h layout).  These are the exact
/// encodings the portable checkpoint section uses, exposed so the socket
/// wire (src/net) serialises events and shipped LP checkpoints with the
/// same bytes a spilled checkpoint holds.  The LpCheckpoint codec covers
/// the portable fields only -- the opaque LpState travels separately
/// through LogicalProcess::encode_state/decode_state.
void encode_event(bytes::Writer& w, const Event& ev);
[[nodiscard]] Event decode_event(bytes::Reader& r);
void encode_lp_checkpoint(bytes::Writer& w, const LpCheckpoint& lp);
[[nodiscard]] bool decode_lp_checkpoint(bytes::Reader& r, LpCheckpoint* out);

/// Builds a checkpoint from engine state.  Preconditions: every LP's
/// speculative history has been undone (LpRuntime::rollback_all_deferred)
/// and the network has been drained to quiescence.
[[nodiscard]] Checkpoint capture_checkpoint(
    std::uint64_t round, VirtualTime gvt, std::vector<LpRuntime>& lps,
    const std::vector<VirtualTime>& last_promise);

/// Restores engine state from `ck` (the inverse of capture_checkpoint).
/// The caller must clear its mailboxes, reset its transport stack and
/// rebuild its scheduling keys afterwards; LP statistics are cumulative and
/// deliberately not restored.
void restore_checkpoint(const Checkpoint& ck, std::vector<LpRuntime>& lps,
                        std::vector<VirtualTime>& last_promise);

}  // namespace vsim::pdes
