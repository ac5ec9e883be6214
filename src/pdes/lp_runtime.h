// Per-LP protocol state machine shared by all engines.
//
// An LpRuntime wraps one LogicalProcess with everything the synchronisation
// protocols need: the pending event queue, the processed-event history with
// state snapshots (Time Warp), anti-message bookkeeping, channel clocks for
// the null-message strategy, and the arbitrary/user-consistent ordering
// rules for simultaneous events.
//
// Engines (sequential, machine model, threaded, distributed) drive
// LpRuntimes through a small interface: enqueue() delivers messages
// (possibly triggering rollback), peek() asks whether the minimal pending
// event may be processed under the current safety information,
// process_next() executes it, and fossil_collect() commits and frees
// history below GVT.  A GVT round visits an LP only when that visit does
// work: it saw activity (the ReadyQueue's dirty set), its oldest history
// entry (oldest_history_ts()) fell below GVT (the fossil heap), or it has a
// memory-stall streak or a deferred demotion to carry.  Visiting any other
// LP is a no-op: nothing to commit, an empty adaptation window to fold, and
// an unchanged null promise.
#pragma once

#include <cassert>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "pdes/config.h"
#include "pdes/event_queue.h"
#include "pdes/lp.h"
#include "pdes/stats.h"

namespace vsim::pdes {

/// Reserved event kind for null messages (Chandy-Misra-Bryant promises).
inline constexpr std::int16_t kNullMsgKind =
    std::numeric_limits<std::int16_t>::min();

/// Engine-provided delivery and commit callbacks.  route() must deliver the
/// event to the destination LP's runtime (directly or via a mailbox);
/// commit() is invoked exactly once per committed event, in per-LP
/// timestamp order (used by trace monitors).
class Router {
 public:
  virtual ~Router() = default;
  virtual void route(Event&& ev) = 0;
  virtual void commit(const Event& ev) { (void)ev; }
};

enum class Eligibility : std::uint8_t {
  kIdle,     ///< no pending event within the horizon
  kReady,    ///< minimal pending event may be processed now
  kBlocked,  ///< pending work exists but is not yet safe / memory-stalled
};

class LpRuntime {
 public:
  LpRuntime(LogicalProcess* lp, OrderingMode ordering,
            ConservativeStrategy strategy, SyncMode initial_mode,
            std::size_t max_history, bool use_lookahead = false,
            CancellationPolicy cancellation = CancellationPolicy::kAggressive)
      : lp_(lp),
        ordering_(ordering),
        strategy_(strategy),
        mode_(lp->can_save_state() ? initial_mode : SyncMode::kConservative),
        max_history_(max_history),
        use_lookahead_(use_lookahead),
        lazy_(cancellation == CancellationPolicy::kLazy) {
    stats_.final_optimistic = mode_ == SyncMode::kOptimistic ? 1 : 0;
  }

  LpRuntime(const LpRuntime&) = delete;
  LpRuntime& operator=(const LpRuntime&) = delete;
  LpRuntime(LpRuntime&&) = default;
  LpRuntime& operator=(LpRuntime&&) = default;

  [[nodiscard]] LogicalProcess& lp() { return *lp_; }
  [[nodiscard]] LpId id() const { return lp_->id(); }
  [[nodiscard]] SyncMode mode() const { return mode_; }
  [[nodiscard]] LpStats& stats() { return stats_; }
  [[nodiscard]] const LpStats& stats() const { return stats_; }

  /// Switches synchronisation mode.  Safe at any point: history drains via
  /// fossil collection; events processed conservatively were already safe.
  void set_mode(SyncMode m);

  /// Pins the LP to conservative mode (used when Time Warp memory pressure
  /// demotes a persistent far-ahead LP; re-promotion would oscillate).
  void pin_conservative() {
    if (!pinned_conservative_) ++stats_.adapt_pins;
    pinned_conservative_ = true;
    set_mode(SyncMode::kConservative);
  }
  [[nodiscard]] bool pinned_conservative() const {
    return pinned_conservative_;
  }

  /// Registers an input channel (null-message strategy only).
  void add_input_channel(LpId src);

  /// Delivers a message.  Negative events annihilate or roll back; positive
  /// stragglers roll back optimistic LPs.  Null messages advance clocks.
  void enqueue(Event ev, Router& router);

  /// Timestamp of the minimal pending event (kTimeInf if none).
  [[nodiscard]] VirtualTime next_ts() const;

  /// May the minimal pending event be processed, given the engine's global
  /// safe bound (events with ts <= bound are guaranteed final under the
  /// arbitrary ordering)?
  [[nodiscard]] Eligibility peek(VirtualTime global_safe_bound,
                                 PhysTime until) const;

  /// Processes the minimal pending event.  Precondition: peek() == kReady.
  /// Returns the work cost of the event (for the machine model).
  double process_next(Router& router);

  /// Commits and frees history strictly below `gvt`; invokes
  /// router.commit() for every committed event in timestamp order.
  void fossil_collect(VirtualTime gvt, Router& router);

  /// The promise for null messages: promise_from(t) for t the lowest time
  /// this LP can still process, so no event sent later has a promise_from
  /// below it.
  [[nodiscard]] VirtualTime null_promise() const;
  /// What an output sent at `t` promises: `t` itself, or with lookahead the
  /// start of the cycle `lookahead()` later.  A VHDL assignment travels at
  /// its sender's time and carries its delay, so lookahead bounds when an
  /// output takes effect, not when it is sent.
  [[nodiscard]] VirtualTime promise_from(VirtualTime t) const;

  /// Rollbacks since the last adaptation window reset, and window control.
  [[nodiscard]] std::uint64_t window_rollbacks() const {
    return window_rollbacks_;
  }
  [[nodiscard]] std::uint64_t window_events() const { return window_events_; }
  [[nodiscard]] std::uint64_t window_blocked() const {
    return window_blocked_;
  }
  [[nodiscard]] std::uint64_t window_undone() const { return window_undone_; }
  void reset_window();
  /// Records `polls` scheduler polls that found the LP blocked (more than
  /// one when a ready queue credits the passes a parked LP sat out).
  void note_blocked(std::uint64_t polls = 1) {
    stats_.blocked_polls += polls;
    if (mode_ == SyncMode::kOptimistic && max_history_ != 0 &&
        history_.size() >= max_history_) {
      window_memory_stalls_ += polls;  // Time Warp memory, not safety
    } else {
      window_blocked_ += polls;
    }
  }
  [[nodiscard]] std::uint64_t window_memory_stalls() const {
    return window_memory_stalls_;
  }
  /// Lifetime optimistic->conservative transitions (NOT window-scoped):
  /// the promotion hysteresis scales its evidence threshold by this, so an
  /// LP that keeps getting demoted needs ever more proof to flip back.
  [[nodiscard]] std::uint64_t demotions() const { return demotions_; }

  // ---- rate-based adaptation signals (adaptive.h) ----
  //
  // fold_window() is called once per GVT round (kDynamic only): it folds the
  // raw window counters into EWMA rates carried *across* rounds and then
  // resets the window.  All cross-round state below restarts from zero at
  // every mode flip (set_mode) and at checkpoint restore -- it is scratch
  // for the controller, never part of the replicated simulation state.

  /// Folds the current window into the cross-round rates and resets it.
  void fold_window(const AdaptPolicy& policy);
  /// EWMA of the per-window wasted-work fraction
  /// min(1, events_undone / events_processed), over active windows since the
  /// last mode flip.  0 when no active window has been observed yet.
  [[nodiscard]] double waste_rate() const { return waste_rate_; }
  /// Windows with >= 1 processed event folded since the last mode flip.
  [[nodiscard]] std::uint32_t active_windows() const {
    return active_windows_;
  }
  /// Events processed in folded windows since the last mode flip.
  [[nodiscard]] std::uint64_t evidence_events() const {
    return evidence_events_;
  }
  /// Cumulative blocked polls folded since the last mode flip (promotion
  /// evidence: accumulates across rounds, resets only on a flip, so the
  /// escalating backoff really halves the ping-pong frequency).
  [[nodiscard]] std::uint64_t blocked_since_flip() const {
    return blocked_since_flip_;
  }
  /// Consecutive folded windows dominated by Time Warp memory stalls.
  [[nodiscard]] std::uint32_t stall_streak() const { return stall_streak_; }
  /// Test hook: stages one synthetic window's counters (as if they had
  /// accumulated live); the next fold_window()/controller round folds them.
  void inject_window(std::uint64_t events, std::uint64_t undone,
                     std::uint64_t blocked, std::uint64_t stalls = 0) {
    window_events_ += events;
    window_undone_ += undone;
    window_blocked_ += blocked;
    window_memory_stalls_ += stalls;
  }

  [[nodiscard]] std::size_t history_size() const { return history_.size(); }
  /// Timestamp of the oldest uncommitted history entry (kTimeInf when the
  /// history is empty): fossil_collect(gvt) commits something exactly when
  /// it is below `gvt`.  The ReadyQueue's fossil heap is keyed by it.
  [[nodiscard]] VirtualTime oldest_history_ts() const {
    return history_.empty() ? kTimeInf : history_.front().ev.ts;
  }
  [[nodiscard]] bool has_pending() const { return !pending_.empty(); }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }

  /// Minimum over the input-channel clocks (kTimeInf when the LP has no
  /// registered channels, i.e. outside the null-message strategy).  Public
  /// for deadlock diagnostics.
  [[nodiscard]] VirtualTime min_channel_clock() const;

  /// Checkpoint capture: undoes ALL speculative history without emitting
  /// anti-messages -- every undone send is deferred into the lazy queue
  /// (regardless of the cancellation policy), so the deterministic
  /// re-execution after the checkpoint settles each entry as a suppressed
  /// resend and no receiver ever observes the rollback.  Needs no Router.
  /// Returns the number of events undone.
  std::size_t rollback_all_deferred();

  /// Snapshot of the committed frontier.  Precondition: history is empty
  /// (call rollback_all_deferred() first).
  [[nodiscard]] LpCheckpoint make_checkpoint() const;

  /// Inverse of make_checkpoint(): reinstates LP state, pending events,
  /// lazy entries and channel clocks.  Statistics are cumulative across
  /// recoveries and deliberately untouched.
  void restore_from(const LpCheckpoint& ck);

 private:
  struct SentRecord {
    Event ev;  ///< positive copy of what was sent
  };
  struct Processed {
    Event ev;
    std::unique_ptr<LpState> pre_state;  ///< state before ev (optimistic)
    std::vector<SentRecord> sends;
  };
  /// Lazy cancellation: a send whose fate is undecided after a rollback.
  /// `gen_uid` is the input event that produced it; the entry is settled
  /// when that event is re-executed (matched -> suppressed, unmatched ->
  /// anti-message) or annihilated (anti-message).
  struct LazyEntry {
    EventUid gen_uid;
    Event ev;
  };

  class CollectContext;  // SimContext capturing sends during simulate()

  /// Undoes history entries [pos, end): re-pends their events, sends
  /// anti-messages for their sends, restores the pre-state of entry `pos`.
  void rollback_to_position(std::size_t pos, Router& router);

  /// Straggler rollback: undoes every processed event whose timestamp is
  /// > ts (arbitrary ordering) or >= ts (user-consistent ordering).
  void rollback_for_straggler(VirtualTime ts, Router& router);

  /// Lazy cancellation: sends anti-messages for every still-undecided send
  /// generated by input event `gen_uid` (called when that event is
  /// re-executed without regenerating them, or is annihilated).
  void settle_lazy(EventUid gen_uid, Router& router);

  [[nodiscard]] VirtualTime last_processed_ts() const {
    return history_.empty() ? committed_ts_ : history_.back().ev.ts;
  }

  LogicalProcess* lp_;
  OrderingMode ordering_;
  ConservativeStrategy strategy_;
  SyncMode mode_;
  std::size_t max_history_;
  bool use_lookahead_;
  bool lazy_ = false;
  bool pinned_conservative_ = false;
  std::vector<LazyEntry> lazy_queue_;

  PendingQueue pending_;  ///< binary heap + lazy-deletion annihilation index
  std::deque<Processed> history_;
  /// Negatives that arrived before their positives (transient reordering).
  std::set<EventUid> pending_negatives_;
  /// Highest committed timestamp (fossil-collected or conservative).
  VirtualTime committed_ts_ = kTimeZero;

  /// Null-message strategy: per-input-channel clocks (exclusive bounds).
  std::unordered_map<LpId, VirtualTime> in_clocks_;

  EventUid send_seq_ = 0;
  LpStats stats_;
  std::uint64_t window_rollbacks_ = 0;
  std::uint64_t window_events_ = 0;
  std::uint64_t window_blocked_ = 0;
  std::uint64_t window_memory_stalls_ = 0;
  std::uint64_t window_undone_ = 0;  ///< events undone by rollback this window
  std::uint64_t demotions_ = 0;  ///< lifetime optimistic->conservative flips

  // Cross-round adaptation rates (scratch; reset on mode flip + restore).
  double waste_rate_ = 0.0;
  std::uint32_t active_windows_ = 0;
  std::uint64_t evidence_events_ = 0;
  std::uint64_t blocked_since_flip_ = 0;
  std::uint32_t stall_streak_ = 0;

  void reset_adapt_rates();
};

}  // namespace vsim::pdes
