#include "pdes/lp_runtime.h"

#include <algorithm>

namespace vsim::pdes {
namespace {

bool same_message(const Event& a, const Event& b) {
  return a.dst == b.dst && a.sub == b.sub && a.ts == b.ts && a.kind == b.kind &&
         a.payload.port == b.payload.port &&
         a.payload.scalar == b.payload.scalar &&
         a.payload.bits == b.payload.bits;
}

}  // namespace

// SimContext implementation that collects sends emitted by simulate().
class LpRuntime::CollectContext final : public SimContext {
 public:
  CollectContext(LpRuntime& rt, VirtualTime now) : rt_(rt), now_(now) {}

  void send(LpId dst, VirtualTime ts, std::int16_t kind,
            Payload payload, LpId sub) override {
    assert(ts >= now_ && "causality: sends may not be in the past");
    // Sub-carrying sends are inter-LP events in flat-model terms, so a fused
    // cluster may legally address itself at ts == now() (one inner feeding a
    // sibling inner in the same delta phase); plain self-sends must still
    // strictly advance time or the pending queue never drains.
    assert((dst != rt_.id() || ts > now_ || sub != kInvalidLp) &&
           "self-sends must strictly advance virtual time");
    Event ev;
    ev.ts = ts;
    ev.src = rt_.id();
    ev.dst = dst;
    ev.sub = sub;
    ev.uid = (static_cast<EventUid>(rt_.id()) << 40) | (++rt_.send_seq_);
    ev.kind = kind;
    ev.payload = std::move(payload);
    sends_.push_back(std::move(ev));
  }

  [[nodiscard]] VirtualTime now() const override { return now_; }
  [[nodiscard]] LpId self() const override { return rt_.id(); }

  std::vector<Event>& sends() { return sends_; }

 private:
  LpRuntime& rt_;
  VirtualTime now_;
  std::vector<Event> sends_;
};

void LpRuntime::set_mode(SyncMode m) {
  if (m == SyncMode::kOptimistic && !lp_->can_save_state()) return;
  if (m != mode_) {
    if (m == SyncMode::kConservative) {
      ++demotions_;
      ++stats_.adapt_demotions;
    } else {
      ++stats_.adapt_promotions;
    }
    mode_ = m;
    ++stats_.mode_switches;
    stats_.final_optimistic = m == SyncMode::kOptimistic ? 1 : 0;
    // The flip starts a fresh evidentiary record: rates observed under the
    // old mode say nothing about behaviour under the new one.
    reset_adapt_rates();
  }
}

void LpRuntime::add_input_channel(LpId src) {
  in_clocks_.emplace(src, kTimeZero);
}

void LpRuntime::enqueue(Event ev, Router& router) {
  if (ev.kind == kNullMsgKind) {
    // Null message: advance the channel clock (monotonically).
    auto it = in_clocks_.find(ev.src);
    if (it != in_clocks_.end() && ev.ts > it->second) it->second = ev.ts;
    return;
  }
  // Real events on a channel also imply a promise: the sender will not send
  // anything earlier on this channel (FIFO channels, sender processes in
  // nondecreasing order once conservative).
  if (strategy_ == ConservativeStrategy::kNullMessage) {
    auto it = in_clocks_.find(ev.src);
    if (it != in_clocks_.end() && ev.ts > it->second) it->second = ev.ts;
  }

  if (ev.negative) {
    // 1. Matching positive still pending: annihilate both -- an O(1) lazy
    // deletion in the uid index (the old std::set paid a linear scan here).
    // Any undecided sends it generated in a previous execution can never be
    // regenerated.
    if (pending_.erase_uid(ev.uid)) {
      ++stats_.annihilations;
      stats_.queue_ops = pending_.ops();
      settle_lazy(ev.uid, router);
      return;
    }
    // 2. Matching positive already processed: roll back past it.  The
    // history only ever holds events processed *optimistically*, so this
    // is legal even if the LP has since been demoted to conservative mode.
    for (std::size_t i = 0; i < history_.size(); ++i) {
      if (history_[i].ev.uid == ev.uid) {
        rollback_to_position(i, router);
        // The cancelled event was re-pended by the rollback; remove it.
        pending_.erase_uid(ev.uid);
        ++stats_.annihilations;
        stats_.queue_ops = pending_.ops();
        settle_lazy(ev.uid, router);
        return;
      }
    }
    // 3. Positive not here yet (transient): stash.
    pending_negatives_.insert(ev.uid);
    return;
  }

  // Positive event.
  if (auto it = pending_negatives_.find(ev.uid); it != pending_negatives_.end()) {
    pending_negatives_.erase(it);
    ++stats_.annihilations;
    return;
  }
  // A straggler must undo speculative history even if the LP has since
  // been demoted to conservative mode: history only ever holds events
  // processed optimistically, so rolling them back never violates the
  // conservative no-rollback guarantee (conservatively processed events
  // commit immediately and never enter history).
  const bool straggler =
      ordering_ == OrderingMode::kArbitrary
          ? ev.ts < last_processed_ts()
          : ev.ts <= last_processed_ts() && !history_.empty();
  if (straggler && !history_.empty()) {
    rollback_for_straggler(ev.ts, router);
  }
  // GVT monotonicity guarantees no arrival below the committed frontier.
  assert(!(ev.ts < committed_ts_));
  pending_.push(std::move(ev));
  stats_.queue_ops = pending_.ops();
}

VirtualTime LpRuntime::next_ts() const { return pending_.min_ts(); }

VirtualTime LpRuntime::min_channel_clock() const {
  VirtualTime m = kTimeInf;
  for (const auto& [src, clock] : in_clocks_) m = std::min(m, clock);
  return m;
}

Eligibility LpRuntime::peek(VirtualTime global_safe_bound,
                            PhysTime until) const {
  if (pending_.empty()) return Eligibility::kIdle;
  const VirtualTime ts = pending_.top().ts;
  if (ts.pt > until) return Eligibility::kIdle;

  if (mode_ == SyncMode::kOptimistic) {
    if (max_history_ != 0 && history_.size() >= max_history_)
      return Eligibility::kBlocked;  // memory stall until fossil collection
    return Eligibility::kReady;
  }

  // Conservative.
  switch (strategy_) {
    case ConservativeStrategy::kGlobalSync:
      // Lookahead-free: events at or below the global bound are final under
      // the arbitrary ordering (equal timestamps commute by construction).
      return ts <= global_safe_bound ? Eligibility::kReady
                                     : Eligibility::kBlocked;
    case ConservativeStrategy::kNullMessage: {
      const VirtualTime clock = min_channel_clock();
      if (ts < clock) return Eligibility::kReady;
      // Under the arbitrary ordering the global bound still applies.
      if (ordering_ == OrderingMode::kArbitrary && ts <= global_safe_bound)
        return Eligibility::kReady;
      return Eligibility::kBlocked;
    }
  }
  return Eligibility::kBlocked;
}

double LpRuntime::process_next(Router& router) {
  assert(!pending_.empty());
  Event ev = pending_.pop_top();
  stats_.queue_ops = pending_.ops();

  CollectContext ctx(*this, ev.ts);
  const double cost = lp_->event_cost(ev);

  const EventUid gen_uid = ev.uid;
  if (mode_ == SyncMode::kOptimistic) {
    Processed rec;
    rec.pre_state = lp_->save_state();
    ++stats_.state_saves;
    lp_->simulate(ev, ctx);
    rec.ev = std::move(ev);
    rec.sends.reserve(ctx.sends().size());
    // Lazy cancellation: a regenerated message identical to an undecided
    // one is suppressed -- the receiver already holds it (under its old
    // uid, which the history must reference for future rollbacks).  The
    // queue is consulted regardless of the cancellation policy: checkpoint
    // capture defers undone sends here even under aggressive cancellation
    // (rollback_all_deferred), and those entries settle the same way.
    for (Event& s : ctx.sends()) {
      bool suppressed = false;
      if (!lazy_queue_.empty()) {
        for (auto it = lazy_queue_.begin(); it != lazy_queue_.end(); ++it) {
          if (same_message(it->ev, s)) {
            s.uid = it->ev.uid;
            lazy_queue_.erase(it);
            ++stats_.lazy_reuses;
            suppressed = true;
            break;
          }
        }
      }
      rec.sends.push_back({s});
      if (!suppressed) router.route(std::move(s));
    }
    history_.push_back(std::move(rec));
    stats_.max_history = std::max(stats_.max_history, history_.size());
  } else {
    lp_->simulate(ev, ctx);
    committed_ts_ = std::max(committed_ts_, ev.ts);
    ++stats_.events_committed;
    router.commit(ev);
    for (Event& s : ctx.sends()) router.route(std::move(s));
  }
  ++stats_.events_processed;
  ++window_events_;

  // Any of this event's previous sends that were not regenerated are now
  // known to be wrong: cancel them.
  settle_lazy(gen_uid, router);
  return cost;
}

void LpRuntime::rollback_to_position(std::size_t pos, Router& router) {
  assert(pos < history_.size());
  ++stats_.rollbacks;
  ++window_rollbacks_;
  for (std::size_t j = history_.size(); j-- > pos;) {
    Processed& rec = history_[j];
    for (SentRecord& sr : rec.sends) {
      if (lazy_) {
        // Defer the decision: the re-execution of rec.ev settles it.
        lazy_queue_.push_back({rec.ev.uid, std::move(sr.ev)});
      } else {
        Event anti = std::move(sr.ev);
        anti.negative = true;
        anti.payload = Payload{};  // anti-messages carry no payload
        ++stats_.anti_messages_sent;
        router.route(std::move(anti));
      }
    }
    ++stats_.events_undone;
    ++window_undone_;
    pending_.push(std::move(rec.ev));
  }
  stats_.queue_ops = pending_.ops();
  lp_->restore_state(*history_[pos].pre_state);
  history_.erase(history_.begin() + static_cast<std::ptrdiff_t>(pos),
                 history_.end());
}

void LpRuntime::settle_lazy(EventUid gen_uid, Router& router) {
  // Extract first, route second: routing an anti-message can cascade back
  // into this LP (rollback at the receiver -> anti-message to us ->
  // re-entrant enqueue), which may push or settle further lazy entries.
  std::vector<Event> cancels;
  for (std::size_t i = lazy_queue_.size(); i-- > 0;) {
    if (lazy_queue_[i].gen_uid != gen_uid) continue;
    cancels.push_back(std::move(lazy_queue_[i].ev));
    lazy_queue_.erase(lazy_queue_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  for (Event& anti : cancels) {
    anti.negative = true;
    anti.payload = Payload{};
    ++stats_.anti_messages_sent;
    ++stats_.lazy_cancels;
    router.route(std::move(anti));
  }
}

void LpRuntime::rollback_for_straggler(VirtualTime ts, Router& router) {
  // Arbitrary ordering: equal-timestamp events commute, so only strictly
  // later processed events must be undone.  User-consistent ordering must
  // also undo equal-timestamp events (they were processed "too early").
  std::size_t pos = history_.size();
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const bool undo = ordering_ == OrderingMode::kArbitrary
                          ? history_[i].ev.ts > ts
                          : history_[i].ev.ts >= ts;
    if (undo) {
      pos = i;
      break;
    }
  }
  if (pos < history_.size()) rollback_to_position(pos, router);
}

void LpRuntime::fossil_collect(VirtualTime gvt, Router& router) {
  // Keep entries with ts == gvt: a straggler or anti-message at exactly gvt
  // may still undo later events, and restoring their pre-state requires the
  // snapshot of the first strictly-later entry; entries below gvt are final.
  while (!history_.empty() && history_.front().ev.ts < gvt) {
    committed_ts_ = std::max(committed_ts_, history_.front().ev.ts);
    ++stats_.events_committed;
    router.commit(history_.front().ev);
    history_.pop_front();
  }
}

VirtualTime LpRuntime::null_promise() const {
  // Anything this LP will still process is bounded below by min(pending,
  // channel clocks); outputs additionally gain the LP's static
  // physical-time lookahead.
  const VirtualTime base = std::min(next_ts(), min_channel_clock());
  return base == kTimeInf ? kTimeInf : promise_from(base);
}

VirtualTime LpRuntime::promise_from(VirtualTime t) const {
  const PhysTime la = use_lookahead_ ? lp_->lookahead() : 0;
  return VirtualTime{t.pt + la, la > 0 ? 0 : t.lt};
}

std::size_t LpRuntime::rollback_all_deferred() {
  if (history_.empty()) return 0;
  const std::size_t n = history_.size();
  for (std::size_t j = history_.size(); j-- > 0;) {
    Processed& rec = history_[j];
    for (SentRecord& sr : rec.sends)
      lazy_queue_.push_back({rec.ev.uid, std::move(sr.ev)});
    pending_.push(std::move(rec.ev));
  }
  stats_.queue_ops = pending_.ops();
  lp_->restore_state(*history_.front().pre_state);
  history_.clear();
  // Not counted as rollbacks: this is checkpoint bookkeeping, and polluting
  // the window counters would skew the self-adaptation policy.
  stats_.checkpoint_undone += n;
  return n;
}

LpCheckpoint LpRuntime::make_checkpoint() const {
  assert(history_.empty() &&
         "speculation must be undone (rollback_all_deferred) before capture");
  LpCheckpoint ck;
  ck.state = lp_->save_state();
  ck.mode = mode_;
  ck.pinned_conservative = pinned_conservative_;
  ck.committed_ts = committed_ts_;
  ck.send_seq = send_seq_;
  // The heap's live entries in EventOrder: the exact sequence the old
  // std::set iterated, keeping the portable codec's byte format stable.
  ck.pending = pending_.sorted_events();
  ck.pending_negatives.assign(pending_negatives_.begin(),
                              pending_negatives_.end());
  ck.lazy.reserve(lazy_queue_.size());
  for (const LazyEntry& e : lazy_queue_) ck.lazy.emplace_back(e.gen_uid, e.ev);
  ck.in_clocks.assign(in_clocks_.begin(), in_clocks_.end());
  std::sort(ck.in_clocks.begin(), ck.in_clocks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return ck;
}

void LpRuntime::restore_from(const LpCheckpoint& ck) {
  if (ck.state) lp_->restore_state(*ck.state);
  // Direct assignment, not set_mode(): a recovery is not a mode switch.
  mode_ = ck.mode;
  stats_.final_optimistic = mode_ == SyncMode::kOptimistic ? 1 : 0;
  pinned_conservative_ = ck.pinned_conservative;
  committed_ts_ = ck.committed_ts;
  send_seq_ = ck.send_seq;
  history_.clear();
  pending_.assign(ck.pending);
  stats_.queue_ops = pending_.ops();
  pending_negatives_.clear();
  pending_negatives_.insert(ck.pending_negatives.begin(),
                            ck.pending_negatives.end());
  lazy_queue_.clear();
  lazy_queue_.reserve(ck.lazy.size());
  for (const auto& [gen_uid, ev] : ck.lazy) lazy_queue_.push_back({gen_uid, ev});
  in_clocks_.clear();
  for (const auto& [src, clock] : ck.in_clocks) in_clocks_.emplace(src, clock);
  reset_window();
  // Adaptation rates are controller scratch, not simulation state: restart
  // the evidentiary record rather than replicate it through checkpoints.
  reset_adapt_rates();
}

void LpRuntime::reset_window() {
  window_rollbacks_ = 0;
  window_events_ = 0;
  window_blocked_ = 0;
  window_memory_stalls_ = 0;
  window_undone_ = 0;
}

void LpRuntime::reset_adapt_rates() {
  waste_rate_ = 0.0;
  active_windows_ = 0;
  evidence_events_ = 0;
  blocked_since_flip_ = 0;
  stall_streak_ = 0;
}

void LpRuntime::fold_window(const AdaptPolicy& policy) {
  if (window_events_ > 0) {
    // Wasted-work fraction of this window: speculative events undone per
    // event processed.  Re-executions re-enter window_events_, so work that
    // is rolled back and redone is charged once, not twice -- the fraction
    // measures net waste, unlike a raw rollback count.
    const double waste =
        std::min(1.0, static_cast<double>(window_undone_) /
                          static_cast<double>(window_events_));
    waste_rate_ = active_windows_ == 0
                      ? waste
                      : waste_rate_ + policy.rate_alpha * (waste - waste_rate_);
    ++active_windows_;
    evidence_events_ += window_events_;
  }
  blocked_since_flip_ += window_blocked_;
  if (window_memory_stalls_ >= policy.min_window_events) {
    ++stall_streak_;
  } else {
    stall_streak_ = 0;
  }
  reset_window();
}


}  // namespace vsim::pdes
