#include "pdes/threaded.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "partition/rebalance.h"

namespace vsim::pdes {

/// Events processed per scheduler iteration (between mailbox drains and
/// outbox flushes).  Large enough to amortise the drain/poll/flush per
/// round, small enough that incoming mail and round requests are observed
/// promptly.
constexpr std::uint32_t kEventSlice = 16;
/// Consecutive empty iterations before a worker counts as idle.
constexpr std::uint32_t kIdleSpins = 16;

// The threaded engine's wire: an append to the SUBMITTING worker's
// per-destination outbox buffer.  The transport threading contract
// guarantees pkt.src is the submitting worker (data, acks and retransmits
// alike), so the append is single-writer and lock-free; the buffer reaches
// the destination's inbox as one batch at the next flush_outboxes().  It
// has no timing model, so the `now` stamp is ignored.
class ThreadedEngine::ThreadedWire final : public Transport {
 public:
  explicit ThreadedWire(ThreadedEngine& eng) : eng_(eng) {}

  void submit(Packet&& pkt, double /*now*/) override {
    Worker& from = *eng_.workers_[pkt.src];
    from.outbox[pkt.dst].push_back(std::move(pkt));
  }

  /// The wire "holds" whatever sits unflushed in the worker's outboxes;
  /// drain rounds reach this through ChannelStack::flush when no fault
  /// decorator is stacked in between (with one, the engine flushes
  /// explicitly -- FaultyTransport does not chain release_held).
  std::size_t release_held(std::uint32_t worker, double /*now*/) override {
    return eng_.flush_outboxes(worker);
  }

 private:
  ThreadedEngine& eng_;
};

class ThreadedEngine::ThreadedRouter final : public Router {
 public:
  ThreadedRouter(ThreadedEngine& eng, std::size_t wi) : eng_(eng), wi_(wi) {}

  [[nodiscard]] std::size_t worker() const { return wi_; }
  [[nodiscard]] double clock() const { return eng_.tnow(); }
  void charge_event(const LpRuntime&, double) {}

  void route(Event&& ev) override {
    const std::uint32_t owner = eng_.partition_[ev.dst];
    Worker& from = *eng_.workers_[wi_];
    const bool is_null = ev.kind == kNullMsgKind;
    eng_.count_send(from.stats, wi_, owner == wi_, ev);
    if (owner == wi_) {
      eng_.deliver(from, std::move(ev), *this);
      return;
    }
    VSIM_TRACE(if (eng_.trace_ != nullptr && !is_null) {
      const double t = eng_.tnow();
      eng_.trace_->instant(wi_, "net", ev.negative ? "send-anti" : "send", t,
                           ev.src);
      eng_.trace_->flow_out(wi_, trace_flow_id(ev), t);
    });
    eng_.net_->send(static_cast<std::uint32_t>(wi_), owner, std::move(ev),
                    eng_.now(wi_));
  }

  void commit(const Event& ev) override { eng_.commit(ev); }

 private:
  ThreadedEngine& eng_;
  std::size_t wi_;
};

ThreadedEngine::ThreadedEngine(LpGraph& graph, Partition partition,
                               RunConfig config)
    : EngineCore(graph, std::move(partition), config, validate(config),
                 config.num_workers) {
  if (config_error_) return;
  workers_.reserve(config_.num_workers);
  for (std::size_t i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->outbox.resize(config_.num_workers);
    workers_.back()->inbox.reset(config_.num_workers);
    workers_.back()->ready.reset(graph_.size());
  }
  for (LpId id = 0; id < graph_.size(); ++id)
    workers_[partition_[id]]->ready.add(id, lps_[id].next_ts());
  barrier_ = std::make_unique<RoundBarrier>(config_.num_workers);
  crashed_ = std::make_unique<std::atomic<bool>[]>(config_.num_workers);

  wire_ = std::make_unique<ThreadedWire>(*this);
  assemble_transport(*wire_, config_.num_workers);
  net_->set_deliver([this](std::uint32_t w, Event&& ev) {
    VSIM_TRACE(if (trace_ != nullptr && ev.kind != kNullMsgKind) {
      const double t = tnow();
      trace_->instant(w, "net", ev.negative ? "recv-anti" : "recv", t, ev.dst);
      trace_->flow_in(w, trace_flow_id(ev), t);
    });
    ThreadedRouter router(*this, w);
    // A null promise the round sweep sent can reach the previous owner of
    // an LP that the same round's rebalance migrated: pass it on.
    if (partition_[ev.dst] != w) {
      router.route(std::move(ev));
      return;
    }
    deliver(*workers_[w], std::move(ev), router);
  });
  open_trace("threaded");
}

ThreadedEngine::~ThreadedEngine() = default;

void ThreadedEngine::set_idle(Worker& w, bool idle) {
  if (w.idle == idle) return;
  w.idle = idle;
  if (idle)
    idle_workers_.fetch_add(1, std::memory_order_acq_rel);
  else
    idle_workers_.fetch_sub(1, std::memory_order_acq_rel);
}

std::size_t ThreadedEngine::flush_outboxes(std::size_t wi) {
  Worker& w = *workers_[wi];
  std::size_t flushed = 0;
  for (std::size_t dst = 0; dst < w.outbox.size(); ++dst) {
    std::vector<Packet>& buf = w.outbox[dst];
    if (buf.empty()) continue;
    const std::size_t n = buf.size();
    workers_[dst]->inbox.push_batch(static_cast<std::uint32_t>(wi), buf);
    flushed += n;
    metrics_.shard(wi).inc(obs::Metric::kMailboxBatches);
    metrics_.shard(wi).observe(obs::Hist::kBatchSize,
                               static_cast<double>(n));
  }
  return flushed;
}

std::size_t ThreadedEngine::drain_own_mailbox(std::size_t wi) {
  Worker& w = *workers_[wi];
  w.drain_buf.clear();
  const std::size_t n = w.inbox.drain(w.drain_buf);
  for (Packet& pkt : w.drain_buf)
    net_->on_wire_delivery(std::move(pkt), now(wi));
  w.drain_buf.clear();
  // One cumulative ack per link for the whole batch (the acks land in our
  // outboxes; the caller's next flush_outboxes publishes and counts them).
  if (n > 0) net_->flush_acks(static_cast<std::uint32_t>(wi), now(wi));
  return n;
}

void ThreadedEngine::worker_main(std::size_t wi) {
  Worker& w = *workers_[wi];
  std::uint32_t idle_spins = 0;
  // After every round a worker runs one event slice before it honours a
  // round another worker requested.  Without it, a worker that sees the
  // request at the top of its loop enters the next round having processed
  // nothing, and a descheduled busy worker turns into a string of empty
  // rounds that the stall counter reads as deadlock.
  bool owes_slice = true;

  while (!done_.load(std::memory_order_acquire)) {
    if (owes_slice || !round_requested_.load(std::memory_order_acquire)) {
      ++w.ops;
      // Safety-net flush: the end-of-iteration flush below publishes all of
      // this iteration's sends, so this is a no-op unless some round-phase
      // path left packets behind.  It stays so a send buffered anywhere can
      // linger at most one iteration.
      flush_outboxes(wi);
      const bool got_mail = drain_own_mailbox(wi) > 0;
      net_->poll(static_cast<std::uint32_t>(wi), now(wi));
      // Process a bounded slice of events per scheduling round, not one:
      // the drain/poll/flush overhead above amortises over the slice, and
      // remote sends accumulate into per-destination outboxes so the next
      // flush publishes them as a handful of batches.  The slice stays
      // bounded so mail keeps draining and round requests stay responsive.
      bool processed = false;
      bool crash_now = false;
      ThreadedRouter router(*this, wi);
      for (std::uint32_t slice = 0; slice < kEventSlice; ++slice) {
        if (!try_process_one(w, router)) break;
        processed = true;
        if (ft_on_ && crash_.fire(wi, w.stats.events)) {
          crash_now = true;
          break;
        }
        if (w.events_since_round >= config_.gvt_interval ||
            (!owes_slice && round_requested_.load(std::memory_order_acquire)))
          break;
      }
      owes_slice = false;
      if (crash_now) {
        // Crash-stop: raise the flag first (it must be visible to whoever
        // our leave() releases from a barrier), then withdraw and vanish.
        // No final fossil collection: this worker's state is lost.
        VSIM_TRACE(if (trace_ != nullptr) {
          trace_->instant(wi, "ckpt", "crash", tnow());
        });
        crashed_[wi].store(true, std::memory_order_release);
        crash_count_.fetch_add(1, std::memory_order_relaxed);
        set_idle(w, true);  // a dead worker never blocks the all-idle rule
        round_requested_.store(true, std::memory_order_release);
        barrier_->leave();
        return;
      }
      // Publish everything this iteration generated -- slice sends, acks
      // emitted while draining, retransmits from poll -- as one batch per
      // destination before yielding the core.  Flushing here rather than at
      // the top of the next iteration lets a receiver that runs next pick
      // the batch up immediately, which matters for latency-bound chains.
      // A crashed worker never reaches this point: its unflushed sends are
      // lost with it, matching the crash-stop model.
      flush_outboxes(wi);
      if (processed || got_mail) {
        idle_spins = 0;
        set_idle(w, false);
      } else if (++idle_spins > kIdleSpins) {
        // Idle long enough.  Force a synchronisation round only when GVT
        // is what this worker waits for -- it has parked LPs -- or when
        // every live worker is idle, so termination and deadlock detection
        // still make progress.  Otherwise some worker is busy and its own
        // gvt_interval rounds advance GVT; forcing rounds here would only
        // stall it at barriers.  Workers yield rather than block between
        // iterations: handoff gaps in event-parallel workloads are far
        // shorter than a sleep/wake round trip.
        set_idle(w, true);
        if (w.ready.parked_count() > 0 ||
            idle_workers_.load(std::memory_order_acquire) == workers_.size())
          round_requested_.store(true, std::memory_order_release);
        else
          std::this_thread::yield();
      } else {
        std::this_thread::yield();
      }
      if (w.events_since_round >= config_.gvt_interval)
        round_requested_.store(true, std::memory_order_release);
      continue;
    }

    // ---- Synchronisation round (DESIGN.md "GVT round pipeline") ----
    // Every step that needs the other workers held runs as the completion
    // of the barrier that ends a phase, on its last arriver: a round is the
    // stop barrier, one barrier per drain pass, and the end barrier.
    idle_spins = 0;
    double round_start = 0.0;
    VSIM_TRACE(if (trace_ != nullptr) round_start = tnow());
    barrier_->arrive_and_wait();  // everyone stops sending new work
    // The participant set and the crash flags are frozen from here to the
    // end of the round: crashes happen only in the work phase, and a worker
    // that crashed before this barrier completed raised its flag before its
    // leave() -- so every participant computes the same coordinator and the
    // same crash_pending verdict below.
    const std::size_t coord = ft_on_ ? first_live_worker() : 0;
    const bool crash_pending = ft_on_ && any_crashed_unretired();
    if (crash_pending) {
      // No drain: in-flight traffic to the dead worker can never be
      // acknowledged, so draining would only burn the retransmission budget
      // before recovery gets to discard the timeline anyway.
      barrier_->arrive_and_wait([&] { coordinator_round(coord, true); });
    } else {
      // Drain the network to a fixed point (anti-message cascades
      // included).  A pass is quiet when no worker published a packet
      // during it: outbox flushes (sends, acks, retransmits) and packets
      // the transport stack pushed back onto the wire (forced retransmits
      // of unacked data, reorder holdbacks).  Drained packets do not count:
      // a delivery that needs more traffic -- an anti-message, an ack, a
      // retransmit -- publishes it in the same pass, and everything
      // published before a pass barrier is drained in the pass after it.
      // So a round whose work-phase traffic settles without a cascade
      // needs one pass.  Every worker adds its count before it arrives, so
      // the pass barrier's completion reads the whole pass and resets the
      // sum for the next.
      do {
        // Publish own buffered sends before draining, and again after the
        // flush (acks and retransmits land in the outboxes).  The explicit
        // calls matter under fault injection, where ChannelStack::flush's
        // release_held stops at the FaultyTransport decorator and never
        // reaches the wire.
        std::size_t n = flush_outboxes(wi);
        drain_own_mailbox(wi);
        n += net_->flush(static_cast<std::uint32_t>(wi), now(wi));
        n += flush_outboxes(wi);
        published_in_pass_.fetch_add(n, std::memory_order_relaxed);
        barrier_->arrive_and_wait([&] {
          pass_empty_ =
              published_in_pass_.exchange(0, std::memory_order_relaxed) == 0;
          if (pass_empty_) coordinator_round(coord, false);
        });
      } while (!pass_empty_);
      // Each worker sweeps its own dirty and due LPs as its own adaptation
      // scope; for any other LP the visit is a no-op, so the sweep costs
      // O(activity + commits), not O(owned).  A stopping round commits
      // everything.
      ThreadedRouter router(*this, wi);
      settle_credits(w.ready);
      const VirtualTime gvt =
          done_.load(std::memory_order_acquire) ? kTimeInf : safe_bound_;
      w.ready.take_due(gvt);
      w.ready.take_dirty(w.sweep);
      sweep(w.sweep, w.ready.size(), gvt, router,
            [&](LpId) { return SweepTarget{w.ready, true}; });
      // The end barrier: every sweep finished, so a due rebalance can move
      // any LP; releasing the workers publishes the new mapping to their
      // routers.
      barrier_->arrive_and_wait([&] {
        if (verdict_.rebalance && !verdict_.stop) coordinator_rebalance(coord);
      });
      w.ready.rearm();  // the new bound may unblock any
    }
    w.events_since_round = 0;
    owes_slice = true;
    VSIM_TRACE(if (trace_ != nullptr) {
      trace_->complete(wi, "gvt", "gvt", round_start, tnow() - round_start);
    });
    (void)round_start;
  }

  // Final commit of any remaining history.  A failed run must not commit
  // past the last validated frontier (failed_ is ordered by the done_
  // release/acquire pair that ended the loop).
  if (failed_) return;
  ThreadedRouter router(*this, wi);
  for (LpId lp = 0; lp < lps_.size(); ++lp)
    if (partition_[lp] == wi) lps_[lp].fossil_collect(kTimeInf, router);
}

std::size_t ThreadedEngine::first_live_worker() const {
  for (std::size_t w = 0; w < workers_.size(); ++w)
    if (!worker_dead(w)) return w;
  return 0;  // unreachable: the caller is itself a live worker
}

bool ThreadedEngine::any_crashed_unretired() const {
  for (std::size_t w = 0; w < workers_.size(); ++w)
    if (crashed_[w].load(std::memory_order_acquire) && !retired_[w])
      return true;
  return false;
}

void ThreadedEngine::coordinator_round(std::size_t coord, bool crash_pending) {
  ++gvt_rounds_;
  metrics_.shard(coord).inc(obs::Metric::kGvtRounds);
  gate_.begin_round();
  if (crash_pending) {
    verdict_ = RoundVerdict{};
    double rec_start = 0.0;
    VSIM_TRACE(if (trace_ != nullptr) rec_start = tnow());
    const std::uint32_t rec0 = recoveries_;
    if (coordinator_recover())
      round_requested_.store(false, std::memory_order_release);
    // on failure coordinator_recover() already set done_
    VSIM_TRACE(if (trace_ != nullptr && recoveries_ != rec0) {
      trace_->complete(coord, "ckpt", "recovery", rec_start,
                       tnow() - rec_start);
    });
    (void)rec0;
    (void)rec_start;
  } else {
    coordinator_verdict(coord);
  }
  // Safe merge point: every other worker is held at the barrier.
  metrics_.merge();
}

void ThreadedEngine::coordinator_verdict(std::size_t coord) {
  // The two-level GVT reduction over the live workers.  Each worker's leg
  // reads its heap top and its parked keys, so the scan-items metric grows
  // with the blocked-LP count, not with the owned count.
  VirtualTime gvt = kTimeInf;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (worker_dead(i)) continue;
    const ReadyQueue& q = workers_[i]->ready;
    gvt = std::min(gvt, q.min_key());
    metrics_.shard(i).inc(obs::Metric::kGvtScanItems,
                          (q.empty() ? 0 : 1) + q.parked_count());
  }
  safe_bound_ = gvt;
  std::uint64_t total_events = 0;
  for (const auto& worker : workers_) total_events += worker->stats.events;
  // The reliable layer giving up on a link unwinds the run with the error.
  transport_failed_ = net_->error().has_value();
  verdict_ = gate_.judge(gvt, total_events, transport_failed_);
  if (verdict_.deadlock) {
    deadlocked_ = true;
    // All other workers are held at the barrier, so reading their LPs here
    // is race-free.
    deadlock_report_ = deadlock_report(gvt);
  }
  if (verdict_.stop) {
    done_.store(true, std::memory_order_release);
    return;
  }
  if (verdict_.checkpoint) {
    double ck_start = 0.0;
    VSIM_TRACE(if (trace_ != nullptr) ck_start = tnow());
    // Steps 1-3 for every worker's LPs at once; the workers' own sweeps
    // then find these credits settled and these LPs collected.
    for (auto& wp : workers_) settle_credits(wp->ready);
    ThreadedRouter router(*this, coord);
    undo_speculation(all_lps_, gvt, router, [&](LpId lp) {
      workers_[partition_[lp]]->ready.update(lp, lps_[lp].next_ts());
    });
    store_checkpoint(gvt);
    VSIM_TRACE(if (trace_ != nullptr) {
      trace_->complete(coord, "ckpt", "checkpoint", ck_start,
                       tnow() - ck_start);
    });
    (void)ck_start;
  }
  round_requested_.store(false, std::memory_order_release);
}

void ThreadedEngine::coordinator_rebalance(std::size_t coord) {
  const partition::RebalancePlan plan = plan_rebalance(coord);
  if (plan.empty()) return;
  double lb_start = 0.0;
  VSIM_TRACE(if (trace_ != nullptr) lb_start = tnow());
  ThreadedRouter router(*this, coord);
  for (const partition::Migration& mv : plan.moves) {
    migrate_lp(mv.lp, workers_[mv.from]->ready, mv.to, workers_[mv.to]->ready,
               safe_bound_, router);
    metrics_.shard(coord).inc(obs::Metric::kMigrations);
    VSIM_TRACE(if (trace_ != nullptr) {
      trace_->instant(coord, "lb", "migrate", tnow(), mv.lp, "to",
                      static_cast<std::int64_t>(mv.to));
    });
  }
  VSIM_TRACE(if (trace_ != nullptr) {
    trace_->complete(coord, "lb", "rebalance", lb_start, tnow() - lb_start,
                     obs::kNoTraceLp, "moves",
                     static_cast<std::int64_t>(plan.moves.size()));
  });
  (void)lb_start;
}

bool ThreadedEngine::coordinator_recover() {
  std::uint32_t first_dead = 0;
  if (!heartbeat_due(
          [&](std::size_t w) {
            return crashed_[w].load(std::memory_order_acquire);
          },
          &first_dead))
    return true;
  // A dead thread cannot be respawned: the lost workers' LPs are
  // redistributed over the survivors.
  const Checkpoint* ck = recovery_point(first_dead);
  if (ck != nullptr)
    for (std::size_t w = 0; w < workers_.size(); ++w)
      if (crashed_[w].load(std::memory_order_acquire)) retired_[w] = true;
  if (ck == nullptr || !redistribute(orphan_work(), first_dead)) {
    done_.store(true, std::memory_order_release);
    return false;
  }
  restore(*ck);
  for (auto& wp : workers_) {
    // In-flight packets belong to the abandoned timeline: published batches
    // and unflushed producer buffers alike.  Every surviving worker is
    // held at the barrier, so touching their mailboxes here is race-free.
    wp->inbox.clear();
    for (auto& buf : wp->outbox) buf.clear();
    wp->events_since_round = 0;
    wp->ready.reset(lps_.size());
  }
  for (LpId id = 0; id < lps_.size(); ++id)
    workers_[partition_[id]]->ready.add(id, lps_[id].next_ts());
  return true;
}

RunStats ThreadedEngine::run() {
  RunStats out;
  if (config_error_) {
    out.config_error = config_error_;
    return out;
  }
  seed_initial_events();
  for (const Event& ev : graph_.initial_events())
    workers_[partition_[ev.dst]]->ready.update(ev.dst,
                                                lps_[ev.dst].next_ts());
  // Round-zero baseline, taken before any thread starts: recovery always
  // has a line to rewind to, even when the first crash precedes the first
  // periodic checkpoint.
  if (ft_on_) store_checkpoint(kTimeZero);

  trace_epoch_ = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(config_.num_workers);
  for (std::size_t wi = 0; wi < config_.num_workers; ++wi)
    threads.emplace_back([this, wi] { worker_main(wi); });
  for (std::thread& t : threads) t.join();

  if (ft_on_ && crash_count_.load(std::memory_order_acquire) > 0 &&
      !recovery_error_ && !done_.load(std::memory_order_acquire)) {
    // Every thread exited via crash-stop before any surviving coordinator
    // could run a round: there is nobody left to recover.
    std::uint32_t first_dead = 0;
    while (!crashed_[first_dead].load(std::memory_order_acquire)) ++first_dead;
    fail_recovery(first_dead, "all workers crashed");
  }

  metrics_.shard(0).inc(obs::Metric::kRoundBarriers, barrier_->generations());
  fill_run_stats(out);
  for (const auto& w : workers_) out.per_worker.push_back(w->stats);
  out.deadlock_report = deadlock_report_;
  out.checkpoint.crashes = crash_count_.load(std::memory_order_acquire);
  // Buffered commits are flushed even on a failed run: everything in the
  // buffers was validated by a GVT round, only never released.
  flush_commits();
  finish_metrics(out);
  return out;
}

}  // namespace vsim::pdes
