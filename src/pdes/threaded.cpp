#include "pdes/threaded.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
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

// Reusable cyclic barrier (std::barrier lacks a default constructor and we
// want a stable address across rounds).
class RoundBarrier {
 public:
  explicit RoundBarrier(std::size_t n) : n_(n) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(m_);
    const std::uint64_t gen = gen_;
    if (++count_ == n_) {
      count_ = 0;
      ++gen_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return gen_ != gen; });
    }
  }

  /// Permanently withdraws one participant (crash-stop).  If everyone else
  /// already arrived, the leaver completes the waiting generation.
  void leave() {
    std::lock_guard<std::mutex> lock(m_);
    --n_;
    if (n_ > 0 && count_ == n_) {
      count_ = 0;
      ++gen_;
      cv_.notify_all();
    }
  }

 private:
  std::size_t n_;
  std::size_t count_ = 0;
  std::uint64_t gen_ = 0;
  std::mutex m_;
  std::condition_variable cv_;
};

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

  void route(Event&& ev) override {
    const std::uint32_t owner = eng_.partition_[ev.dst];
    Worker& from = *eng_.workers_[wi_];
    if (owner == wi_) {
      ++from.stats.messages_sent_local;
      eng_.metrics_.shard(wi_).inc(obs::Metric::kMessagesLocal);
      eng_.deliver(wi_, std::move(ev));
    } else {
      const bool is_null = ev.kind == kNullMsgKind;
      if (is_null) {
        ++from.stats.null_messages;
        eng_.metrics_.shard(wi_).inc(obs::Metric::kNullMessages);
      } else {
        ++from.stats.messages_sent_remote;
        eng_.metrics_.shard(wi_).inc(obs::Metric::kMessagesRemote);
      }
      VSIM_TRACE(if (eng_.trace_ != nullptr && !is_null) {
        const double t = eng_.tnow();
        eng_.trace_->instant(wi_, "net",
                             ev.negative ? "send-anti" : "send", t, ev.src);
        eng_.trace_->flow_out(wi_, trace_flow_id(ev), t);
      });
      eng_.net_->send(static_cast<std::uint32_t>(wi_), owner, std::move(ev),
                      eng_.now(wi_));
    }
  }

  void commit(const Event& ev) override {
    if (!eng_.hook_) return;
    if (eng_.ft_on_)
      eng_.commit_buf_[ev.dst].push_back(ev);
    else
      eng_.hook_(ev);
  }

 private:
  ThreadedEngine& eng_;
  std::size_t wi_;
};

ThreadedEngine::ThreadedEngine(LpGraph& graph, Partition partition,
                               RunConfig config)
    : graph_(graph), partition_(std::move(partition)), config_(config) {
  config_error_ = validate(config_);
  if (config_error_) return;  // run() surfaces the error without starting
  assert(partition_.size() == graph_.size());
  lps_.reserve(graph_.size());
  last_promise_.assign(graph_.size(), kTimeZero);
  lb_events_base_.assign(graph_.size(), 0);
  lb_undone_base_.assign(graph_.size(), 0);
  workers_.reserve(config_.num_workers);
  for (std::size_t i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->outbox.resize(config_.num_workers);
    workers_.back()->inbox.reset(config_.num_workers);
    workers_.back()->ready.reset(graph_.size());
  }
  for (LpId id = 0; id < graph_.size(); ++id) {
    lps_.emplace_back(&graph_.lp(id), config_.ordering, config_.strategy,
                      initial_mode(config_.configuration, graph_.lp(id)),
                      config_.max_history, config_.use_lookahead,
                      config_.cancellation);
    if (config_.strategy == ConservativeStrategy::kNullMessage) {
      for (LpId src : graph_.fan_in(id)) lps_[id].add_input_channel(src);
    }
    const std::uint32_t w = partition_[id];
    assert(w < workers_.size());
    workers_[w]->ready.add(id, lps_[id].next_ts());
  }
  barrier_ = std::make_unique<RoundBarrier>(config_.num_workers);

  // Assemble the transport stack bottom-up: wire -> (faults) -> channel.
  wire_ = std::make_unique<ThreadedWire>(*this);
  Transport* top = wire_.get();
  if (config_.transport.faults.active()) {
    faulty_ = std::make_unique<FaultyTransport>(*wire_, config_.num_workers,
                                                config_.transport.faults);
    top = faulty_.get();
  }
  net_ = std::make_unique<ChannelStack>(*top, config_.num_workers,
                                        config_.transport);
  if (faulty_) net_->attach_faulty(faulty_.get());
  net_->set_deliver([this](std::uint32_t w, Event&& ev) {
    VSIM_TRACE(if (trace_ != nullptr && ev.kind != kNullMsgKind) {
      const double t = tnow();
      trace_->instant(w, "net", ev.negative ? "recv-anti" : "recv", t, ev.dst);
      trace_->flow_in(w, trace_flow_id(ev), t);
    });
    deliver(w, std::move(ev));
  });

  ft_on_ = config_.checkpoint.period > 0 ||
           config_.transport.faults.crash_active();
  crashed_ = std::make_unique<std::atomic<bool>[]>(config_.num_workers);
  retired_.assign(config_.num_workers, false);
  missed_heartbeats_.assign(config_.num_workers, 0);
  crash_rng_.resize(config_.num_workers);
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    // Distinct multiplier from the links' fault RNG so crash draws never
    // correlate with wire faults under the same seed.
    crash_rng_[w] =
        splitmix64(config_.transport.faults.seed * 0x20003u + w + 1);
    if (crash_rng_[w] == 0) crash_rng_[w] = 1;
  }
  if (ft_on_) {
    commit_buf_.resize(graph_.size());
    store_ = CheckpointStore(config_.checkpoint.keep,
                             config_.checkpoint.spill_dir);
  }

  metrics_ = obs::MetricsRegistry(config_.num_workers);
  VSIM_TRACE({
    trace_ = config_.trace;
    if (trace_ == nullptr) {
      if (obs::Tracer* t = obs::Tracer::from_env()) {
        trace_own_ = t->session("threaded", config_.num_workers);
        trace_ = trace_own_.get();
      }
    }
    if (trace_ != nullptr) {
      trace_->set_default_lp_labels(
          [this](std::uint32_t id) { return graph_.lp(id).name(); });
    }
  });
}

ThreadedEngine::~ThreadedEngine() = default;

void ThreadedEngine::refresh_key(std::size_t wi, LpId lp) {
  workers_[wi]->ready.update(lp, lps_[lp].next_ts());
}

void ThreadedEngine::credit_parked(std::size_t wi, LpId lp) {
  if (const std::uint64_t n = workers_[wi]->ready.take_credit(lp))
    lps_[lp].note_blocked(n);
}

void ThreadedEngine::set_idle(Worker& w, bool idle) {
  if (w.idle == idle) return;
  w.idle = idle;
  if (idle)
    idle_workers_.fetch_add(1, std::memory_order_acq_rel);
  else
    idle_workers_.fetch_sub(1, std::memory_order_acq_rel);
}

void ThreadedEngine::deliver(std::size_t wi, Event ev) {
  const LpId dst = ev.dst;
  assert(partition_[dst] == wi);
  const bool is_null = ev.kind == kNullMsgKind;
  // Rollback detection via counter deltas around enqueue() (the only entry
  // point that can trigger one); dst is owned by wi, so the reads are
  // single-threaded.
  const std::uint64_t rb0 = lps_[dst].stats().rollbacks;
  const std::uint64_t un0 = lps_[dst].stats().events_undone;
  // Credit before enqueue: a rollback may shrink the history, which changes
  // how note_blocked() classifies the polls the LP sat out.
  credit_parked(wi, dst);
  ThreadedRouter router(*this, wi);
  lps_[dst].enqueue(std::move(ev), router);
  if (lps_[dst].stats().rollbacks != rb0) {
    const std::uint64_t undone = lps_[dst].stats().events_undone - un0;
    metrics_.shard(wi).observe(obs::Hist::kRollbackDepth,
                               static_cast<double>(undone));
    VSIM_TRACE(if (trace_ != nullptr) {
      trace_->instant(wi, "tw", "rollback", tnow(), dst, "undone",
                      static_cast<std::int64_t>(undone));
    });
  }
  refresh_key(wi, dst);
  if (is_null && config_.strategy == ConservativeStrategy::kNullMessage)
    send_null_messages_for(wi, dst);
}

void ThreadedEngine::send_null_messages_for(std::size_t wi, LpId lp) {
  const VirtualTime promise = lps_[lp].null_promise();
  if (!(promise > last_promise_[lp])) return;
  last_promise_[lp] = promise;
  ThreadedRouter router(*this, wi);
  for (LpId dst : graph_.fan_out(lp)) {
    Event n;
    n.ts = promise;
    n.src = lp;
    n.dst = dst;
    n.kind = kNullMsgKind;
    router.route(std::move(n));
  }
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

bool ThreadedEngine::try_process_one(std::size_t wi) {
  Worker& w = *workers_[wi];
  // Pop owned LPs in ascending (next_ts, lp) order off the worker's ready
  // heap.  A blocked LP parks until a delivery or the next round re-arms it,
  // so each pass costs O(log n) per LP it touches, not a walk of `owned`.
  ReadyQueue& q = w.ready;
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
    ThreadedRouter router(*this, wi);
    double exec_start = 0.0;
    VSIM_TRACE(if (trace_ != nullptr) exec_start = tnow());
    const double cost = lps_[lp].process_next(router);
    w.stats.busy_cost += cost;
    ++w.stats.events;
    ++w.events_since_round;
    metrics_.shard(wi).inc(obs::Metric::kEventsProcessed);
    VSIM_TRACE(if (trace_ != nullptr) {
      trace_->complete(wi, "execute", to_string(ts.phase()), exec_start,
                       tnow() - exec_start, lp, "pt",
                       static_cast<std::int64_t>(ts.pt));
    });
    refresh_key(wi, lp);
    if (config_.strategy == ConservativeStrategy::kNullMessage)
      send_null_messages_for(wi, lp);
    return true;
  }
  return false;
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
      for (std::uint32_t slice = 0; slice < kEventSlice; ++slice) {
        if (!try_process_one(wi)) break;
        processed = true;
        // Crash draws advance per processed event (exact-count schedules).
        if (ft_on_ && maybe_crash(wi)) {
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

    // ---- Synchronisation round ----
    idle_spins = 0;
    double round_start = 0.0;
    VSIM_TRACE(if (trace_ != nullptr) round_start = tnow());
    barrier_->arrive_and_wait();  // everyone stops sending new work
    // The participant set and the crash flags are frozen from here to the
    // end of the round: crashes happen only in the work phase, and a worker
    // that crashed before this barrier completed performed its leave()
    // under the barrier mutex first -- so every participant computes the
    // same coordinator and the same crash_pending verdict below.
    const std::size_t coord = ft_on_ ? first_live_worker() : 0;
    const bool crash_pending = ft_on_ && any_crashed_unretired();
    if (!crash_pending) {
      // Drain the network to a fixed point (anti-message cascades
      // included).  Three barriers per pass: reset -> add -> read, so that
      // no worker can observe the next pass's reset while another still
      // reads this pass.  Drain-until-quiet: a pass counts both delivered
      // packets and packets the transport stack pushed back onto the wire
      // (retransmissions of unacked data, reorder holdbacks); the network
      // is only quiescent once a full pass moves nothing anywhere.
      for (;;) {
        if (wi == coord) drained_in_pass_.store(0, std::memory_order_relaxed);
        barrier_->arrive_and_wait();
        // Publish own buffered sends before draining, and again after the
        // flush (retransmits land in the outboxes): both are counted, so
        // the pass loop cannot declare quiescence while a packet still
        // sits in a producer buffer.  The explicit calls matter under
        // fault injection, where ChannelStack::flush's release_held stops
        // at the FaultyTransport decorator and never reaches the wire.
        std::size_t n = flush_outboxes(wi);
        n += drain_own_mailbox(wi);
        n += net_->flush(static_cast<std::uint32_t>(wi), now(wi));
        n += flush_outboxes(wi);
        drained_in_pass_.fetch_add(n, std::memory_order_relaxed);
        barrier_->arrive_and_wait();
        const bool empty =
            drained_in_pass_.load(std::memory_order_relaxed) == 0;
        barrier_->arrive_and_wait();
        if (empty) break;
      }
      // Local minimum over owned LPs: the per-worker leg of the two-level
      // GVT reduction (the coordinator merges P candidates).  It reads the
      // heap top and the parked keys, so the scan-items metric grows with
      // the blocked-LP count, not with the owned count.
      const VirtualTime local_min = w.ready.min_key();
      metrics_.shard(wi).inc(obs::Metric::kGvtScanItems,
                             (w.ready.empty() ? 0 : 1) +
                                 w.ready.parked_count());
      {
        std::lock_guard<std::mutex> lock(gvt_mutex_);
        gvt_candidate_ = std::min(gvt_candidate_, local_min);
      }
    }
    // With a crash pending the drain is skipped entirely: in-flight
    // traffic to the dead worker can never be acknowledged, so draining
    // would only burn the retransmission budget before recovery gets to
    // discard the timeline anyway.
    barrier_->arrive_and_wait();
    if (wi == coord) {
      ++gvt_rounds_;
      metrics_.shard(wi).inc(obs::Metric::kGvtRounds);
      if (crash_pending) {
        double rec_start = 0.0;
        VSIM_TRACE(if (trace_ != nullptr) rec_start = tnow());
        const std::uint32_t rec0 = recoveries_;
        if (coordinator_recover())
          round_requested_.store(false, std::memory_order_release);
        // on failure coordinator_recover() already set done_
        VSIM_TRACE(if (trace_ != nullptr && recoveries_ != rec0) {
          trace_->complete(wi, "ckpt", "recovery", rec_start,
                           tnow() - rec_start);
        });
      } else {
        const VirtualTime gvt = gvt_candidate_;
        gvt_candidate_ = kTimeInf;
        safe_bound_ = gvt;
        std::uint64_t total_events = 0;
        for (const auto& worker : workers_)
          total_events += worker->stats.events;
        bool stop = false;
        if (net_->error()) {
          // The reliable layer gave up on a link: unwind with the error.
          transport_failed_ = true;
          stop = true;
        } else if (gvt == kTimeInf || gvt.pt > config_.until) {
          stop = true;
        } else if (gvt == last_gvt_ && total_events == last_total_events_) {
          if (++stall_rounds_ >= config_.deadlock_rounds) {
            deadlocked_ = true;
            // All other workers are parked at the next barrier, so reading
            // their LPs here is race-free.
            deadlock_report_ = build_deadlock_report(gvt);
            stop = true;
          }
        } else {
          stall_rounds_ = 0;
        }
        last_gvt_ = gvt;
        last_total_events_ = total_events;
        if (stop) {
          done_.store(true, std::memory_order_release);
        } else {
          // Gated on GVT progress: a same-frontier capture is redundant and
          // its rollback-all can pin GVT via re-execution (see the machine
          // engine's periodic-capture comment).  The counter stays
          // accumulated so the capture retries once the frontier moves.
          if (ft_on_ && config_.checkpoint.period > 0 &&
              ++rounds_since_ckpt_ >= config_.checkpoint.period &&
              gvt > last_ckpt_gvt_) {
            rounds_since_ckpt_ = 0;
            last_ckpt_gvt_ = gvt;
            double ck_start = 0.0;
            VSIM_TRACE(if (trace_ != nullptr) ck_start = tnow());
            coordinator_checkpoint(wi, gvt);
            VSIM_TRACE(if (trace_ != nullptr) {
              trace_->complete(wi, "ckpt", "checkpoint", ck_start,
                               tnow() - ck_start);
            });
          }
          // Dynamic load balancing, after the (optional) capture: the
          // network is quiescent and everyone else is parked, so ownership
          // can change hands with nothing in flight under the old mapping.
          if (config_.rebalance.enabled() &&
              ++rounds_since_rebalance_ >= config_.rebalance.period) {
            rounds_since_rebalance_ = 0;
            coordinator_rebalance(wi);
          }
          round_requested_.store(false, std::memory_order_release);
        }
      }
      // Safe merge point: every other worker is parked at the barrier below,
      // so no shard is being written.
      metrics_.merge();
    }
    barrier_->arrive_and_wait();
    if (!crash_pending) {
      // Fossil collect and adapt under the new GVT.  Each worker is its own
      // adaptation scope: the demotion budget drains in ascending LP id,
      // independent of the other threads' progress.  Only dirty LPs are
      // visited (ReadyQueue::take_dirty): for any other LP the visit is a
      // no-op, so the sweep costs O(activity), not O(owned).
      const VirtualTime gvt = safe_bound_;
      ThreadedRouter router(*this, wi);
      AdaptController adapt(config_.adapt, config_.num_workers);
      adapt.begin_round(w.ready.size());
      // Parked LPs' blocked polls land before adapt() reads them.
      w.ready.settle_credits(
          [&](LpId lp, std::uint64_t n) { lps_[lp].note_blocked(n); });
      w.ready.take_dirty(w.sweep);
      for (const LpId lp : w.sweep) {
        lps_[lp].fossil_collect(done_ ? kTimeInf : gvt, router);
        bool deferred = false;
        if (config_.configuration == Configuration::kDynamic) {
          const AdaptDecision d = adapt.adapt(lps_[lp]);
          deferred = d.action == AdaptAction::kDeferred;
          if (deferred) metrics_.shard(wi).inc(obs::Metric::kAdaptDeferrals);
          VSIM_TRACE(if (trace_ != nullptr && d.action != AdaptAction::kNone) {
            trace_->instant(wi, "adapt", to_string(d.action), tnow(), lp,
                            "waste_pct",
                            static_cast<std::int64_t>(d.waste_rate * 100.0));
          });
        } else {
          lps_[lp].reset_window();
        }
        if (config_.strategy == ConservativeStrategy::kNullMessage)
          send_null_messages_for(wi, lp);
        if (lps_[lp].round_visit_pending() || deferred) w.ready.touch(lp);
      }
      metrics_.shard(wi).inc(obs::Metric::kRoundLpVisits, w.sweep.size());
      w.ready.rearm();  // the new bound may unblock every parked LP
    }
    w.events_since_round = 0;
    owes_slice = true;
    barrier_->arrive_and_wait();
    VSIM_TRACE(if (trace_ != nullptr) {
      trace_->complete(wi, "gvt", "gvt", round_start, tnow() - round_start);
    });
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

bool ThreadedEngine::maybe_crash(std::size_t wi) {
  const FaultPlan& plan = config_.transport.faults;
  const Worker& w = *workers_[wi];
  bool die = false;
  for (const WorkerCrash& c : plan.crashes) {
    // Exact match on the cumulative event count: monotone, so a crash
    // point replayed after recovery does not re-fire.
    if (c.worker == wi && c.after_events == w.stats.events) die = true;
  }
  // The draw advances on every processed event whether or not it kills, so
  // the crash schedule is a pure function of the seed (and is deliberately
  // NOT restored from checkpoints: a restored cursor would re-roll the
  // same crash forever).
  if (plan.crash_rate > 0 &&
      xorshift_uniform(crash_rng_[wi]) < plan.crash_rate)
    die = true;
  return die;
}

bool ThreadedEngine::coordinator_recover() {
  bool due = false;
  std::uint32_t first_dead = 0;
  bool have_dead = false;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!crashed_[w].load(std::memory_order_acquire) || retired_[w]) continue;
    if (!have_dead) {
      first_dead = static_cast<std::uint32_t>(w);
      have_dead = true;
    }
    if (++missed_heartbeats_[w] >= config_.checkpoint.heartbeat_rounds)
      due = true;
  }
  if (!due) return true;
  const auto fail = [&](std::string message) {
    recovery_error_ =
        RecoveryError{first_dead, gvt_rounds_, recoveries_, std::move(message)};
    failed_ = true;
    done_.store(true, std::memory_order_release);
    return false;
  };
  if (recoveries_ >= config_.checkpoint.max_recoveries)
    return fail("recovery budget exhausted (max_recoveries)");
  const Checkpoint* ck = store_.latest();
  if (ck == nullptr) return fail("no checkpoint available");

  // A dead thread cannot be respawned, so both policies redistribute the
  // lost workers' LPs over the survivors -- with the load-balancer's
  // load/cut-aware placement (partition/rebalance.h), not round-robin.
  for (std::size_t w = 0; w < workers_.size(); ++w)
    if (crashed_[w].load(std::memory_order_acquire)) retired_[w] = true;
  std::vector<bool> alive(workers_.size());
  bool any_alive = false;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    alive[w] = !retired_[w];
    any_alive = any_alive || alive[w];
  }
  if (!any_alive)
    return fail("no surviving worker to redistribute LPs to");
  {
    std::vector<double> work(lps_.size(), 0.0);
    for (LpId id = 0; id < lps_.size(); ++id) {
      const LpStats& s = lps_[id].stats();
      work[id] = static_cast<double>(
          s.events_processed - std::min(s.events_processed, s.events_undone));
    }
    partition::redistribute_orphans(graph_, partition_, work, alive,
                                    config_.rebalance);
  }
  ++recoveries_;
  ++ckstats_.recoveries;

  restore_checkpoint(*ck, lps_, last_promise_, *net_, faulty_.get());
  ckstats_.lps_restored += lps_.size();
  for (auto& wp : workers_) {
    // In-flight packets belong to the abandoned timeline: published batches
    // and unflushed producer buffers alike.  Every surviving worker is
    // parked at a barrier, so touching their mailboxes here is race-free.
    wp->inbox.clear();
    for (auto& buf : wp->outbox) buf.clear();
    wp->events_since_round = 0;
    wp->ready.reset(lps_.size());
  }
  for (LpId id = 0; id < lps_.size(); ++id)
    workers_[partition_[id]]->ready.add(id, lps_[id].next_ts());
  safe_bound_ = last_gvt_ = last_ckpt_gvt_ = ck->gvt;
  std::uint64_t total_events = 0;
  for (const auto& wp : workers_) total_events += wp->stats.events;
  last_total_events_ = total_events;
  stall_rounds_ = 0;
  for (auto& buf : commit_buf_) buf.clear();
  for (auto& h : missed_heartbeats_) h = 0;
  return true;
}

void ThreadedEngine::coordinator_checkpoint(std::size_t coord,
                                            VirtualTime gvt) {
  // Fossil first so the snapshot's committed frontier matches gvt, then
  // undo all remaining speculation with deferred cancellation: no
  // anti-messages, so the drained network stays quiescent for capture.
  ThreadedRouter router(*this, coord);
  for (LpId id = 0; id < lps_.size(); ++id) {
    lps_[id].fossil_collect(gvt, router);
    if (lps_[id].history_size() == 0) continue;  // pending set unchanged
    credit_parked(partition_[id], id);
    lps_[id].rollback_all_deferred();
    refresh_key(partition_[id], id);
  }
  Checkpoint ck = capture_checkpoint(gvt_rounds_, gvt, lps_, last_promise_,
                                     *net_, faulty_.get());
  ++ckstats_.checkpoints;
  // The snapshot covers everything committed so far: release the buffered
  // commit-hook invocations (recovery can only rewind to this line or
  // later).
  flush_commits();
  store_.put(std::move(ck));
}

void ThreadedEngine::coordinator_rebalance(std::size_t coord) {
  // Per-LP work since the previous rebalance attempt.  Coordinator-only
  // inside the exclusive section: every other worker is parked, so reading
  // foreign LPs' stats is race-free (same argument as checkpoint capture).
  std::vector<double> work(lps_.size(), 0.0);
  for (LpId id = 0; id < lps_.size(); ++id) {
    const LpStats& s = lps_[id].stats();
    const double ev =
        static_cast<double>(s.events_processed - lb_events_base_[id]);
    const double un =
        static_cast<double>(s.events_undone - lb_undone_base_[id]);
    work[id] = std::max(ev - un, 0.0) + config_.rebalance.rollback_weight * un;
    lb_events_base_[id] = s.events_processed;
    lb_undone_base_[id] = s.events_undone;
  }
  std::vector<bool> alive(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w)
    alive[w] = !worker_dead(w);

  const partition::RebalancePlan plan = partition::plan_rebalance(
      graph_, partition_, work, alive, config_.rebalance);
  metrics_.shard(coord).gauge_max(obs::Gauge::kLbImbalance,
                                  plan.imbalance_before);
  metrics_.shard(coord).inc(obs::Metric::kRebalanceRounds);
  if (plan.empty()) return;

  double lb_start = 0.0;
  VSIM_TRACE(if (trace_ != nullptr) lb_start = tnow());
  ThreadedRouter router(*this, coord);
  for (const partition::Migration& mv : plan.moves) {
    Worker& src = *workers_[mv.from];
    Worker& dst = *workers_[mv.to];
    credit_parked(mv.from, mv.lp);
    src.ready.remove(mv.lp);
    // Pack through the checkpoint codec: undo speculation with deferred
    // cancellation (no anti-messages, the drained network stays quiescent;
    // re-execution settles the deferred sends as suppressed resends), then
    // snapshot the committed frontier and reinstate it under the new owner.
    //
    // Fossil-collect at the round's GVT FIRST (this round's collection
    // phase runs after this exclusive section, so the LP may still hold
    // speculation the new frontier has already finalised).  The deferred
    // rollback is protocol-transparent only for events strictly above GVT:
    // receivers fossil-collect their sends this very round, and a parked
    // send whose receiver has committed it can never be cancelled again --
    // if the LP is later demoted, conservative re-execution settles the
    // stale entry as an anti-message below the receiver's commit frontier
    // and a fresh-uid duplicate, corrupting the committed trace.
    lps_[mv.lp].fossil_collect(safe_bound_, router);
    lps_[mv.lp].rollback_all_deferred();
    const LpCheckpoint ck = lps_[mv.lp].make_checkpoint();
    partition_[mv.lp] = mv.to;
    lps_[mv.lp].restore_from(ck);
    dst.ready.add(mv.lp, lps_[mv.lp].next_ts());
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
}

void ThreadedEngine::flush_commits() {
  if (!hook_) return;
  for (auto& buf : commit_buf_) {
    for (const Event& ev : buf) hook_(ev);
    buf.clear();
  }
}

RunStats ThreadedEngine::run() {
  if (config_error_) {
    RunStats out;
    out.config_error = config_error_;
    return out;
  }

  for (const Event& ev : graph_.initial_events()) {
    const std::size_t wi = partition_[ev.dst];
    Event copy = ev;
    ThreadedRouter router(*this, wi);
    lps_[ev.dst].enqueue(std::move(copy), router);
    refresh_key(wi, ev.dst);
  }

  if (ft_on_) {
    // Round-zero baseline, taken before any thread starts: recovery always
    // has a line to rewind to, even when the first crash precedes the
    // first periodic checkpoint.
    store_.put(capture_checkpoint(0, kTimeZero, lps_, last_promise_, *net_,
                                  faulty_.get()));
    ++ckstats_.checkpoints;
  }

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
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (crashed_[w].load(std::memory_order_acquire)) {
        first_dead = static_cast<std::uint32_t>(w);
        break;
      }
    }
    recovery_error_ = RecoveryError{first_dead, gvt_rounds_, recoveries_,
                                    "all workers crashed"};
    failed_ = true;
  }

  RunStats out;
  out.per_lp.reserve(lps_.size());
  for (const LpRuntime& rt : lps_) out.per_lp.push_back(rt.stats());
  out.per_worker.reserve(workers_.size());
  for (const auto& w : workers_) out.per_worker.push_back(w->stats);
  out.gvt_rounds = gvt_rounds_;
  out.deadlocked = deadlocked_;
  out.transport = net_->counters();
  if (auto err = net_->error()) {
    out.transport_error = std::move(err);
  } else if (!config_.transport.reliable && out.transport.dropped > 0) {
    TransportError err;
    err.message = "packets were dropped without reliable delivery; "
                  "committed traces are not trustworthy";
    out.transport_error = std::move(err);
  }
  out.deadlock_report = deadlock_report_;
  out.checkpoint = ckstats_;
  out.checkpoint.crashes = crash_count_.load(std::memory_order_acquire);
  out.checkpoint.disk_bytes = store_.disk_bytes();
  out.recovery_error = recovery_error_;
  // Buffered commits are flushed even on a failed run: everything in the
  // buffers was validated by a GVT round, only never released.
  flush_commits();
  absorb_run_stats(metrics_, out);
  metrics_.merge();
  out.metrics = metrics_.merged();
  return out;
}

DeadlockReport ThreadedEngine::build_deadlock_report(VirtualTime gvt) {
  DeadlockReport report;
  report.gvt = gvt;
  report.transport_starvation =
      !config_.transport.reliable && net_->counters().dropped > 0;
  for (LpId id = 0; id < lps_.size(); ++id) {
    LpRuntime& rt = lps_[id];
    if (!rt.has_pending()) continue;
    report.blocked.push_back({id, rt.next_ts(), rt.min_channel_clock(),
                              rt.pending_count(), rt.mode()});
  }
  return report;
}

}  // namespace vsim::pdes
