#include "pdes/machine.h"

#include <algorithm>
#include <cassert>

#include "partition/rebalance.h"

namespace vsim::pdes {

// The machine engine's wire: a latency-stamped arrival in the destination
// worker's mailbox.  Sender-side costs are charged above this layer (router
// for first transmissions, the channel stack's transmit hook for acks and
// retransmits), so the wire itself only models propagation delay.
class MachineEngine::MachineWire final : public Transport {
 public:
  explicit MachineWire(MachineEngine& eng) : eng_(eng) {}

  void submit(Packet&& pkt, double now) override {
    eng_.workers_[pkt.dst].mailbox.push(
        {now + eng_.costs_.msg_latency, ++eng_.arrival_seq_, std::move(pkt)});
  }

 private:
  MachineEngine& eng_;
};

// Routes messages between modelled workers, charging costs to the sender's
// virtual clock.  Local deliveries happen immediately; remote deliveries go
// through the transport stack.
class MachineEngine::MachineRouter final : public Router {
 public:
  explicit MachineRouter(MachineEngine& eng) : eng_(eng) {}

  [[nodiscard]] std::size_t worker() const { return eng_.current_worker_; }
  [[nodiscard]] double clock() const { return self().clock; }

  /// The executing worker pays for the event, plus its state save under
  /// Time Warp.
  void charge_event(const LpRuntime& lp, double cost) {
    self().clock += cost + (lp.mode() == SyncMode::kOptimistic
                                ? eng_.costs_.state_save
                                : 0.0);
  }

  /// A message reached the current worker: handle it, or forward it when
  /// its LP migrated away while it was in flight.
  void receive(Event&& ev) {
    if (eng_.partition_[ev.dst] != worker()) {
      route(std::move(ev));
      return;
    }
    self().stats.busy_cost += eng_.costs_.recv_cost;
    eng_.deliver(self(), std::move(ev), *this);
  }

  void route(Event&& ev) override {
    const std::size_t wi = eng_.current_worker_;
    const std::uint32_t owner = eng_.partition_[ev.dst];
    Worker& from = self();
    const bool is_null = ev.kind == kNullMsgKind;
    eng_.count_send(from.stats, wi, owner == wi, ev);
    if (owner == wi) {
      from.clock += eng_.costs_.msg_local;
      receive(std::move(ev));
      return;
    }
    const double cost =
        is_null ? eng_.costs_.null_msg : eng_.costs_.msg_remote_send;
    from.clock += cost;
    VSIM_TRACE(if (eng_.trace_ != nullptr) {
      const char* name =
          is_null ? "send-null" : (ev.negative ? "send-anti" : "send");
      eng_.trace_->complete(wi, "net", name, from.clock - cost, cost, ev.src);
      // Null messages share uid 0, so only data/anti sends get flow arrows.
      if (!is_null)
        eng_.trace_->flow_out(wi, trace_flow_id(ev), from.clock - cost / 2);
    });
    eng_.net_->send(static_cast<std::uint32_t>(wi), owner, std::move(ev),
                    from.clock);
  }

  void commit(const Event& ev) override { eng_.commit(ev); }

 private:
  [[nodiscard]] Worker& self() const {
    return eng_.workers_[eng_.current_worker_];
  }

  MachineEngine& eng_;
};

MachineEngine::MachineEngine(LpGraph& graph, Partition partition,
                             RunConfig config, MachineCosts costs)
    : EngineCore(graph, std::move(partition), config, validate(config),
                 config.num_workers),
      costs_(costs) {
  if (config_error_) return;
  workers_.resize(config_.num_workers);
  for (Worker& w : workers_) w.ready.reset(graph_.size());
  for (LpId id = 0; id < graph_.size(); ++id)
    workers_[partition_[id]].ready.add(id, lps_[id].next_ts());
  crashed_.assign(config_.num_workers, false);

  wire_ = std::make_unique<MachineWire>(*this);
  assemble_transport(*wire_, config_.num_workers);
  net_->set_deliver([this](std::uint32_t w, Event&& ev) {
    VSIM_TRACE(if (trace_ != nullptr && ev.kind != kNullMsgKind) {
      trace_->instant(w, "net", ev.negative ? "recv-anti" : "recv",
                      workers_[w].clock, ev.dst);
      trace_->flow_in(w, trace_flow_id(ev), workers_[w].clock);
    });
    assert(w == current_worker_);  // the worker draining its mailbox
    (void)w;
    MachineRouter(*this).receive(std::move(ev));
  });
  // Acks and retransmissions are billed to the emitting worker's virtual
  // clock, so fault recovery shows up in the makespan / speedup curves.
  net_->set_transmit_hook(
      [this](std::uint32_t w, Packet::Kind kind, bool /*retransmit*/) {
        workers_[w].clock += kind == Packet::Kind::kAck
                                 ? costs_.ack
                                 : costs_.msg_remote_send;
      });
  open_trace("machine");
}

MachineEngine::~MachineEngine() = default;

void MachineEngine::maybe_crash(std::size_t wi) {
  Worker& w = workers_[wi];
  if (!crash_.fire(wi, w.stats.events)) return;
  crashed_[wi] = true;
  ++ckstats_.crashes;
  VSIM_TRACE(if (trace_ != nullptr) {
    trace_->instant(wi, "ckpt", "crash", w.clock);
  });
}

bool MachineEngine::step(std::size_t wi) {
  if (worker_dead(wi)) return false;
  current_worker_ = wi;
  Worker& w = workers_[wi];

  // Deliver all messages that have arrived by now.  The matured set drains
  // as one batch per step -- the machine-model analogue of the threaded
  // engine's batch-drained inbox -- and feeds the same batch metrics.
  std::uint64_t batch = 0;
  while (!w.mailbox.empty() && w.mailbox.top().when <= w.clock) {
    Packet pkt = w.mailbox.top().pkt;
    w.mailbox.pop();
    w.clock += costs_.recv_cost;
    net_->on_wire_delivery(std::move(pkt), w.clock);
    ++batch;
  }
  const bool delivered = batch > 0;
  if (delivered) {
    metrics_.shard(wi).inc(obs::Metric::kMailboxBatches);
    metrics_.shard(wi).observe(obs::Hist::kBatchSize,
                               static_cast<double>(batch));
    // One cumulative ack per link for the whole matured batch.
    net_->flush_acks(static_cast<std::uint32_t>(wi), w.clock);
  }
  // Reliable layer: retransmit in-flight packets whose timeout expired.
  net_->poll(static_cast<std::uint32_t>(wi), w.clock);

  // The lowest-timestamp eligible LP runs one event; blocked ones park.
  MachineRouter router(*this);
  if (try_process_one(w, router)) {
    if (ft_on_) maybe_crash(wi);
    return true;
  }
  if (delivered) return true;

  // Nothing eligible: advance to the next mailbox arrival if any.
  if (!w.mailbox.empty()) {
    w.clock = std::max(w.clock, w.mailbox.top().when);
    return true;
  }
  return false;  // stalled until the next synchronisation round
}

bool MachineEngine::sync_round() {
  ++gvt_rounds_;
  metrics_.shard(0).inc(obs::Metric::kGvtRounds);
  gate_.begin_round();

  // Crash detection + recovery happen at round ENTRY, before the drain:
  // in-flight traffic to a dead worker can never be acknowledged, so
  // draining first would only burn the retransmission budget (which is
  // exactly what happens -- deliberately -- when heartbeat_rounds delays
  // the declaration past the retry cap).
  if (ft_on_ && !detect_and_recover()) return false;
  bool crash_pending = false;
  for (std::size_t w = 0; w < workers_.size(); ++w)
    crash_pending = crash_pending || (crashed_[w] && !retired_[w]);

  // Per-worker round-entry clocks: each survivor gets a "gvt" span from here
  // to the synchronised round clock (recorded after recovery so the spans
  // stay disjoint from the "recovery" ones).
  std::vector<double> gvt_entry;
  VSIM_TRACE(if (trace_ != nullptr) {
    gvt_entry.resize(workers_.size());
    for (std::size_t wi = 0; wi < workers_.size(); ++wi)
      gvt_entry[wi] = workers_[wi].clock;
  });

  // Flush the network to quiescence.  One drain pass is NOT enough under a
  // lossy transport: a dropped packet only reappears when the reliable
  // layer retransmits it, so the round alternates "drain every mailbox"
  // with "flush held/unacked packets" until a full pass moves nothing.
  // Dead workers are skipped: their mailbox contents are lost with them.
  double max_arrival = 0.0;
  for (;;) {
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
        if (worker_dead(wi)) continue;
        current_worker_ = wi;
        Worker& w = workers_[wi];
        while (!w.mailbox.empty()) {
          max_arrival = std::max(max_arrival, w.mailbox.top().when);
          Packet pkt = w.mailbox.top().pkt;
          w.mailbox.pop();
          net_->on_wire_delivery(std::move(pkt), w.clock);
          any = true;
        }
        // Acks owed for the drained batch go out before the next pass, or
        // the senders' in-flight lists would never settle and the flush
        // phase below would force-retransmit forever.
        if (net_->flush_acks(static_cast<std::uint32_t>(wi), w.clock) > 0)
          any = true;
      }
    }
    std::size_t flushed = 0;
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      if (worker_dead(wi)) continue;
      current_worker_ = wi;
      flushed += net_->flush(static_cast<std::uint32_t>(wi),
                             workers_[wi].clock);
    }
    if (flushed == 0) break;  // quiescent (or the channel gave up: error set)
  }
  if (net_->error()) transport_failed_ = true;

  double round_clock = max_arrival;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi)
    if (!worker_dead(wi)) round_clock = std::max(round_clock, workers_[wi].clock);
  round_clock += costs_.gvt_cost;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    if (!worker_dead(wi)) workers_[wi].clock = round_clock;
    workers_[wi].events_since_round = 0;
  }
  VSIM_TRACE(if (trace_ != nullptr) {
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      if (worker_dead(wi)) continue;
      trace_->complete(wi, "gvt", "gvt", gvt_entry[wi],
                       round_clock - gvt_entry[wi], obs::kNoTraceLp, "round",
                       static_cast<std::int64_t>(gvt_rounds_));
    }
  });

  // Hierarchical GVT: each worker's local minimum is its ready heap's top
  // and its parked keys, so the reduction grows with P and the blocked-LP
  // count, not with the LP count.  A dead worker's queue is frozen at its
  // crash-time keys (nothing updates it after death), which keeps the GVT
  // (and hence every survivor-side commit) below the frontier the upcoming
  // recovery will rewind to or replay over.
  VirtualTime gvt = kTimeInf;
  std::uint64_t total_events = 0;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    const ReadyQueue& q = workers_[wi].ready;
    gvt = std::min(gvt, q.min_key());
    metrics_.shard(wi).inc(obs::Metric::kGvtScanItems,
                           (q.empty() ? 0 : 1) + q.parked_count());
    total_events += workers_[wi].stats.events;
  }

  // The round pipeline (DESIGN.md "GVT round pipeline").  The machine model
  // sweeps every worker's dirty and due LPs in one deterministic pass, so
  // the whole engine is one adaptation scope: the demotion budget drains in
  // LP id order regardless of placement.
  verdict_ = gate_.judge(gvt, total_events, transport_failed_, crash_pending);
  deadlocked_ = verdict_.deadlock;
  for (Worker& w : workers_) settle_credits(w.ready);
  if (verdict_.checkpoint) take_checkpoint(gvt);
  round_lps_.clear();
  for (Worker& w : workers_) {  // dead workers' LPs too: they still commit
    w.ready.take_due(gvt);
    w.ready.take_dirty(w.sweep);
    round_lps_.insert(round_lps_.end(), w.sweep.begin(), w.sweep.end());
  }
  std::sort(round_lps_.begin(), round_lps_.end());
  MachineRouter router(*this);
  sweep(round_lps_, lps_.size(), gvt, router, [&](LpId id) {
    current_worker_ = partition_[id];
    return SweepTarget{workers_[current_worker_].ready,
                       !worker_dead(current_worker_)};
  });
  if (verdict_.rebalance) rebalance(gvt);
  for (Worker& w : workers_) w.ready.rearm();  // the new bound may unblock any

  safe_bound_ = gvt;
  metrics_.merge();  // every shard is quiescent inside the round
  return !verdict_.stop;
}

void MachineEngine::rebalance(VirtualTime gvt) {
  const partition::RebalancePlan plan = plan_rebalance(0);
  MachineRouter router(*this);
  for (const partition::Migration& mv : plan.moves) {
    Worker& src = workers_[mv.from];
    Worker& dst = workers_[mv.to];
    migrate_lp(mv.lp, src.ready, mv.to, dst.ready, gvt, router);
    VSIM_TRACE(if (trace_ != nullptr) {
      trace_->complete(mv.from, "lb", "migrate-out", src.clock,
                       costs_.checkpoint_per_lp, mv.lp);
      trace_->complete(mv.to, "lb", "migrate-in", dst.clock,
                       costs_.restore_per_lp, mv.lp);
    });
    src.clock += costs_.checkpoint_per_lp;
    dst.clock += costs_.restore_per_lp;
    metrics_.shard(mv.from).inc(obs::Metric::kMigrations);
  }
}

bool MachineEngine::detect_and_recover() {
  std::uint32_t first_dead = 0;
  if (!heartbeat_due([&](std::size_t w) { return crashed_[w]; }, &first_dead))
    return true;
  // One dead worker reached the heartbeat budget: declare every currently
  // crashed worker dead and run a single recovery episode for all of them.
  const Checkpoint* ck = recovery_point(first_dead);
  if (ck == nullptr) return false;
  // The dead workers retire; their LPs are redistributed to the survivors.
  for (std::size_t w = 0; w < workers_.size(); ++w)
    if (crashed_[w]) retired_[w] = true;
  if (!redistribute(orphan_work(), first_dead)) return false;
  restore(*ck);
  for (Worker& w : workers_) {
    w.mailbox = {};  // in-flight packets belong to the abandoned timeline
    w.events_since_round = 0;
    w.ready.reset(lps_.size());
  }
  for (LpId id = 0; id < lps_.size(); ++id)
    workers_[partition_[id]].ready.add(id, lps_[id].next_ts());

  // Charge detection latency + state reload to every surviving clock.
  double base = 0.0;
  for (std::size_t w = 0; w < workers_.size(); ++w)
    if (!worker_dead(w)) base = std::max(base, workers_[w].clock);
  base += costs_.crash_detect * config_.checkpoint.heartbeat_rounds;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (worker_dead(w)) continue;
    const double after = base + costs_.restore_per_lp *
                                    static_cast<double>(workers_[w].ready.size());
    VSIM_TRACE(if (trace_ != nullptr) {
      trace_->complete(w, "ckpt", "recovery", workers_[w].clock,
                       after - workers_[w].clock);
    });
    ckstats_.overhead_cost += after - workers_[w].clock;
    workers_[w].clock = after;
  }
  return true;
}

void MachineEngine::take_checkpoint(VirtualTime gvt) {
  MachineRouter router(*this);
  undo_speculation(all_lps_, gvt, router, [&](LpId id) {
    workers_[partition_[id]].ready.update(id, lps_[id].next_ts());
  });
  store_checkpoint(gvt);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (worker_dead(w)) continue;
    const double c = costs_.checkpoint_per_lp *
                     static_cast<double>(workers_[w].ready.size());
    VSIM_TRACE(if (trace_ != nullptr && c > 0) {
      trace_->complete(w, "ckpt", "checkpoint", workers_[w].clock, c);
    });
    workers_[w].clock += c;
    ckstats_.overhead_cost += c;
  }
}

RunStats MachineEngine::run() {
  RunStats out;
  if (config_error_) {
    out.config_error = config_error_;
    return out;
  }

  // Seed initial events (free: part of model construction, not simulation).
  seed_initial_events();
  for (const Event& ev : graph_.initial_events())
    workers_[partition_[ev.dst]].ready.update(ev.dst, lps_[ev.dst].next_ts());
  // Round-zero baseline: recovery always has a line to rewind to, even when
  // the first crash precedes the first periodic checkpoint.
  if (ft_on_) store_checkpoint(kTimeZero);

  while (sync_round()) {
    // Run workers, lowest virtual clock first, until a round is due.
    bool round_due = false;
    while (!round_due) {
      for (const Worker& w : workers_) {
        if (w.events_since_round >= config_.gvt_interval) {
          round_due = true;
          break;
        }
      }
      if (round_due) break;

      // Try workers in virtual-clock order until one advances.
      bool progressed = false;
      std::vector<std::size_t> order(workers_.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return workers_[a].clock < workers_[b].clock;
      });
      for (std::size_t wi : order) {
        if (step(wi)) {
          progressed = true;
          break;
        }
      }
      if (!progressed) round_due = true;  // everyone stalled: synchronise
    }
  }

  // Commit everything that was processed.  With fault tolerance on, a run
  // that aborted on an unrecoverable failure must NOT commit past the last
  // checkpoint: the speculative suffix was never validated by a GVT round.
  if (!failed_) {
    MachineRouter router(*this);
    for (LpId id = 0; id < lps_.size(); ++id) {
      current_worker_ = partition_[id];
      lps_[id].fossil_collect(kTimeInf, router);
    }
  }
  flush_commits();

  fill_run_stats(out);
  if (deadlocked_) out.deadlock_report = deadlock_report(safe_bound_);
  out.per_worker.reserve(workers_.size());
  for (Worker& w : workers_) {
    w.stats.final_clock = w.clock;
    out.makespan = std::max(out.makespan, w.clock);
    out.per_worker.push_back(w.stats);
  }
  finish_metrics(out);
  return out;
}

}  // namespace vsim::pdes
