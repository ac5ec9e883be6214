#include "pdes/engine_core.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "partition/rebalance.h"

namespace vsim::pdes {

namespace {

/// Seeds the initial event set.  Enqueueing a first event into a fresh LP
/// can neither roll anything back nor commit, so it never routes.
class SeedRouter final : public Router {
 public:
  void route(Event&&) override { assert(!"initial seed routed an event"); }
};

}  // namespace

// ---------------------------------------------------------------------------
// RoundGate / CrashInjector.
// ---------------------------------------------------------------------------

RoundGate::RoundGate(const RunConfig& config)
    : until_(config.until),
      deadlock_rounds_(config.deadlock_rounds),
      ckpt_period_(config.checkpoint.period),
      rebalance_period_(config.rebalance.period) {}

RoundVerdict RoundGate::judge(VirtualTime gvt, std::uint64_t total_events,
                              bool transport_error, bool crash_pending) {
  RoundVerdict v;
  const bool live = gvt != kTimeInf && gvt.pt <= until_;
  if (live && gvt == last_gvt_ && total_events == last_total_events_) {
    if (++stall_rounds_ >= deadlock_rounds_) v.deadlock = true;
  } else {
    stall_rounds_ = 0;
  }
  last_gvt_ = gvt;
  last_total_events_ = total_events;
  v.stop = transport_error || !live || v.deadlock;
  if (crash_pending || transport_error || !live) return v;
  if (ckpt_period_ > 0 && rounds_since_ckpt_ >= ckpt_period_ &&
      gvt > last_ckpt_gvt_) {
    rounds_since_ckpt_ = 0;
    last_ckpt_gvt_ = gvt;
    v.checkpoint = true;
  }
  if (rebalance_period_ > 0 && ++rounds_since_rebalance_ >= rebalance_period_) {
    rounds_since_rebalance_ = 0;
    v.rebalance = true;
  }
  return v;
}

void RoundGate::rewind(VirtualTime gvt) {
  last_gvt_ = last_ckpt_gvt_ = gvt;
  last_total_events_ = ~0ull;
  stall_rounds_ = 0;
}

CrashInjector::CrashInjector(const FaultPlan& plan, std::size_t workers)
    : crashes_(plan.crashes), rate_(plan.crash_rate), rng_(workers) {
  for (std::size_t w = 0; w < workers; ++w) {
    // Distinct stream from the link-fault RNGs (0x10001 multiplier there),
    // so crash draws never correlate with wire faults under one seed.
    rng_[w] = splitmix64(plan.seed * 0x20003u + w + 1);
    if (rng_[w] == 0) rng_[w] = 1;
  }
}

bool CrashInjector::fire(std::size_t w, std::uint64_t events) {
  // Exact match on the cumulative event count: monotone, so a crash point
  // replayed after recovery does not re-fire.
  bool die = false;
  for (const WorkerCrash& c : crashes_)
    if (c.worker == w && c.after_events == events) die = true;
  // The draw advances on every event whether or not it kills, so the crash
  // schedule is a pure function of the seed.
  if (rate_ > 0 && xorshift_uniform(rng_[w]) < rate_) die = true;
  return die;
}

// ---------------------------------------------------------------------------
// Construction and scaffolding.
// ---------------------------------------------------------------------------

EngineCore::EngineCore(LpGraph& graph, Partition partition,
                       const RunConfig& config,
                       std::optional<ConfigError> config_error,
                       std::size_t metric_shards)
    : graph_(graph),
      partition_(std::move(partition)),
      config_(config),
      config_error_(std::move(config_error)) {
  if (config_error_) return;  // run() refuses to start; nothing to build
  assert(partition_.size() == graph_.size());
  null_msgs_ = config_.strategy == ConservativeStrategy::kNullMessage;
  lps_.reserve(graph_.size());
  for (LpId id = 0; id < graph_.size(); ++id) {
    assert(partition_[id] < config_.num_workers);
    lps_.emplace_back(&graph_.lp(id), config_.ordering, config_.strategy,
                      initial_mode(config_.configuration, graph_.lp(id)),
                      config_.max_history, config_.use_lookahead,
                      config_.cancellation);
    if (null_msgs_)
      for (LpId src : graph_.fan_in(id)) lps_[id].add_input_channel(src);
  }
  all_lps_.resize(graph_.size());
  std::iota(all_lps_.begin(), all_lps_.end(), LpId{0});
  last_promise_.assign(graph_.size(), kTimeZero);
  lb_events_base_.assign(graph_.size(), 0);
  lb_undone_base_.assign(graph_.size(), 0);
  gate_ = RoundGate(config_);

  // Fault tolerance: enabled by periodic checkpointing or by any scheduled
  // crash (crashes force at least the initial snapshot, so recovery always
  // has something to fall back to).
  ft_on_ = config_.checkpoint.period > 0 ||
           config_.transport.faults.crash_active();
  buffer_commits_ = ft_on_;
  if (ft_on_) {
    commit_buf_.resize(graph_.size());
    store_ = CheckpointStore(kCheckpointKeep, config_.checkpoint.spill_dir);
  }
  crash_ = CrashInjector(config_.transport.faults, config_.num_workers);
  retired_.assign(config_.num_workers, false);
  missed_heartbeats_.assign(config_.num_workers, 0);
  metrics_ = obs::MetricsRegistry(metric_shards);
}

EngineCore::~EngineCore() = default;

void EngineCore::assemble_transport(Transport& wire, std::size_t endpoints) {
  Transport* top = &wire;
  faulty_.reset();
  if (config_.transport.faults.active()) {
    faulty_ = std::make_unique<FaultyTransport>(wire, endpoints,
                                                config_.transport.faults);
    top = faulty_.get();
  }
  net_ = std::make_unique<ChannelStack>(*top, endpoints, config_.transport);
  if (faulty_) net_->attach_faulty(faulty_.get());
}

void EngineCore::open_trace(const char* name) {
  VSIM_TRACE({
    trace_ = config_.trace;
    if (trace_ == nullptr) {
      if (obs::Tracer* t = obs::Tracer::from_env()) {
        trace_own_ = t->session(name, config_.num_workers);
        trace_ = trace_own_.get();
      }
    }
    if (trace_ != nullptr) {
      trace_->set_default_lp_labels(
          [this](std::uint32_t id) { return graph_.lp(id).name(); });
    }
  });
  (void)name;
}

void EngineCore::seed_initial_events() {
  SeedRouter seed;
  for (const Event& ev : graph_.initial_events()) {
    Event copy = ev;
    lps_[ev.dst].enqueue(std::move(copy), seed);
  }
}

// ---------------------------------------------------------------------------
// LP event path.
// ---------------------------------------------------------------------------

void EngineCore::flush_commits() {
  if (!hook_) return;
  for (auto& buf : commit_buf_) {
    for (const Event& ev : buf) hook_(ev);
    buf.clear();
  }
}

// ---------------------------------------------------------------------------
// Round pipeline.
// ---------------------------------------------------------------------------

void EngineCore::settle_credits(ReadyQueue& q) {
  q.settle_credits(
      [&](LpId lp, std::uint64_t n) { lps_[lp].note_blocked(n); });
}

void EngineCore::store_checkpoint(VirtualTime gvt) {
  assert(net_->quiescent() && "checkpoints require a drained network");
  Checkpoint ck = capture_checkpoint(gvt_rounds_, gvt, lps_, last_promise_);
  ++ckstats_.checkpoints;
  // The snapshot covers everything committed so far: release the buffered
  // commits (recovery can only rewind to this line or later).
  flush_commits();
  store_.put(std::move(ck));
}

partition::RebalancePlan EngineCore::plan_rebalance(std::size_t shard) {
  // Retained events count fully, undone (rolled-back) work at a reduced
  // weight: a thrashing LP still loads its worker, just less usefully.
  std::vector<double> work(lps_.size(), 0.0);
  for (LpId id = 0; id < lps_.size(); ++id) {
    const LpStats& s = lps_[id].stats();
    const double ev =
        static_cast<double>(s.events_processed - lb_events_base_[id]);
    const double un =
        static_cast<double>(s.events_undone - lb_undone_base_[id]);
    work[id] = std::max(ev - un, 0.0) + partition::kRollbackWeight * un;
    lb_events_base_[id] = s.events_processed;
    lb_undone_base_[id] = s.events_undone;
  }
  // A rebalance is never due with a crash pending, so the retired set is
  // exactly the dead one.
  std::vector<bool> alive(retired_.size());
  for (std::size_t w = 0; w < alive.size(); ++w) alive[w] = !retired_[w];
  partition::RebalancePlan plan = partition::plan_rebalance(
      graph_, partition_, work, alive, config_.rebalance);
  metrics_.shard(shard).gauge_max(obs::Gauge::kLbImbalance,
                                  plan.imbalance_before);
  metrics_.shard(shard).inc(obs::Metric::kRebalanceRounds);
  return plan;
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

bool EngineCore::fail_recovery(std::uint32_t worker, std::string message) {
  recovery_error_ =
      RecoveryError{worker, gvt_rounds_, recoveries_, std::move(message)};
  failed_ = true;
  return false;
}

const Checkpoint* EngineCore::recovery_point(std::uint32_t first_dead) {
  if (recoveries_ >= config_.checkpoint.max_recoveries) {
    fail_recovery(first_dead, "recovery budget exhausted (max_recoveries)");
    return nullptr;
  }
  const Checkpoint* ck = store_.latest();
  if (ck == nullptr) fail_recovery(first_dead, "no checkpoint available");
  return ck;
}

double EngineCore::orphan_work(const LpStats& s) {
  return static_cast<double>(s.events_processed -
                             std::min(s.events_processed, s.events_undone));
}

std::vector<double> EngineCore::orphan_work() const {
  std::vector<double> work(lps_.size(), 0.0);
  for (LpId id = 0; id < lps_.size(); ++id)
    work[id] = orphan_work(lps_[id].stats());
  return work;
}

bool EngineCore::redistribute(const std::vector<double>& work,
                              std::uint32_t first_dead) {
  std::vector<bool> alive(retired_.size());
  bool any_alive = false;
  for (std::size_t w = 0; w < alive.size(); ++w) {
    alive[w] = !retired_[w];
    any_alive = any_alive || alive[w];
  }
  if (!any_alive)
    return fail_recovery(first_dead,
                         "no surviving worker to redistribute LPs to");
  // Each orphan goes to the least-loaded survivor, preferring channel
  // neighbours (the dynamic rebalancer's placement, not round-robin).
  partition::redistribute_orphans(graph_, partition_, work, alive);
  return true;
}

void EngineCore::restore(const Checkpoint& ck) {
  ++recoveries_;
  ++ckstats_.recoveries;
  restore_checkpoint(ck, lps_, last_promise_);
  net_->reset();
  ckstats_.lps_restored += lps_.size();
  safe_bound_ = ck.gvt;
  gate_.rewind(ck.gvt);
  for (auto& buf : commit_buf_) buf.clear();
  for (auto& h : missed_heartbeats_) h = 0;
}

// ---------------------------------------------------------------------------
// Epilogue.
// ---------------------------------------------------------------------------

DeadlockReport EngineCore::deadlock_report(
    VirtualTime gvt, std::optional<std::uint32_t> owner) const {
  DeadlockReport report;
  report.gvt = gvt;
  for (LpId id = 0; id < lps_.size(); ++id) {
    const LpRuntime& rt = lps_[id];
    if (!rt.has_pending() || (owner && partition_[id] != *owner)) continue;
    report.blocked.push_back({id, rt.next_ts(), rt.min_channel_clock(),
                              rt.pending_count(), rt.mode()});
  }
  return report;
}

void EngineCore::fill_run_stats(RunStats& out) const {
  out.per_lp.reserve(lps_.size());
  for (const LpRuntime& rt : lps_) out.per_lp.push_back(rt.stats());
  out.gvt_rounds = gvt_rounds_;
  out.deadlocked = deadlocked_;
  out.transport = net_->counters();
  out.transport_error = net_->error();
  out.checkpoint = ckstats_;
  out.checkpoint.disk_bytes = store_.disk_bytes();
  out.recovery_error = recovery_error_;
}

void EngineCore::finish_metrics(RunStats& out) {
  absorb_run_stats(metrics_, out);
  metrics_.merge();
  out.metrics = metrics_.merged();
}

}  // namespace vsim::pdes
