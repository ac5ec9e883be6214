#include "pdes/distributed.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <set>
#include <tuple>

#include "net/node.h"
#include "net/socket.h"
#include "net/socket_transport.h"

namespace vsim::pdes {

namespace {

/// Events processed per scheduler iteration between socket pumps; same
/// rationale (and value) as the threaded engine's slice.
constexpr std::uint32_t kEventSlice = 16;
/// How many GVT intervals a rank may run past the last GVT it applied.
constexpr std::uint32_t kMaxLagIntervals = 2;
/// Consecutive empty iterations before a rank asks for / starts a round.
constexpr std::uint32_t kIdleSpinRound = 2;
/// Bound on the stop-drain flush wait (ms).  Correctness never depends on
/// it: an unflushed link just makes the pass vote non-quiescent and the
/// coordinator issues another pass.
constexpr std::int64_t kDrainFlushBudgetMs = 50;
/// Events per kCommit frame of a rank's commit tail.
constexpr std::uint64_t kTailFrameEvents = 4096;
/// Epoch layout: (term << kEpochSeqBits) | seq.  Ordinary recoveries bump
/// the sequence; a coordinator promotion bumps the term past every epoch
/// the promoting rank has seen, fencing stale control traffic for good.
constexpr std::uint32_t kEpochSeqBits = 20;

template <typename T>
void store_relaxed(const T& field, T v) {
  std::atomic_ref<T>(const_cast<T&>(field)).store(v, std::memory_order_relaxed);
}
template <typename T>
T load_relaxed(const T& field) {
  return std::atomic_ref<T>(const_cast<T&>(field))
      .load(std::memory_order_relaxed);
}

void encode_lp_stats(bytes::Writer& w, const LpStats& s) {
  w.u64(s.events_processed);
  w.u64(s.events_committed);
  w.u64(s.rollbacks);
  w.u64(s.events_undone);
  w.u64(s.anti_messages_sent);
  w.u64(s.annihilations);
  w.u64(s.lazy_reuses);
  w.u64(s.lazy_cancels);
  w.u64(s.state_saves);
  w.u64(s.max_history);
  w.u64(s.mode_switches);
  w.u64(s.blocked_polls);
  w.u64(s.checkpoint_undone);
  w.u64(s.queue_ops);
  w.u64(s.adapt_demotions);
  w.u64(s.adapt_promotions);
  w.u64(s.adapt_pins);
  w.u64(s.final_optimistic);
}

LpStats decode_lp_stats(bytes::Reader& r) {
  LpStats s;
  s.events_processed = r.u64();
  s.events_committed = r.u64();
  s.rollbacks = r.u64();
  s.events_undone = r.u64();
  s.anti_messages_sent = r.u64();
  s.annihilations = r.u64();
  s.lazy_reuses = r.u64();
  s.lazy_cancels = r.u64();
  s.state_saves = r.u64();
  s.max_history = static_cast<std::size_t>(r.u64());
  s.mode_switches = r.u64();
  s.blocked_polls = r.u64();
  s.checkpoint_undone = r.u64();
  s.queue_ops = r.u64();
  s.adapt_demotions = r.u64();
  s.adapt_promotions = r.u64();
  s.adapt_pins = r.u64();
  s.final_optimistic = r.u64();
  return s;
}

void encode_worker_stats(bytes::Writer& w, const WorkerStats& s) {
  w.f64(s.busy_cost);
  w.f64(s.final_clock);
  w.u64(s.events);
  w.u64(s.messages_sent_remote);
  w.u64(s.messages_sent_local);
  w.u64(s.null_messages);
}

WorkerStats decode_worker_stats(bytes::Reader& r) {
  WorkerStats s;
  s.busy_cost = r.f64();
  s.final_clock = r.f64();
  s.events = r.u64();
  s.messages_sent_remote = r.u64();
  s.messages_sent_local = r.u64();
  s.null_messages = r.u64();
  return s;
}

void encode_transport_counters(bytes::Writer& w, const TransportCounters& c) {
  w.u64(c.data_sent);
  w.u64(c.acks_sent);
  w.u64(c.delivered);
  w.u64(c.dropped);
  w.u64(c.duplicated);
  w.u64(c.reordered);
  w.u64(c.retransmits);
  w.u64(c.dup_discarded);
  w.u64(c.buffered);
}

TransportCounters decode_transport_counters(bytes::Reader& r) {
  TransportCounters c;
  c.data_sent = r.u64();
  c.acks_sent = r.u64();
  c.delivered = r.u64();
  c.dropped = r.u64();
  c.duplicated = r.u64();
  c.reordered = r.u64();
  c.retransmits = r.u64();
  c.dup_discarded = r.u64();
  c.buffered = r.u64();
  return c;
}

void encode_transport_error(bytes::Writer& w, const TransportError& err) {
  w.u32(err.src_worker);
  w.u32(err.dst_worker);
  w.u64(err.seq);
  w.u32(err.attempts);
  w.str(err.message);
}

void encode_counts(bytes::Writer& w, const std::vector<std::uint64_t>& c) {
  w.u64(c.size());
  for (const std::uint64_t n : c) w.u64(n);
}

std::vector<std::uint64_t> decode_counts(bytes::Reader& r,
                                         std::uint32_t max_size) {
  const std::uint64_t n = r.u64();
  std::vector<std::uint64_t> c;
  if (n > max_size) return c;
  for (std::uint64_t i = 0; r.ok() && i < n; ++i) c.push_back(r.u64());
  return c;
}

TransportError decode_transport_error(bytes::Reader& r) {
  TransportError err;
  err.src_worker = r.u32();
  err.dst_worker = r.u32();
  err.seq = r.u64();
  err.attempts = r.u32();
  err.message = r.str();
  return err;
}

/// Blocked-LP diagnostics of a deadlock report.
void encode_diag(bytes::Writer& w,
                 const std::vector<DeadlockReport::LpDiag>& diag) {
  w.u64(diag.size());
  for (const DeadlockReport::LpDiag& d : diag) {
    w.u32(d.id);
    w.vt(d.next_ts);
    w.vt(d.min_channel_clock);
    w.u64(d.pending);
    w.u8(static_cast<std::uint8_t>(d.mode));
  }
}

void decode_diag(bytes::Reader& r, std::vector<DeadlockReport::LpDiag>* out) {
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < n; ++i) {
    DeadlockReport::LpDiag d;
    d.id = r.u32();
    d.next_ts = r.vt();
    d.min_channel_clock = r.vt();
    d.pending = static_cast<std::size_t>(r.u64());
    d.mode = static_cast<SyncMode>(r.u8());
    out->push_back(d);
  }
}

/// Full RunStats codec for the kFinal pipe frame: the terminating
/// coordinator is a forked child, so the run's results cross a process
/// boundary exactly once, as bytes.  The final partition rides along (the
/// supervisor's copy predates every recovery).
void encode_run_stats(bytes::Writer& w, const RunStats& st,
                      const Partition& part) {
  w.u64(st.per_lp.size());
  for (const LpStats& s : st.per_lp) encode_lp_stats(w, s);
  w.u64(st.per_worker.size());
  for (const WorkerStats& s : st.per_worker) encode_worker_stats(w, s);
  w.u64(st.gvt_rounds);
  w.u8(st.deadlocked ? 1 : 0);
  w.f64(st.makespan);
  encode_transport_counters(w, st.transport);
  w.u8(st.transport_error ? 1 : 0);
  if (st.transport_error) encode_transport_error(w, *st.transport_error);
  w.u8(st.deadlock_report ? 1 : 0);
  if (st.deadlock_report) {
    w.vt(st.deadlock_report->gvt);
    encode_diag(w, st.deadlock_report->blocked);
  }
  w.u64(st.checkpoint.checkpoints);
  w.u64(st.checkpoint.crashes);
  w.u64(st.checkpoint.recoveries);
  w.u64(st.checkpoint.lps_restored);
  w.u64(st.checkpoint.disk_bytes);
  w.f64(st.checkpoint.overhead_cost);
  w.u8(st.recovery_error ? 1 : 0);
  if (st.recovery_error) {
    w.u32(st.recovery_error->worker);
    w.u64(st.recovery_error->round);
    w.u32(st.recovery_error->recoveries_used);
    w.str(st.recovery_error->message);
  }
  w.u8(st.config_error ? 1 : 0);
  if (st.config_error) {
    w.str(st.config_error->field);
    w.str(st.config_error->message);
  }
  w.u32(st.final_coordinator);
  w.u32(st.final_epoch);
  std::vector<std::uint8_t> snap;
  bytes::Writer sw(snap);
  obs::encode_snapshot(sw, st.metrics);
  w.blob(snap);
  w.u64(part.size());
  for (const std::uint32_t owner : part) w.u32(owner);
}

bool decode_run_stats(bytes::Reader& r, RunStats* st, Partition* part) {
  const std::uint64_t nlp = r.u64();
  st->per_lp.clear();
  for (std::uint64_t i = 0; r.ok() && i < nlp; ++i)
    st->per_lp.push_back(decode_lp_stats(r));
  const std::uint64_t nw = r.u64();
  st->per_worker.clear();
  for (std::uint64_t i = 0; r.ok() && i < nw; ++i)
    st->per_worker.push_back(decode_worker_stats(r));
  st->gvt_rounds = r.u64();
  st->deadlocked = r.u8() != 0;
  st->makespan = r.f64();
  st->transport = decode_transport_counters(r);
  if (r.u8() != 0) st->transport_error = decode_transport_error(r);
  if (r.u8() != 0) {
    DeadlockReport report;
    report.gvt = r.vt();
    decode_diag(r, &report.blocked);
    st->deadlock_report = std::move(report);
  }
  st->checkpoint.checkpoints = r.u64();
  st->checkpoint.crashes = r.u64();
  st->checkpoint.recoveries = r.u64();
  st->checkpoint.lps_restored = r.u64();
  st->checkpoint.disk_bytes = r.u64();
  st->checkpoint.overhead_cost = r.f64();
  if (r.u8() != 0) {
    RecoveryError err;
    err.worker = r.u32();
    err.round = r.u64();
    err.recoveries_used = r.u32();
    err.message = r.str();
    st->recovery_error = std::move(err);
  }
  if (r.u8() != 0) {
    ConfigError err;
    err.field = r.str();
    err.message = r.str();
    st->config_error = std::move(err);
  }
  st->final_coordinator = r.u32();
  st->final_epoch = r.u32();
  bytes::Reader sr = r.sub();
  if (r.ok()) {
    obs::MetricsSnapshot snap;
    if (obs::decode_snapshot(sr, &snap)) st->metrics = std::move(snap);
  }
  const std::uint64_t npart = r.u64();
  part->clear();
  for (std::uint64_t i = 0; r.ok() && i < npart; ++i) part->push_back(r.u32());
  return r.ok();
}

}  // namespace

class DistributedEngine::DistRouter final : public Router {
 public:
  explicit DistRouter(DistributedEngine& eng) : eng_(eng) {}

  /// The rank's single metrics shard; ranks do not trace.
  [[nodiscard]] std::size_t worker() const { return 0; }
  [[nodiscard]] double clock() const { return 0.0; }
  void charge_event(const LpRuntime&, double) {}

  void route(Event&& ev) override {
    const std::uint32_t owner = eng_.partition_[ev.dst];
    eng_.count_send(eng_.self_.stats, 0, owner == eng_.rank_, ev);
    if (owner == eng_.rank_) {
      eng_.deliver(eng_.self_, std::move(ev), *this);
    } else {
      eng_.cut_.note_send(ev.ts);
      eng_.net_->send(eng_.rank_, owner, std::move(ev), eng_.nowd());
    }
  }

  void commit(const Event& ev) override { eng_.commit(ev); }

 private:
  DistributedEngine& eng_;
};

DistributedEngine::DistributedEngine(LpGraph& graph, Partition partition,
                                     RunConfig config)
    : EngineCore(graph, std::move(partition), config,
                 validate_distributed(config), 1) {
  if (config_error_) return;
  nranks_ = config_.num_workers;
  // Every rank buffers: commits validated below GVT reach the supervisor
  // pipe only from the coordinator, and only once a replicated checkpoint
  // covers them (or at termination), so neither a recovery that rewinds
  // the cluster nor a coordinator failover can double-report one.
  buffer_commits_ = true;
  // Sanitizer / loaded-CI legs stretch every wall-clock budget uniformly
  // (VSIM_TIME_SCALE) so slow execution is not mistaken for a wedged rank;
  // the socket node stretches its connect window likewise.
  config_.net.heartbeat_timeout_ms = scaled_ms(config_.net.heartbeat_timeout_ms);
  replicas_ = std::min<std::uint32_t>(config_.checkpoint.replicas, nranks_);
  pids_.assign(nranks_, -1);
  reaped_.assign(nranks_, false);
  votes_.resize(nranks_);
  succ_ack_.assign(nranks_, 0);
  stats_got_.assign(nranks_, false);
  final_lp_stats_.resize(graph_.size());
  final_lp_got_.assign(graph_.size(), false);
  final_worker_stats_.resize(nranks_);
  rank_snapshots_.resize(nranks_);
  rank_snapshot_got_.assign(nranks_, false);
  lp_work_.assign(graph_.size(), 0.0);

  if (config_.net.socket_dir.empty() && !config_.net.tcp) {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    tmpl += "/vsim-net-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      config_error_ = ConfigError{
          "net.socket_dir",
          std::string("cannot create socket directory: ") +
              std::strerror(errno)};
      return;
    }
    config_.net.socket_dir = tmpl;
    own_socket_dir_ = true;
  }
}

DistributedEngine::~DistributedEngine() {
  if (own_socket_dir_ && !is_child_ && !config_.net.socket_dir.empty()) {
    // Best-effort cleanup of the auto-created socket directory (supervisor
    // only: children share the path and must not yank it from each other).
    for (std::uint32_t r = 0; r < nranks_; ++r) {
      const std::string p =
          config_.net.socket_dir + "/rank-" + std::to_string(r) + ".sock";
      ::unlink(p.c_str());
    }
    ::rmdir(config_.net.socket_dir.c_str());
  }
}

double DistributedEngine::nowd() const {
  return static_cast<double>(net::now_ms());
}

void DistributedEngine::note_progress(VirtualTime gvt) {
  store_relaxed(dump_gvt_pt_, static_cast<std::int64_t>(gvt.pt));
  store_relaxed(dump_gvt_lt_, static_cast<std::int64_t>(gvt.lt));
}

void DistributedEngine::note_round(std::uint64_t round) {
  if (round > max_round_seen_) max_round_seen_ = round;
}

std::size_t DistributedEngine::live_ranks() const {
  std::size_t n = 0;
  for (std::uint32_t r = 0; r < nranks_; ++r)
    if (!retired_[r]) ++n;
  return n;
}

std::vector<std::uint32_t> DistributedEngine::successor_set() const {
  // The `replicas_` lowest live ranks.  Deterministic given the retired
  // set, which every rank applies from the same kRecover broadcasts -- so
  // senders and receivers of checkpoint shares agree on it at every round.
  std::vector<std::uint32_t> s;
  for (std::uint32_t r = 0; r < nranks_ && s.size() < replicas_; ++r)
    if (!retired_[r]) s.push_back(r);
  return s;
}

bool DistributedEngine::is_successor(std::uint32_t r) const {
  const std::vector<std::uint32_t> s = successor_set();
  return std::find(s.begin(), s.end(), r) != s.end();
}

void DistributedEngine::adopt_partition() {
  owned_.clear();
  self_.ready.reset(graph_.size());
  for (LpId id = 0; id < graph_.size(); ++id) {
    if (partition_[id] != rank_) continue;
    owned_.push_back(id);
    self_.ready.add(id, lps_[id].next_ts());
  }
}

void DistributedEngine::setup_stack_or_die() {
  node_ = std::make_unique<net::SocketNode>(rank_, nranks_, config_.net);
  node_->set_epoch(epoch_);
  node_->set_handler([this](std::uint32_t src, const net::FrameView& view) {
    on_frame(src, view);
  });
  std::string err;
  if (!node_->start(&err)) {
    if (rank_ != 0) _exit(5);
    config_error_ = ConfigError{"net", "socket setup failed: " + err};
    return;
  }
  wire_ = std::make_unique<net::SocketTransport>(*node_);
  assemble_transport(*wire_, nranks_);
  net_->set_deliver([this](std::uint32_t, Event&& ev) {
    DistRouter router(*this);
    deliver(self_, std::move(ev), router);
  });

  // Wait for the full outbound mesh before any protocol traffic: a link
  // still dialing when the connect window closes is a peer that never
  // came up.
  const std::int64_t connect_ms = scaled_ms(kConnectTimeoutMs);
  const std::int64_t deadline = net::now_ms() + connect_ms;
  while (!node_->all_links_up() && net::now_ms() < deadline) node_->pump(1);
  if (!node_->all_links_up()) {
    if (rank_ != 0) _exit(5);
    config_error_ = ConfigError{"net", "initial mesh connect timed out (" +
                                           std::to_string(connect_ms) + " ms)"};
    return;
  }

  // Startup barrier: no rank executes an event before every rank's full
  // mesh is up.  Every rank holds its seed events locally, so without it a
  // rank with an early scripted crash could process its way to the crash
  // and die before a slower peer had dialed it -- and that peer's dial
  // would fail its startup instead of seeing a death it can recover from.
  // Each rank reports its mesh with kRecoverDone ("parked for resume");
  // rank 0 releases everyone with kResume once all reports are in.
  const std::int64_t go_deadline = net::now_ms() + connect_ms;
  const auto take = [&](net::FrameType type) {
    std::uint32_t n = 0;
    for (auto it = ctrl_.begin(); it != ctrl_.end();) {
      if (it->type == type) {
        it = ctrl_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  };
  if (rank_ != 0) node_->send(0, net::FrameType::kRecoverDone, {});
  std::uint32_t waiting = rank_ == 0 ? nranks_ - 1 : 1;
  for (;;) {
    const std::uint32_t got = take(rank_ == 0 ? net::FrameType::kRecoverDone
                                              : net::FrameType::kResume);
    waiting -= std::min(waiting, got);
    if (waiting == 0) break;
    if (net::now_ms() >= go_deadline) {
      if (rank_ != 0) _exit(5);
      config_error_ = ConfigError{"net", "startup barrier timed out (" +
                                             std::to_string(connect_ms) +
                                             " ms)"};
      return;
    }
    node_->pump(1);
  }
  if (rank_ == 0) broadcast(net::FrameType::kResume, {});
}

void DistributedEngine::on_frame(std::uint32_t src, const net::FrameView& v) {
  if (v.type == net::FrameType::kData) {
    bytes::Reader r(v.data, v.size);
    Packet pkt;
    if (!net::decode_packet(r, &pkt) || !r.exhausted()) return;
    if (in_round_ && !voting_) {
      // Parked by a stop drain and between votes: a later pass delivers
      // this, or -- after the final pass, when only a rank that already
      // captured and resumed can be sending -- the capture comes first.
      held_data_.push_back(std::move(pkt));
      return;
    }
    net_->on_wire_delivery(std::move(pkt), nowd());
    got_data_ = true;
    return;
  }
  // Control frames are queued for the main loop: the payload must be copied
  // out (FrameView data is transient), and handling them inline could
  // reenter a drain pass that is itself pumping the socket.
  ControlMsg m;
  m.type = v.type;
  m.src = src;
  m.epoch = v.epoch;
  m.payload.assign(v.data, v.data + v.size);
  ctrl_.push_back(std::move(m));
}

std::size_t DistributedEngine::pump_io(int timeout_ms) {
  if (!node_) return 0;
  const std::size_t n = node_->pump(timeout_ms);
  if (got_data_) {
    got_data_ = false;
    net_->flush_acks(rank_, nowd());
  }
  net_->poll(rank_, nowd());
  return n;
}

void DistributedEngine::apply_restore(const Checkpoint& ck) {
  restore_checkpoint(ck, lps_, last_promise_);
  // The channel layer resets outright -- fresh cursors, nothing in flight.
  // Epoch filtering in the socket node keeps the abandoned timeline's data
  // frames from ever reaching the reset stack.
  net_->reset();
  for (auto& buf : commit_buf_) buf.clear();
  held_data_.clear();  // frames of the abandoned timeline
  cut_.reset();
  phase_ = Phase::kIdle;
  // Everything belonging to rounds past the restore point is from the
  // abandoned timeline: partial assemblies, retained commit batches, and
  // (crucially) spilled snapshots a later succession could restore from.
  // drop_above never touches the ring's maximum round, so a `store_
  // .latest()` pointer the caller holds for THIS restore stays valid.
  pending_ck_.clear();
  unreleased_.erase(unreleased_.upper_bound(ck.round), unreleased_.end());
  retained_batches_.erase(retained_batches_.upper_bound(ck.round),
                          retained_batches_.end());
  if (ft_on_) store_.drop_above(ck.round);
  adopt_partition();
  safe_bound_ = ck.gvt;
  self_.events_since_round = 0;
  in_round_ = false;
}

void DistributedEngine::encode_lp_share(bytes::Writer& w, LpId id,
                                        const LpCheckpoint& lpck,
                                        double work) {
  w.u32(id);
  w.f64(work);
  w.vt(last_promise_[id]);
  std::vector<std::uint8_t> tmp;
  bool has_state = false;
  if (lpck.state) {
    bytes::Writer sw(tmp);
    has_state = graph_.lp(id).encode_state(*lpck.state, sw);
    if (!has_state) tmp.clear();
  }
  w.u8(has_state ? 1 : 0);
  w.blob(tmp);
  tmp.clear();
  bytes::Writer pw(tmp);
  encode_lp_checkpoint(pw, lpck);
  w.blob(tmp);
}

bool DistributedEngine::decode_lp_share(bytes::Reader& r, LpId* id,
                                        LpCheckpoint* out, double* work,
                                        VirtualTime* promise,
                                        std::vector<std::uint8_t>* state_bytes) {
  *id = r.u32();
  *work = r.f64();
  *promise = r.vt();
  const bool has_state = r.u8() != 0;
  std::vector<std::uint8_t> sbytes = r.blob();
  bytes::Reader pr = r.sub();
  if (!r.ok() || *id >= graph_.size()) return false;
  LpCheckpoint ck;
  if (!decode_lp_checkpoint(pr, &ck) || !pr.exhausted()) return false;
  if (has_state) {
    bytes::Reader sr(sbytes.data(), sbytes.size());
    ck.state = graph_.lp(*id).decode_state(sr);
    if (!ck.state) return false;
  }
  if (state_bytes != nullptr) {
    if (has_state)
      *state_bytes = std::move(sbytes);
    else
      state_bytes->clear();
  }
  *out = std::move(ck);
  return true;
}

// ---------------------------------------------------------------------------
// run(): seed, resume/baseline, fork every rank, then supervise.
// ---------------------------------------------------------------------------

RunStats DistributedEngine::run() {
  RunStats out;
  if (config_error_) {
    out.config_error = config_error_;
    return out;
  }
  if (hook_) commit_buf_.resize(graph_.size());
  seed_initial_events();

  // Restart path: revive the cluster from the newest durable snapshot in
  // the spill dir, skipping torn/corrupt files.  A dir with no valid
  // snapshot is a cold start from the seed events, not an error.
  std::uint64_t resume_round = 0;
  if (ft_on_ && config_.checkpoint.resume) {
    std::uint64_t skipped = 0;
    std::optional<Checkpoint> ck =
        CheckpointStore::load_newest_valid(config_.checkpoint.spill_dir,
                                           &skipped);
    (void)skipped;
    if (ck) {
      if (ck->lps.size() != graph_.size() ||
          ck->last_promise.size() != graph_.size() ||
          ck->state_blobs.size() != graph_.size()) {
        out.config_error = ConfigError{
            "checkpoint.resume",
            "spilled snapshot does not match this LP graph"};
        config_error_ = out.config_error;
        return out;
      }
      for (LpId id = 0; id < graph_.size(); ++id) {
        if (ck->state_blobs[id].empty()) continue;
        bytes::Reader sr(ck->state_blobs[id].data(),
                         ck->state_blobs[id].size());
        ck->lps[id].state = graph_.lp(id).decode_state(sr);
        if (!ck->lps[id].state) {
          out.config_error = ConfigError{
              "checkpoint.resume",
              "LP '" + graph_.lp(id).name() +
                  "': spilled state failed to decode"};
          config_error_ = out.config_error;
          return out;
        }
      }
      for (LpId id = 0; id < graph_.size(); ++id)
        lps_[id].restore_from(ck->lps[id]);
      last_promise_ = ck->last_promise;
      safe_bound_ = ck->gvt;
      resume_round = ck->round;
    }
  }

  if (ft_on_) {
    // Baseline checkpoint, taken before the fork: every rank inherits the
    // store copy, so recovery always has a line to rewind to even when the
    // first kill precedes the first periodic checkpoint.
    Checkpoint ck0 =
        capture_checkpoint(resume_round, safe_bound_, lps_, last_promise_);
    // Probe the byte codecs up front: recovery must be able to ship every
    // LP's state across a process boundary, and failing at the first kill
    // would be a far worse place to find out.  The probe output doubles as
    // the baseline's state blobs, making the spilled file self-contained.
    ck0.state_blobs.assign(graph_.size(), {});
    for (LpId id = 0; id < graph_.size(); ++id) {
      if (!ck0.lps[id].state) continue;  // can_save_state()==false is fine
      std::vector<std::uint8_t> tmp;
      bytes::Writer w(tmp);
      if (!graph_.lp(id).encode_state(*ck0.lps[id].state, w)) {
        out.config_error = ConfigError{
            "graph", "LP '" + graph_.lp(id).name() +
                         "' has state but no byte codec "
                         "(LogicalProcess::encode_state); distributed "
                         "fault tolerance cannot ship it between processes"};
        config_error_ = out.config_error;
        return out;
      }
      ck0.state_blobs[id] = std::move(tmp);
    }
    gvt_rounds_ = max_round_seen_ = resume_round;
    gate_.rewind(safe_bound_);
    store_.put(std::move(ck0));
    ++ckstats_.checkpoints;
  }

  // Fork ALL ranks 0..P-1; this process becomes the supervisor.  Children
  // never return from run(): they _exit, so no test-harness state unwinds
  // twice.  Result pipes are created first so every child can close the
  // ends it does not own.
  std::fflush(nullptr);
  pipe_r_.assign(nranks_, -1);
  std::vector<int> pipe_w(nranks_, -1);
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      for (std::uint32_t k = 0; k < r; ++k) {
        ::close(pipe_r_[k]);
        ::close(pipe_w[k]);
      }
      pipe_r_.assign(nranks_, -1);
      out.config_error = ConfigError{
          "net", std::string("pipe failed: ") + std::strerror(errno)};
      return out;
    }
    pipe_r_[r] = fds[0];
    pipe_w[r] = fds[1];
  }
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (std::uint32_t k = 0; k < r; ++k)
        if (pids_[k] > 0) ::kill(pids_[k], SIGKILL);
      reap_children(true);
      for (std::uint32_t k = 0; k < nranks_; ++k) {
        ::close(pipe_r_[k]);
        ::close(pipe_w[k]);
      }
      pipe_r_.assign(nranks_, -1);
      out.config_error = ConfigError{
          "net", std::string("fork failed: ") + std::strerror(errno)};
      return out;
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() == 1) _exit(4);  // supervisor already gone
      std::signal(SIGPIPE, SIG_IGN);   // a dead supervisor must not kill us
      rank_ = r;
      is_child_ = true;
      pipe_w_ = pipe_w[r];
      for (std::uint32_t k = 0; k < nranks_; ++k) {
        ::close(pipe_r_[k]);
        if (k != r) ::close(pipe_w[k]);
      }
      pipe_r_.assign(nranks_, -1);
      child_main();  // noreturn
    }
    pids_[r] = static_cast<int>(pid);
  }
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    ::close(pipe_w[r]);
    ::fcntl(pipe_r_[r], F_SETFL, O_NONBLOCK);
  }
  supervisor_main(out);
  reap_children(true);
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    if (pipe_r_[r] >= 0) ::close(pipe_r_[r]);
    pipe_r_[r] = -1;
  }
  return out;
}

void DistributedEngine::reap_children(bool force) {
  if (is_child_) return;
  const std::int64_t deadline = net::now_ms() + 2000;
  for (;;) {
    bool all = true;
    for (std::uint32_t r = 0; r < nranks_; ++r) {
      if (pids_[r] <= 0 || reaped_[r]) continue;
      int status = 0;
      const pid_t got = ::waitpid(pids_[r], &status, WNOHANG);
      if (got == pids_[r] || (got < 0 && errno == ECHILD)) {
        reaped_[r] = true;
      } else {
        all = false;
      }
    }
    if (all || !force) return;
    if (net::now_ms() >= deadline) {
      for (std::uint32_t r = 0; r < nranks_; ++r) {
        if (pids_[r] <= 0 || reaped_[r]) continue;
        ::kill(pids_[r], SIGKILL);
        ::waitpid(pids_[r], nullptr, 0);
        reaped_[r] = true;
      }
      return;
    }
    ::usleep(1000);
  }
}

// ---------------------------------------------------------------------------
// Unified per-rank driver.
// ---------------------------------------------------------------------------

void DistributedEngine::child_main() {
  // Before the mesh comes up: a faster rank's data can arrive while this
  // one still waits for its startup barrier, and delivery needs the queue.
  adopt_partition();
  setup_stack_or_die();
  if (config_error_) {
    // Only rank 0 can get here (other ranks _exit inside setup); it owns
    // reporting startup failure through its pipe.
    RunStats rs;
    rs.config_error = config_error_;
    pipe_final(rs);
    _exit(5);
  }
  main_loop();
  // Only the final coordinator falls out of main_loop (workers _exit on
  // their stop/abort paths).
  RunStats rs;
  coordinator_finish(rs);
  pipe_final(rs);
  _exit(failed_ ? 2 : 0);
}

void DistributedEngine::main_loop() {
  while (!stopping_) {
    const bool busy = in_round_ || recovering_;
    const std::size_t io = pump_io(busy || idle_spins_ < 2 ? 0 : 1);

    while (!ctrl_.empty()) {
      ControlMsg m = std::move(ctrl_.front());
      ctrl_.pop_front();
      handle_ctrl(m);
    }
    if (stopping_) break;

    if (rank_ == coord_) {
      if (check_deaths()) {
        if (!coordinator_recover()) break;
        continue;
      }
    } else {
      if (monitor_cluster()) continue;  // just promoted: restart as coord
      if (auto err = net_->error()) rank_abort_transport(*err);
    }

    if (in_round_ || recovering_) continue;
    cut_step();

    bool processed = false;
    DistRouter router(*this);
    // Bounded lag: a rank runs at most kMaxLagIntervals GVT intervals past
    // the last GVT it applied.  A healthy round closes well inside that; a
    // stalled one (a peer died and is not yet recovered around) holds the
    // rank instead of letting it speculate without bound.
    const std::uint64_t lag_cap =
        std::uint64_t{kMaxLagIntervals} * config_.gvt_interval;
    for (std::uint32_t slice = 0;
         slice < kEventSlice && self_.events_since_round < lag_cap; ++slice) {
      if (!try_process_one(self_, router)) break;
      processed = true;
      if (cut_.is_open()) metrics_.shard(0).inc(obs::Metric::kCutEvents);
      if (ft_on_ && crash_.fire(rank_, self_.stats.events)) {
        // Crash-stop: vanish without flushing anything, as SIGKILL would.
        ::raise(SIGKILL);
        _exit(9);
      }
      if (!ctrl_.empty()) break;
    }
    if (processed || io > 0) {
      idle_spins_ = 0;
    } else {
      ++idle_spins_;
    }

    if (rank_ == coord_) {
      if (!coordinator_step()) break;
    } else if (!round_req_sent_ &&
               (self_.events_since_round >= config_.gvt_interval ||
                idle_spins_ == kIdleSpinRound)) {
      // Ask the coordinator for a round; once per round keeps the control
      // plane quiet (the coordinator has its own interval trigger too).
      round_req_sent_ = true;
      node_->send(coord_, net::FrameType::kRoundReq, {});
    }
  }
}

void DistributedEngine::handle_ctrl(const ControlMsg& m) {
  if (m.epoch > max_epoch_seen_) max_epoch_seen_ = m.epoch;
  if (rank_ == coord_)
    coordinator_handle(m);
  else
    rank_handle(m);
}

bool DistributedEngine::monitor_cluster() {
  // Deterministic succession from kernel evidence: this rank takes over
  // exactly when the connections of the coordinator AND of every live rank
  // below it are lost, i.e. those processes are gone.  For a given surviving
  // set exactly one rank's condition can become true, so two survivors can
  // never promote concurrently.  Silence promotes nobody: a wedged rank
  // below us ends the run instead.
  bool all_lost = true;
  for (std::uint32_t r = 0; r < rank_; ++r) {
    if (retired_[r]) continue;
    const net::PeerVerdict v =
        node_->verdict(r, config_.net.heartbeat_timeout_ms);
    if (v == net::PeerVerdict::kUnresponsive)
      fail_from_rank(r, unresponsive_message(r));
    if (v == net::PeerVerdict::kAlive) all_lost = false;
  }
  if (!all_lost) return false;
  if (ft_on_ && !is_successor(rank_))
    fail_from_rank(coord_,
                   "coordinator and every checkpoint replica died; no "
                   "surviving rank holds a snapshot to take over from");
  // Without fault tolerance the lowest survivor still promotes -- not to
  // recover, but so coordinator_recover can fail the run with the same
  // structured "died without fault tolerance" error a worker death gets.
  promote_self();
  return true;
}

std::string DistributedEngine::unresponsive_message(std::uint32_t r) const {
  return "rank " + std::to_string(r) + " unresponsive for " +
         std::to_string(net::now_ms() - node_->last_heard_ms(r)) + " ms";
}

void DistributedEngine::promote_self() {
  coord_ = rank_;
  // Term-level epoch bump: past everything we have ever seen, offset by our
  // rank so even two theoretically-concurrent promotions (which succession
  // already prevents) could not mint the same epoch.
  const std::uint32_t term =
      (std::max(epoch_, max_epoch_seen_) >> kEpochSeqBits) + 1 + rank_;
  epoch_ = term << kEpochSeqBits;
  if (epoch_ > max_epoch_seen_) max_epoch_seen_ = epoch_;
  node_->set_epoch(epoch_);
  // Rounds stay globally monotone across the takeover: never hand out a
  // round number at or below one the old regime might have released.
  gvt_rounds_ = std::max(gvt_rounds_, max_round_seen_);
  in_round_ = false;
  release_held_data();
  recovering_ = false;
  round_req_sent_ = false;
  phase_ = Phase::kIdle;
  cut_.reset();
  round_req_ = false;
  // Output-commit handoff: re-emit every batch this successor retained.
  // The supervisor dedups by round, so batches the old coordinator already
  // released are dropped there and batches it never released emit exactly
  // once -- the committed trace is seamless across the failover.
  for (auto& [round, batch] : retained_batches_)
    pipe_commit_batch(round, batch, false);
  retained_batches_.clear();
  succ_ack_.assign(nranks_, 0);
  last_round_ms_ = net::now_ms();
  gate_.rewind(safe_bound_);  // the first post-promotion round never stalls
}

void DistributedEngine::fail_from_rank(std::uint32_t worker,
                                       std::string message) {
  // A structured failure beats a silent hang: this rank reports it as the
  // run's result and stops everyone it can still reach.
  fail_run(worker, std::move(message));
  RunStats rs;
  coordinator_finish(rs);
  pipe_final(rs);
  _exit(2);
}

// ---------------------------------------------------------------------------
// Worker duties (rank_ != coord_).
// ---------------------------------------------------------------------------

void DistributedEngine::rank_handle(const ControlMsg& m) {
  using net::FrameType;
  if (m.type == FrameType::kAbort) _exit(2);
  if (m.type == FrameType::kRecover) {
    rank_apply_recover(m);
    return;
  }
  if (m.epoch != epoch_) return;  // stale control from before a recovery
  switch (m.type) {
    case FrameType::kDrain:
      rank_drain(m);
      break;
    case FrameType::kGvtSet:
      rank_apply_gvt(m);
      break;
    case FrameType::kResume:
      recovering_ = false;
      in_round_ = false;
      break;
    case FrameType::kCkptData:
      // Successors assemble every rank's share, exactly as the coordinator
      // does; that replica is what makes the coordinator's death survivable.
      if (ft_on_ && is_successor(rank_)) ckpt_ingest(m.src, m);
      break;
    default:
      break;  // kHello/kHeartbeat handled below us; rest is coordinator-only
  }
}

DistributedEngine::DrainVote DistributedEngine::drain_vote() {
  // The mesh is lossless, so only a stacked FaultyTransport leaves anything
  // to push out: its holdbacks, and the reliable layer's unacked packets,
  // force-resent once per pass.
  voting_ = true;
  release_held_data();
  net_->flush(rank_, nowd());
  const std::int64_t deadline = net::now_ms() + kDrainFlushBudgetMs;
  while (!node_->all_flushed() && net::now_ms() < deadline) pump_io(1);
  pump_io(0);
  voting_ = false;

  DrainVote v;
  v.got = true;
  v.error = net_->error().has_value();
  v.quiescent = v.error || (net_->quiescent() && node_->all_flushed());
  v.local_min = self_.ready.min_key();
  v.events = self_.stats.events;
  v.sent = net_->sent_counts(rank_);
  v.delivered = net_->delivered_counts(rank_);
  return v;
}

void DistributedEngine::cut_step() {
  if (!cut_.whites_in(*net_, rank_)) return;
  DrainVote v;
  v.got = true;
  v.error = net_->error().has_value();
  v.local_min = cut_.report(self_.ready.min_key());
  v.events = self_.stats.events;
  if (rank_ == coord_)
    votes_[rank_] = std::move(v);
  else
    send_vote(cut_round_, Phase::kReport, 0, v, /*snapshot=*/true);
}

void DistributedEngine::send_vote(std::uint64_t round, Phase wave,
                                  std::uint32_t pass, const DrainVote& v,
                                  bool snapshot) {
  std::vector<std::uint8_t> p;
  bytes::Writer w(p);
  w.u64(round);
  w.u8(static_cast<std::uint8_t>(wave));
  w.u32(pass);
  w.u8(v.quiescent ? 1 : 0);
  w.u8(v.error ? 1 : 0);
  w.vt(v.local_min);
  w.u64(v.events);
  encode_counts(w, v.sent);
  encode_counts(w, v.delivered);
  if (snapshot) {
    // Piggyback a metrics snapshot on every GVT report: the coordinator
    // keeps the latest per rank, so observability survives the rank dying
    // later.
    metrics_.merge();
    std::vector<std::uint8_t> snap;
    bytes::Writer sw(snap);
    obs::encode_snapshot(sw, metrics_.merged());
    w.u8(1);
    w.blob(snap);
  } else {
    w.u8(0);
  }
  node_->send(coord_, net::FrameType::kDrainAck, p);
}

void DistributedEngine::rank_drain(const ControlMsg& m) {
  bytes::Reader r(m.payload.data(), m.payload.size());
  const std::uint64_t round = r.u64();
  const auto wave = static_cast<Phase>(r.u8());
  const std::uint32_t pass = r.u32();
  if (!r.ok()) return;
  note_round(round);
  switch (wave) {
    case Phase::kCut: {
      // Wave 1: take the white counts and keep executing.
      cut_round_ = round;
      DrainVote v;
      v.sent = cut_.open(*net_, rank_);
      send_vote(round, wave, 0, v, false);
      break;
    }
    case Phase::kReport: {
      std::vector<std::uint64_t> targets = decode_counts(r, nranks_);
      if (!r.ok() || round != cut_round_ || !cut_.is_open()) return;
      cut_.set_targets(std::move(targets));
      cut_step();
      break;
    }
    case Phase::kStop:
      in_round_ = true;  // parked until this round's kGvtSet
      send_vote(round, wave, pass, drain_vote(), false);
      break;
    case Phase::kIdle:
      break;
  }
}

void DistributedEngine::rank_apply_gvt(const ControlMsg& m) {
  bytes::Reader r(m.payload.data(), m.payload.size());
  const std::uint64_t round = r.u64();
  const VirtualTime gvt = r.vt();
  const bool stop = r.u8() != 0;
  const bool ckpt_due = r.u8() != 0;
  if (!r.ok()) return;
  safe_bound_ = gvt;
  note_progress(gvt);
  note_round(round);
  store_relaxed(dump_rounds_, round);
  if (stop) rank_finish();
  apply_gvt_local(round, gvt, ckpt_due);
  release_held_data();
}

void DistributedEngine::release_held_data() {
  for (Packet& pkt : held_data_) net_->on_wire_delivery(std::move(pkt), nowd());
  got_data_ = got_data_ || !held_data_.empty();
  held_data_.clear();
}

void DistributedEngine::rank_apply_recover(const ControlMsg& m) {
  bytes::Reader r(m.payload.data(), m.payload.size());
  const std::uint32_t new_epoch = r.u32();
  const std::uint32_t recov = r.u32();
  if (!r.ok() || new_epoch <= epoch_) return;  // replay of an older recovery
  Checkpoint ck;
  ck.round = r.u64();
  ck.gvt = r.vt();
  const std::uint64_t ndead = r.u64();
  std::set<std::uint32_t> dead;
  for (std::uint64_t i = 0; r.ok() && i < ndead; ++i) dead.insert(r.u32());
  if (!r.ok()) return;
  // Plausibility fence on the sender: a legitimate recovery is only ever
  // led by the lowest live rank, and never by or over a rank it declares
  // dead.  A hostile or confused frame that fails this is dropped whole.
  if (dead.count(m.src) != 0) return;
  for (std::uint32_t q = 0; q < m.src; ++q)
    if (!retired_[q] && dead.count(q) == 0) return;
  if (dead.count(rank_) != 0) _exit(3);  // we were declared dead: step down
  note_round(ck.round);
  for (const std::uint32_t d : dead) {
    if (d >= nranks_ || retired_[d]) continue;
    retired_[d] = true;
    node_->retire_peer(d);
    ++ckstats_.crashes;
  }
  recoveries_ = std::max(recoveries_, recov);
  ++ckstats_.recoveries;
  const std::uint64_t npart = r.u64();
  if (!r.ok() || npart != graph_.size()) _exit(6);
  Partition part(graph_.size());
  for (LpId id = 0; id < graph_.size(); ++id) part[id] = r.u32();
  const std::uint64_t nlp = r.u64();
  if (!r.ok() || nlp != graph_.size()) _exit(6);
  ck.lps.resize(graph_.size());
  ck.last_promise.assign(graph_.size(), kTimeZero);
  ck.state_blobs.assign(graph_.size(), {});
  for (LpId id = 0; id < graph_.size(); ++id) {
    LpId got = 0;
    double work = 0.0;
    VirtualTime promise;
    LpCheckpoint lpck;
    std::vector<std::uint8_t> sbytes;
    if (!decode_lp_share(r, &got, &lpck, &work, &promise, &sbytes) ||
        got != id)
      _exit(6);
    ck.lps[id] = std::move(lpck);
    ck.last_promise[id] = promise;
    ck.state_blobs[id] = std::move(sbytes);
  }
  if (!r.ok()) _exit(6);

  epoch_ = new_epoch;
  if (epoch_ > max_epoch_seen_) max_epoch_seen_ = epoch_;
  node_->set_epoch(epoch_);
  coord_ = m.src;
  partition_ = std::move(part);
  apply_restore(ck);
  ckstats_.lps_restored += lps_.size();
  // A successor re-stores the restore point under the new regime, so the
  // coordinator's release rule ("every live successor holds round N") stays
  // true across the recovery for new members of the successor set.
  if (ft_on_ && is_successor(rank_) &&
      !(store_.latest() != nullptr && store_.latest()->round == ck.round)) {
    store_.put(std::move(ck));
    ++ckstats_.checkpoints;
  }
  recovering_ = true;
  round_req_sent_ = false;
  store_relaxed(dump_recoveries_, static_cast<std::uint64_t>(recoveries_));
  node_->send(coord_, net::FrameType::kRecoverDone, {});
}

void DistributedEngine::fold_node_counters() {
  auto& sh = metrics_.shard(0);
  const net::NodeCounters& nc = node_->counters();
  sh.inc(obs::Metric::kNetFramesSent, nc.frames_sent);
  sh.inc(obs::Metric::kNetFramesRecv, nc.frames_recv);
  sh.inc(obs::Metric::kNetHeartbeats, nc.heartbeats_sent);
  sh.inc(obs::Metric::kNetDisconnects, nc.disconnects);
  sh.inc(obs::Metric::kNetCrcErrors, nc.crc_errors);
}

void DistributedEngine::rank_send_stats() {
  metrics_.merge();  // fold per-event counters before attaching node totals
  fold_node_counters();
  metrics_.merge();

  std::vector<std::uint8_t> p;
  bytes::Writer w(p);
  w.u64(owned_.size());
  for (const LpId lp : owned_) {
    w.u32(lp);
    encode_lp_stats(w, lps_[lp].stats());
  }
  encode_worker_stats(w, self_.stats);
  encode_transport_counters(w, net_->counters());
  // Blocked-LP diagnostics for the coordinator's deadlock report: its own
  // copies of our LPs stopped updating at the fork.
  encode_diag(w, deadlock_report(safe_bound_, rank_).blocked);
  std::vector<std::uint8_t> snap;
  bytes::Writer sw(snap);
  obs::encode_snapshot(sw, metrics_.merged());
  w.blob(snap);
  node_->send(coord_, net::FrameType::kStats, p);
}

void DistributedEngine::rank_finish() {
  DistRouter router(*this);
  for (const LpId lp : owned_) lps_[lp].fossil_collect(kTimeInf, router);
  // The commit tail skips the coordinator.  The coordinator piped every
  // held round batch before it sent the stop order, and the supervisor
  // drains its pipes in rank order with the coordinator lowest, so the
  // tail lands after every batch that precedes it.  kStats goes out only
  // once the tail sits in the pipe: the coordinator's kFinal, which lets
  // the supervisor stop reading, waits for it.
  pipe_commit_batch(0, commit_buf_, true);
  rank_send_stats();
  const std::int64_t deadline = net::now_ms() + 1000;
  while (!node_->all_flushed() && net::now_ms() < deadline) pump_io(1);
  _exit(0);
}

void DistributedEngine::rank_abort_transport(const TransportError& err) {
  std::vector<std::uint8_t> p;
  bytes::Writer w(p);
  w.u8(1);  // kind: transport-error report
  encode_transport_error(w, err);
  node_->send(coord_, net::FrameType::kAbort, p);
  const std::int64_t deadline = net::now_ms() + 1000;
  while (!node_->all_flushed() && net::now_ms() < deadline) pump_io(1);
  _exit(2);
}

// ---------------------------------------------------------------------------
// Coordinator duties (rank_ == coord_; initially rank 0, after a failover
// whichever successor promoted itself).
// ---------------------------------------------------------------------------

void DistributedEngine::broadcast(net::FrameType type,
                                  const std::vector<std::uint8_t>& p) {
  for (std::uint32_t r = 0; r < nranks_; ++r)
    if (r != rank_ && !retired_[r]) node_->send(r, type, p);
}

void DistributedEngine::coordinator_handle(const ControlMsg& m) {
  using net::FrameType;
  switch (m.type) {
    case FrameType::kRoundReq:
      if (m.epoch == epoch_) round_req_ = true;
      break;
    case FrameType::kDrainAck: {
      if (m.epoch != epoch_ || m.src >= nranks_ || retired_[m.src]) break;
      bytes::Reader r(m.payload.data(), m.payload.size());
      const std::uint64_t round = r.u64();
      const auto wave = static_cast<Phase>(r.u8());
      const std::uint32_t pass = r.u32();
      DrainVote v;
      v.quiescent = r.u8() != 0;
      v.error = r.u8() != 0;
      v.local_min = r.vt();
      v.events = r.u64();
      v.sent = decode_counts(r, nranks_);
      v.delivered = decode_counts(r, nranks_);
      const bool has_snap = r.u8() != 0;
      if (has_snap) {
        bytes::Reader sr = r.sub();
        obs::MetricsSnapshot snap;
        if (r.ok() && obs::decode_snapshot(sr, &snap)) {
          rank_snapshots_[m.src] = std::move(snap);
          rank_snapshot_got_[m.src] = true;
        }
      }
      if (!r.ok()) break;
      if (phase_ != Phase::kIdle && wave == phase_ && round == gvt_rounds_ &&
          pass == cur_pass_) {
        v.got = true;
        votes_[m.src] = std::move(v);
      }
      break;
    }
    case FrameType::kCkptData:
      if (m.epoch == epoch_) ckpt_ingest(m.src, m);
      break;
    case FrameType::kCkptAck: {
      if (m.epoch != epoch_ || m.src >= nranks_ || retired_[m.src]) break;
      bytes::Reader r(m.payload.data(), m.payload.size());
      const std::uint64_t round = r.u64();
      if (!r.ok()) break;
      if (round > succ_ack_[m.src]) succ_ack_[m.src] = round;
      try_release_batches();
      break;
    }
    case FrameType::kRecover:
      // A successor believed us dead and promoted itself.  Its term-level
      // epoch outranks ours: step down immediately rather than run a
      // split-brain cluster (our commits past its restore point were never
      // released -- the release rule required that successor's ack).
      if (m.epoch > epoch_) _exit(3);
      break;
    case FrameType::kRecoverDone:
      if (m.epoch == epoch_ && m.src < nranks_) recover_done_[m.src] = true;
      break;
    case FrameType::kStats: {
      if (m.src >= nranks_ || stats_got_[m.src]) break;
      bytes::Reader r(m.payload.data(), m.payload.size());
      const std::uint64_t nlps = r.u64();
      std::vector<std::pair<LpId, LpStats>> lp_stats;
      for (std::uint64_t i = 0; r.ok() && i < nlps; ++i) {
        const LpId id = r.u32();
        const LpStats s = decode_lp_stats(r);
        if (id < graph_.size()) lp_stats.emplace_back(id, s);
      }
      const WorkerStats ws = decode_worker_stats(r);
      const TransportCounters tc = decode_transport_counters(r);
      std::vector<DeadlockReport::LpDiag> diag;
      decode_diag(r, &diag);
      bytes::Reader sr = r.sub();
      obs::MetricsSnapshot snap;
      const bool snap_ok = r.ok() && obs::decode_snapshot(sr, &snap);
      if (!r.ok()) break;
      stats_got_[m.src] = true;
      for (auto& [id, s] : lp_stats) {
        final_lp_stats_[id] = s;
        final_lp_got_[id] = true;
      }
      final_worker_stats_[m.src] = ws;
      // Safe without dedup: a link's send-side rows are only ever touched on
      // the source rank and its receive-side rows on the destination rank.
      remote_transport_ += tc;
      remote_diag_.insert(remote_diag_.end(), diag.begin(), diag.end());
      if (snap_ok) {
        rank_snapshots_[m.src] = std::move(snap);
        rank_snapshot_got_[m.src] = true;
      }
      break;
    }
    case FrameType::kAbort: {
      bytes::Reader r(m.payload.data(), m.payload.size());
      const std::uint8_t kind = r.u8();
      if (kind == 1) {
        TransportError err = decode_transport_error(r);
        if (r.ok() && !remote_transport_error_)
          remote_transport_error_ = std::move(err);
      }
      break;
    }
    default:
      break;
  }
}

bool DistributedEngine::votes_in() const {
  for (std::uint32_t r = 0; r < nranks_; ++r)
    if (!retired_[r] && !votes_[r].got) return false;
  return true;
}

DistributedEngine::Wait DistributedEngine::coordinator_collect_votes() {
  while (!votes_in()) {
    pump_io(1);
    while (!ctrl_.empty()) {
      ControlMsg m = std::move(ctrl_.front());
      ctrl_.pop_front();
      handle_ctrl(m);
    }
    if (check_deaths()) return Wait::kDied;
  }
  return Wait::kOk;
}

std::vector<std::uint8_t> DistributedEngine::drain_payload(
    std::uint64_t round, Phase wave, std::uint32_t pass) {
  std::vector<std::uint8_t> p;
  bytes::Writer w(p);
  w.u64(round);
  w.u8(static_cast<std::uint8_t>(wave));
  w.u32(pass);
  return p;
}

bool DistributedEngine::coordinator_step() {
  // A failed transport may never deliver the whites a report waits for:
  // close the round now, and RoundGate stops the run.
  if (phase_ != Phase::kIdle &&
      (net_->error().has_value() || remote_transport_error_.has_value()))
    return close_round();
  switch (phase_) {
    case Phase::kIdle: {
      // Time-based fallback: even if activity accounting keeps the spin
      // counter low, a round every ~50ms guarantees GVT (and termination
      // detection) always advances on a quiet cluster.
      const bool want_round = round_req_ || net_->error().has_value() ||
                              remote_transport_error_.has_value() ||
                              self_.events_since_round >= config_.gvt_interval ||
                              idle_spins_ >= kIdleSpinRound ||
                              net::now_ms() >= last_round_ms_ + 50;
      if (want_round) open_round();
      return true;
    }
    case Phase::kCut: {
      if (!votes_in()) return true;
      // Every cut is in: rank d must take delivery of sent[s][d] white
      // packets from every s before it reports.
      std::vector<std::vector<std::uint64_t>> sent(nranks_);
      for (std::uint32_t r = 0; r < nranks_; ++r)
        if (!retired_[r]) sent[r] = std::move(votes_[r].sent);
      for (auto& v : votes_) v = DrainVote{};
      phase_ = Phase::kReport;
      for (std::uint32_t r = 0; r < nranks_; ++r) {
        if (retired_[r]) continue;
        std::vector<std::uint64_t> targets = GvtCut::white_targets(sent, r);
        if (r == rank_) {
          cut_.set_targets(std::move(targets));
          continue;
        }
        std::vector<std::uint8_t> p = drain_payload(gvt_rounds_,
                                                    Phase::kReport, 0);
        bytes::Writer w(p);
        encode_counts(w, targets);
        node_->send(r, net::FrameType::kDrain, p);
      }
      cut_step();
      return true;
    }
    case Phase::kReport:
      cut_step();
      return votes_in() ? close_round() : true;
    case Phase::kStop:
      break;  // stop drains run to completion inside close_round()
  }
  return true;
}

void DistributedEngine::open_round() {
  idle_spins_ = 0;
  ++gvt_rounds_;
  gate_.begin_round();
  note_round(gvt_rounds_);
  round_req_ = false;
  metrics_.shard(0).inc(obs::Metric::kGvtRounds);
  store_relaxed(dump_rounds_, gvt_rounds_);
  for (auto& v : votes_) v = DrainVote{};
  phase_ = Phase::kCut;
  cur_pass_ = 0;
  cut_round_ = gvt_rounds_;
  votes_[rank_].got = true;
  votes_[rank_].sent = cut_.open(*net_, rank_);
  broadcast(net::FrameType::kDrain,
            drain_payload(gvt_rounds_, Phase::kCut, 0));
}

bool DistributedEngine::close_round() {
  const std::uint64_t round = gvt_rounds_;
  VirtualTime gvt = kTimeInf;
  bool vote_error = false;
  std::uint64_t total_events = 0;
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    if (retired_[r]) continue;
    const DrainVote& v = votes_[r];
    vote_error = vote_error || v.error;
    gvt = std::min(gvt, v.local_min);
    total_events += v.events;
  }
  phase_ = Phase::kIdle;
  cut_.reset();  // a round closed early on an error may leave ours open
  last_round_ms_ = net::now_ms();

  safe_bound_ = gvt;
  note_progress(gvt);
  transport_failed_ = vote_error || net_->error().has_value() ||
                      remote_transport_error_.has_value();
  verdict_ = gate_.judge(gvt, total_events, transport_failed_);
  deadlocked_ = verdict_.deadlock;
  bool stop = verdict_.stop;
  bool ckpt_due = verdict_.checkpoint && !stop;
  if (ckpt_due) {
    // The capture needs a quiescent network: stop every rank and drain.
    // GVT stays the cut's, a valid (if older) lower bound.
    bool error = false;
    if (stop_drain(round, &error) == Wait::kDied) return coordinator_recover();
    if (error || remote_transport_error_) {
      transport_failed_ = true;
      stop = true;
      ckpt_due = false;
    }
  }
  if (stop) release_held_batches();

  std::vector<std::uint8_t> p;
  bytes::Writer w(p);
  w.u64(round);
  w.vt(gvt);
  w.u8(stop ? 1 : 0);
  w.u8(ckpt_due ? 1 : 0);
  broadcast(net::FrameType::kGvtSet, p);
  if (stop) {
    stopping_ = true;
    return false;
  }
  apply_gvt_local(round, gvt, ckpt_due);
  metrics_.merge();
  return true;
}

DistributedEngine::Wait DistributedEngine::stop_drain(std::uint64_t round,
                                                      bool* error) {
  metrics_.shard(0).inc(obs::Metric::kStopRounds);
  phase_ = Phase::kStop;
  for (cur_pass_ = 0;; ++cur_pass_) {
    for (auto& v : votes_) v = DrainVote{};
    broadcast(net::FrameType::kDrain,
              drain_payload(round, Phase::kStop, cur_pass_));
    votes_[rank_] = drain_vote();  // exactly as the ranks compute theirs
    if (coordinator_collect_votes() == Wait::kDied) {
      phase_ = Phase::kIdle;
      return Wait::kDied;
    }
    // One pass closes the drain: every rank parked before it voted, so
    // balanced counts leave nothing in flight and nothing left to send.
    bool quiet = true;
    std::vector<std::vector<std::uint64_t>> sent(nranks_);
    std::vector<std::vector<std::uint64_t>> delivered(nranks_);
    for (std::uint32_t r = 0; r < nranks_; ++r) {
      if (retired_[r]) continue;
      const DrainVote& v = votes_[r];
      quiet = quiet && v.quiescent;
      *error = *error || v.error;
      sent[r] = v.sent;
      delivered[r] = v.delivered;
    }
    if (*error || remote_transport_error_) break;
    if (quiet && GvtCut::balanced(sent, delivered)) break;
  }
  phase_ = Phase::kIdle;
  return Wait::kOk;
}

// ---------------------------------------------------------------------------
// Checkpoint fan-out, assembly and the output-commit release rule.
// ---------------------------------------------------------------------------

void DistributedEngine::apply_gvt_local(std::uint64_t round, VirtualTime gvt,
                                        bool ckpt_due) {
  // The round pipeline (DESIGN.md "GVT round pipeline"); each rank is its
  // own adaptation scope and sweeps only its dirty and due LPs.  Parked LPs'
  // blocked polls land before the capture's rollback and before adapt()
  // reads them.
  DistRouter router(*this);
  settle_credits(self_.ready);
  if (ckpt_due) ckpt_capture_and_ship(round, gvt);  // fossils every owned LP
  self_.ready.take_due(gvt);
  self_.ready.take_dirty(self_.sweep);
  sweep(self_.sweep, owned_.size(), gvt, router,
        [&](LpId) { return SweepTarget{self_.ready, true}; });
  self_.ready.rearm();
  self_.events_since_round = 0;
  store_relaxed(dump_events_, self_.stats.events);
  round_req_sent_ = false;
  in_round_ = false;
}

void DistributedEngine::ckpt_capture_and_ship(std::uint64_t round,
                                              VirtualTime gvt) {
  // Same capture discipline as the shared checkpoint path: fossil to the
  // new frontier, undo the speculative suffix without anti-messages, then
  // snapshot and fan our share of the cut out to every successor.
  DistRouter router(*this);
  // The drain left nothing in flight; only an ack for a stale duplicate of
  // an earlier pass's force-retransmission can still sit in a reorder
  // holdback, so release it before checking.
  net_->flush(rank_, nowd());
  assert(net_->quiescent() && "checkpoints require a drained network");
  undo_speculation(owned_, gvt, router, [&](LpId lp) {
    self_.ready.update(lp, lps_[lp].next_ts());
  });
  std::vector<std::uint8_t> p;
  bytes::Writer w(p);
  w.u64(round);
  w.vt(gvt);
  w.u64(owned_.size());
  for (const LpId lp : owned_) {
    const double work = orphan_work(lps_[lp].stats());
    lp_work_[lp] = work;
    const LpCheckpoint lpck = lps_[lp].make_checkpoint();
    encode_lp_share(w, lp, lpck, work);
  }
  std::uint64_t ncommits = 0;
  if (hook_)
    for (const LpId lp : owned_) ncommits += commit_buf_[lp].size();
  w.u64(ncommits);
  if (hook_) {
    for (const LpId lp : owned_) {
      for (const Event& ev : commit_buf_[lp]) encode_event(w, ev);
      commit_buf_[lp].clear();
    }
  }
  for (const std::uint32_t s : successor_set()) {
    if (s == rank_) {
      // Own share takes the exact path a remote one does, so every
      // successor -- coordinator included -- runs one assembly per round.
      ControlMsg m;
      m.type = net::FrameType::kCkptData;
      m.src = rank_;
      m.epoch = epoch_;
      m.payload = p;
      ckpt_ingest(rank_, m);
    } else {
      node_->send(s, net::FrameType::kCkptData, p);
    }
  }
}

void DistributedEngine::ckpt_ingest(std::uint32_t src, const ControlMsg& m) {
  if (src >= nranks_ || retired_[src]) return;
  bytes::Reader r(m.payload.data(), m.payload.size());
  const std::uint64_t round = r.u64();
  const VirtualTime gvt = r.vt();
  const std::uint64_t nlps = r.u64();
  if (!r.ok()) return;
  note_round(round);
  auto it = pending_ck_.find(round);
  if (it == pending_ck_.end()) {
    // Lazily create the assembly: share arrival order across ranks is
    // arbitrary (a worker's share can beat the local capture).
    CkptAssembly fresh;
    fresh.ck.round = round;
    fresh.ck.gvt = gvt;
    fresh.ck.lps.resize(graph_.size());
    fresh.ck.last_promise.assign(graph_.size(), kTimeZero);
    fresh.ck.state_blobs.assign(graph_.size(), {});
    fresh.commits.resize(graph_.size());
    fresh.got.assign(nranks_, false);
    fresh.missing = live_ranks();
    it = pending_ck_.emplace(round, std::move(fresh)).first;
  }
  CkptAssembly& as = it->second;
  if (as.got[src]) return;
  std::vector<std::tuple<LpId, LpCheckpoint, VirtualTime, double,
                         std::vector<std::uint8_t>>>
      shares;
  for (std::uint64_t i = 0; r.ok() && i < nlps; ++i) {
    LpId id = 0;
    double work = 0.0;
    VirtualTime promise;
    LpCheckpoint lpck;
    std::vector<std::uint8_t> sbytes;
    if (!decode_lp_share(r, &id, &lpck, &work, &promise, &sbytes)) return;
    shares.emplace_back(id, std::move(lpck), promise, work,
                        std::move(sbytes));
  }
  const std::uint64_t ncommits = r.u64();
  std::vector<Event> commits;
  commits.reserve(static_cast<std::size_t>(ncommits));
  for (std::uint64_t i = 0; r.ok() && i < ncommits; ++i)
    commits.push_back(decode_event(r));
  if (!r.ok()) return;
  for (auto& [id, lpck, promise, work, sbytes] : shares) {
    as.ck.lps[id] = std::move(lpck);
    as.ck.last_promise[id] = promise;
    as.ck.state_blobs[id] = std::move(sbytes);
    lp_work_[id] = work;
  }
  for (Event& ev : commits) as.commits[ev.dst].push_back(std::move(ev));
  as.got[src] = true;
  --as.missing;
  if (as.missing == 0) ckpt_complete(round);
}

void DistributedEngine::ckpt_complete(std::uint64_t round) {
  const auto it = pending_ck_.find(round);
  if (it == pending_ck_.end()) return;
  CkptAssembly as = std::move(it->second);
  pending_ck_.erase(it);
  if (rank_ == coord_) {
    // Commits covered by this snapshot park until every OTHER live
    // successor holds it too: released output must survive our own death.
    if (hook_) unreleased_[round] = std::move(as.commits);
    store_.put(std::move(as.ck));
    ++ckstats_.checkpoints;
    if (round > succ_ack_[rank_]) succ_ack_[rank_] = round;
    try_release_batches();
  } else {
    // Successor: spill durably, retain the commit batch for a possible
    // promotion re-emit, and ack so the coordinator can release.
    if (hook_) {
      retained_batches_[round] = std::move(as.commits);
      while (retained_batches_.size() > kCheckpointKeep)
        retained_batches_.erase(retained_batches_.begin());
    }
    store_.put(std::move(as.ck));
    ++ckstats_.checkpoints;
    std::vector<std::uint8_t> p;
    bytes::Writer w(p);
    w.u64(round);
    node_->send(coord_, net::FrameType::kCkptAck, p);
  }
}

void DistributedEngine::release_held_batches() {
  if (!hook_) return;
  for (auto& [round, batch] : unreleased_)
    pipe_commit_batch(round, batch, false);
  unreleased_.clear();
  if (!failed_)
    for (auto& [round, as] : pending_ck_)
      pipe_commit_batch(round, as.commits, false);
  pending_ck_.clear();
}

void DistributedEngine::try_release_batches() {
  if (!hook_) {
    unreleased_.clear();
    return;
  }
  // Release frontier: the smallest cumulative ack over the other live
  // successors.  With replicas == 1 there are none and everything releases
  // on assembly (the pre-failover behaviour).
  std::uint64_t covered = ~0ull;
  for (const std::uint32_t s : successor_set())
    if (s != rank_) covered = std::min(covered, succ_ack_[s]);
  while (!unreleased_.empty() && unreleased_.begin()->first <= covered) {
    auto it = unreleased_.begin();
    pipe_commit_batch(it->first, it->second, false);
    unreleased_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Death detection and recovery.
// ---------------------------------------------------------------------------

bool DistributedEngine::check_deaths() {
  // A lost connection is a dead rank (children cannot waitpid siblings, but
  // the kernel closes a dead process's sockets).  Silence past the timeout
  // is a wedged rank: the run ends, nobody is recovered around it.
  bool any = false;
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    if (r == rank_ || retired_[r]) continue;
    const net::PeerVerdict v =
        node_->verdict(r, config_.net.heartbeat_timeout_ms);
    if (v == net::PeerVerdict::kUnresponsive) {
      fail_run(r, unresponsive_message(r));
      return true;
    }
    any = any || v == net::PeerVerdict::kLost;
  }
  return any;
}

bool DistributedEngine::coordinator_recover() {
  const auto fail = [&](std::uint32_t worker, std::string message) {
    fail_run(worker, std::move(message));
    return false;
  };
  for (;;) {
    if (failed_) return false;
    std::uint32_t first_dead = 0;
    bool have_dead = false;
    for (std::uint32_t r = 0; r < nranks_; ++r) {
      if (r == rank_ || retired_[r] || !node_->peer_lost(r)) continue;
      retired_[r] = true;
      node_->retire_peer(r);
      ++ckstats_.crashes;
      if (!have_dead) {
        first_dead = r;
        have_dead = true;
      }
    }
    if (!have_dead) return true;
    // A dead successor can no longer ack: recompute the release frontier
    // over the survivors so covered batches are not stuck forever.
    try_release_batches();
    if (!ft_on_)
      return fail(first_dead,
                  "rank died without fault tolerance (no checkpoint "
                  "period and no crash schedule)");
    const Checkpoint* ck = recovery_point(first_dead);
    if (ck == nullptr) {
      abort_run();
      return false;
    }
    const std::uint64_t ck_round = ck->round;
    ++recoveries_;
    ++ckstats_.recoveries;
    store_relaxed(dump_recoveries_, static_cast<std::uint64_t>(recoveries_));
    // Partial assemblies belong to the abandoned timeline.
    pending_ck_.clear();

    // Orphan scores come from the shipped checkpoint shares: this rank's
    // copies of other ranks' LPs stopped updating at the fork.  Never
    // fails -- the coordinator itself survives.
    redistribute(lp_work_, first_dead);

    ++epoch_;
    if (epoch_ > max_epoch_seen_) max_epoch_seen_ = epoch_;
    node_->set_epoch(epoch_);
    std::vector<std::uint8_t> p;
    bytes::Writer w(p);
    w.u32(epoch_);
    w.u32(recoveries_);
    w.u64(ck->round);
    w.vt(ck->gvt);
    std::uint64_t ndead = 0;
    for (std::uint32_t r = 0; r < nranks_; ++r)
      if (retired_[r]) ++ndead;
    w.u64(ndead);
    for (std::uint32_t r = 0; r < nranks_; ++r)
      if (retired_[r]) w.u32(r);
    w.u64(partition_.size());
    for (const std::uint32_t owner : partition_) w.u32(owner);
    w.u64(graph_.size());
    bool codec_ok = true;
    for (LpId id = 0; id < graph_.size(); ++id) {
      // Re-encode from the stored snapshot; the codecs round-trip, so the
      // bytes match what the owning rank shipped.
      last_promise_[id] = ck->last_promise[id];  // encode_lp_share reads it
      encode_lp_share(w, id, ck->lps[id], lp_work_[id]);
      if (ck->lps[id].state) {
        std::vector<std::uint8_t> probe;
        bytes::Writer pw(probe);
        codec_ok = codec_ok && graph_.lp(id).encode_state(*ck->lps[id].state,
                                                          pw);
      }
    }
    if (!codec_ok)
      return fail(first_dead, "LP state codec failed during recovery");
    broadcast(net::FrameType::kRecover, p);

    recover_done_.assign(nranks_, false);
    recover_done_[rank_] = true;
    // drop_above inside apply_restore only removes rounds ABOVE ck's own,
    // so the `ck` pointer (the ring's maximum) survives the call.
    apply_restore(*ck);
    ckstats_.lps_restored += lps_.size() * live_ranks();

    bool redo = false;
    for (;;) {
      bool all = true;
      for (std::uint32_t r = 0; r < nranks_; ++r)
        if (!retired_[r] && !recover_done_[r]) all = false;
      if (all) break;
      pump_io(1);
      while (!ctrl_.empty()) {
        ControlMsg m = std::move(ctrl_.front());
        ctrl_.pop_front();
        handle_ctrl(m);
      }
      if (check_deaths()) {
        // A survivor died mid-recovery: restart with the larger dead set.
        redo = true;
        break;
      }
    }
    if (redo) continue;

    // Every survivor re-stored the restore point (kRecoverDone implies it):
    // seed the ack frontier there so batches the restore covers release,
    // even for ranks that just joined the successor set.
    for (const std::uint32_t s : successor_set())
      if (s != rank_ && succ_ack_[s] < ck_round) succ_ack_[s] = ck_round;
    try_release_batches();

    broadcast(net::FrameType::kResume, {});
    gate_.rewind(safe_bound_);  // the first post-recovery round never stalls
    note_progress(safe_bound_);
    round_req_ = false;
    return true;
  }
}

void DistributedEngine::fail_run(std::uint32_t worker, std::string message) {
  fail_recovery(worker, std::move(message));
  abort_run();
}

void DistributedEngine::abort_run() {
  stopping_ = true;
  std::vector<std::uint8_t> p;
  bytes::Writer w(p);
  w.u8(2);  // kind: stop order
  broadcast(net::FrameType::kAbort, p);
  const std::int64_t deadline = net::now_ms() + 500;
  while (!node_->all_flushed() && net::now_ms() < deadline) pump_io(1);
}

void DistributedEngine::coordinator_finish(RunStats& out) {
  // Release every held batch that survived.  Ack-parked batches go out
  // even on a failed run: those rounds are spilled on every successor, so
  // the released prefix stays exactly the spill coverage a resume run will
  // replay from.  The unvalidated tail (partial assemblies, the live
  // buffers) is released only on success; every other rank pipes its own
  // tail (rank_finish).
  release_held_batches();
  if (!failed_) {
    DistRouter router(*this);
    for (const LpId lp : owned_) lps_[lp].fossil_collect(kTimeInf, router);
    pipe_commit_batch(0, commit_buf_, true);
  }

  // Collect final stats from every live rank.  A rank that died at the
  // stop order (or wedged) stops being waited for, as its verdict says.
  if (!failed_) {
    for (;;) {
      bool all = true;
      for (std::uint32_t r = 0; r < nranks_; ++r)
        if (r != rank_ && !retired_[r] && !stats_got_[r] &&
            node_->verdict(r, config_.net.heartbeat_timeout_ms) ==
                net::PeerVerdict::kAlive)
          all = false;
      if (all) break;
      pump_io(1);
      while (!ctrl_.empty()) {
        ControlMsg m = std::move(ctrl_.front());
        ctrl_.pop_front();
        coordinator_handle(m);
      }
    }
  }

  fill_run_stats(out);
  for (LpId id = 0; id < graph_.size(); ++id)
    if (final_lp_got_[id]) out.per_lp[id] = final_lp_stats_[id];
  out.per_worker = final_worker_stats_;
  out.per_worker[rank_] = self_.stats;
  out.transport += remote_transport_;
  if (!out.transport_error) out.transport_error = remote_transport_error_;
  if (deadlocked_) {
    DeadlockReport report = deadlock_report(safe_bound_, rank_);
    report.blocked.insert(report.blocked.end(), remote_diag_.begin(),
                          remote_diag_.end());
    std::sort(report.blocked.begin(), report.blocked.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    out.deadlock_report = std::move(report);
  }
  out.final_coordinator = rank_;
  out.final_epoch = epoch_;

  // Metrics: fold the socket-node totals into our shard, absorb the global
  // run totals, then merge the latest per-rank snapshots (dead ranks keep
  // their last piggybacked one).
  fold_node_counters();
  finish_metrics(out);
  for (std::uint32_t r = 0; r < nranks_; ++r)
    if (r != rank_ && rank_snapshot_got_[r])
      obs::merge_snapshot(out.metrics, rank_snapshots_[r]);
}

// ---------------------------------------------------------------------------
// Result pipe (child side) and the supervisor loop (parent side).
// ---------------------------------------------------------------------------

void DistributedEngine::pipe_send(net::FrameType type,
                                  const std::vector<std::uint8_t>& p) {
  if (pipe_w_ < 0) return;
  std::vector<std::uint8_t> buf;
  net::append_frame(buf, type, epoch_, p.data(), p.size());
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(pipe_w_, buf.data() + off, buf.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // supervisor gone (SIGPIPE is ignored); nothing left to tell
  }
}

void DistributedEngine::pipe_commit_batch(
    std::uint64_t round, const std::vector<std::vector<Event>>& batch,
    bool terminal) {
  if (!hook_) return;
  // A round batch is one frame (the supervisor dedups by round); a tail,
  // which always passes the dedup, goes out in frames of kTailFrameEvents:
  // the supervisor decodes a frame only once all of it arrived, and every
  // rank pipes its tail at the same time.
  std::uint64_t left = 0;
  for (const auto& per_lp : batch) left += per_lp.size();
  std::vector<std::uint8_t> p;
  std::uint64_t in_frame = 0;
  for (const auto& per_lp : batch) {
    for (const Event& ev : per_lp) {
      bytes::Writer w(p);
      if (in_frame == 0) {
        in_frame = terminal ? std::min(left, kTailFrameEvents) : left;
        left -= in_frame;
        p.clear();
        w.u8(terminal ? 1 : 0);
        w.u64(round);
        w.u64(in_frame);
      }
      encode_event(w, ev);
      if (--in_frame == 0) pipe_send(net::FrameType::kCommit, p);
    }
  }
}

void DistributedEngine::pipe_final(const RunStats& st) {
  std::vector<std::uint8_t> p;
  bytes::Writer w(p);
  encode_run_stats(w, st, partition_);
  pipe_send(net::FrameType::kFinal, p);
}

void DistributedEngine::supervisor_main(RunStats& out) {
  std::vector<net::FrameParser> parsers;
  parsers.reserve(nranks_);
  for (std::uint32_t r = 0; r < nranks_; ++r)
    parsers.emplace_back(1u << 30);  // trusted in-kernel pipe, no peer cap
  std::vector<bool> eof(nranks_, false);
  /// Frames a rank piped that the term rule below holds back.
  struct Piped {
    net::FrameType type{};
    std::uint32_t epoch = 0;
    std::vector<std::uint8_t> payload;
  };
  std::vector<std::deque<Piped>> held(nranks_);
  std::uint32_t term = 0;  ///< newest epoch term handled so far
  std::set<std::uint64_t> emitted;
  bool got_final = false;
  bool killed_rest = false;
  std::uint32_t final_src = 0;

  const auto handle = [&](std::uint32_t src, const net::FrameView& f) {
    bytes::Reader r(f.data, f.size);
    if (f.type == net::FrameType::kCommit) {
      const bool terminal = r.u8() != 0;
      const std::uint64_t round = r.u64();
      // Round-level dedup: a promoted coordinator re-emits the batches it
      // retained, which may overlap rounds the dead coordinator already
      // released.  Terminal tails carry round 0 and always pass.
      const bool fresh = terminal || emitted.insert(round).second;
      const std::uint64_t n = r.u64();
      std::vector<Event> evs;
      evs.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; r.ok() && i < n; ++i)
        evs.push_back(decode_event(r));
      if (!r.ok() || !fresh || !hook_) return;
      for (const Event& ev : evs) hook_(ev);
    } else if (f.type == net::FrameType::kFinal && !got_final) {
      RunStats st;
      Partition part;
      if (!decode_run_stats(r, &st, &part)) return;
      out = std::move(st);
      if (part.size() == partition_.size()) partition_ = std::move(part);
      got_final = true;
      final_src = src;
    }
  };
  // Frames are handled in ascending RANK order.  Within one epoch term the
  // coordinator is the lowest live rank and pipes every held batch before
  // its stop order, so no rank's commit tail overtakes a batch that
  // precedes it.  Across a failover, a frame of a newer term from rank r
  // waits until every lower rank's pipe reached EOF: the promotion happened
  // because those ranks died, so the old coordinator's last frames are all
  // handled first, and the wait always ends.
  const auto admit = [&](std::uint32_t r, std::uint32_t epoch) {
    const std::uint32_t t = epoch >> kEpochSeqBits;
    if (t <= term) return true;
    for (std::uint32_t q = 0; q < r; ++q)
      if (!eof[q]) return false;
    term = t;
    return true;
  };

  for (;;) {
    std::vector<pollfd> fds;
    std::vector<std::uint32_t> fd_rank;
    for (std::uint32_t r = 0; r < nranks_; ++r) {
      if (eof[r] || pipe_r_[r] < 0) continue;
      fds.push_back(pollfd{pipe_r_[r], POLLIN, 0});
      fd_rank.push_back(r);
    }
    if (!fds.empty()) ::poll(fds.data(), fds.size(), 100);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::uint32_t r = fd_rank[i];
      for (;;) {
        std::uint8_t buf[65536];
        const ssize_t n = ::read(pipe_r_[r], buf, sizeof buf);
        if (n > 0) {
          parsers[r].feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          eof[r] = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        eof[r] = true;
        break;
      }
      net::FrameView v;
      std::string err;
      int rc;
      while ((rc = parsers[r].next(&v, &err)) == 1) {
        if (held[r].empty() && admit(r, v.epoch))
          handle(r, v);
        else
          held[r].push_back(Piped{v.type, v.epoch, {v.data, v.data + v.size}});
      }
      if (rc < 0) eof[r] = true;
    }
    for (std::uint32_t r = 0; r < nranks_; ++r) {
      while (!held[r].empty() && admit(r, held[r].front().epoch)) {
        const Piped& f = held[r].front();
        handle(r, net::FrameView{f.type, f.epoch, f.payload.data(),
                                 f.payload.size()});
        held[r].pop_front();
      }
    }
    if (fds.empty()) break;
    if (got_final && eof[final_src] && !killed_rest) {
      // The authoritative result is complete; survivors that are merely
      // slow to notice the shutdown do not get to hold the run open.
      killed_rest = true;
      for (std::uint32_t r = 0; r < nranks_; ++r)
        if (!eof[r] && r < pids_.size() && pids_[r] > 0 && !reaped_[r])
          ::kill(pids_[r], SIGKILL);
    }
  }

  if (!got_final) {
    out.recovery_error = RecoveryError{
        0, 0, 0, "every rank died without reporting a final state"};
    out.per_lp.resize(graph_.size());
    out.per_worker.resize(nranks_);
  }
}

void DistributedEngine::debug_dump(std::FILE* out) const {
  std::fprintf(out,
               "[distributed rank %u] gvt=(%lld,%lld) rounds=%llu "
               "events=%llu recoveries=%llu epoch=%u\n",
               rank_,
               static_cast<long long>(load_relaxed(dump_gvt_pt_)),
               static_cast<long long>(load_relaxed(dump_gvt_lt_)),
               static_cast<unsigned long long>(load_relaxed(dump_rounds_)),
               static_cast<unsigned long long>(load_relaxed(dump_events_)),
               static_cast<unsigned long long>(load_relaxed(dump_recoveries_)),
               epoch_);
  // Transport/socket counters and the loop flags below are written by the
  // run loop without atomics; these racy reads are for a watchdog's
  // post-mortem only.
  std::fprintf(out,
               "  loop: in_round=%d phase=%d pass=%u cut_open=%d stopping=%d "
               "failed=%d quiescent=%d all_flushed=%d links_up=%d\n",
               in_round_ ? 1 : 0, static_cast<int>(phase_), cur_pass_,
               cut_.is_open() ? 1 : 0,
               stopping_ ? 1 : 0, failed_ ? 1 : 0,
               net_ && net_->quiescent() ? 1 : 0,
               node_ && node_->all_flushed() ? 1 : 0,
               node_ && node_->all_links_up() ? 1 : 0);
  if (rank_ == coord_ && !votes_.empty()) {
    std::fprintf(out, "  votes:");
    for (std::size_t r = 0; r < votes_.size(); ++r)
      std::fprintf(out, " r%zu=%s", r,
                   retired_[r] ? "dead" : (votes_[r].got ? "in" : "-"));
    std::fprintf(out, "\n");
  }
  if (net_) {
    const TransportCounters& c = net_->counters();
    std::fprintf(out,
                 "  transport: sent=%llu delivered=%llu retransmits=%llu "
                 "buffered=%llu\n",
                 static_cast<unsigned long long>(c.data_sent),
                 static_cast<unsigned long long>(c.delivered),
                 static_cast<unsigned long long>(c.retransmits),
                 static_cast<unsigned long long>(c.buffered));
  }
  if (node_) {
    const net::NodeCounters& nc = node_->counters();
    std::fprintf(out,
                 "  node: frames_sent=%llu frames_recv=%llu hb_sent=%llu "
                 "disconnects=%llu\n",
                 static_cast<unsigned long long>(nc.frames_sent),
                 static_cast<unsigned long long>(nc.frames_recv),
                 static_cast<unsigned long long>(nc.heartbeats_sent),
                 static_cast<unsigned long long>(nc.disconnects));
  }
}

}  // namespace vsim::pdes
