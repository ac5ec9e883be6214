#include "pdes/transport.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace vsim::pdes {

/// Retransmit-timeout growth per retry (exponential backoff).
constexpr double kRtoBackoff = 2.0;

TransportCounters& TransportCounters::operator+=(const TransportCounters& o) {
  data_sent += o.data_sent;
  acks_sent += o.acks_sent;
  delivered += o.delivered;
  dropped += o.dropped;
  duplicated += o.duplicated;
  reordered += o.reordered;
  retransmits += o.retransmits;
  dup_discarded += o.dup_discarded;
  buffered += o.buffered;
  return *this;
}

std::string TransportError::str() const {
  std::ostringstream os;
  os << "transport error on link " << src_worker << "->" << dst_worker
     << " (seq " << seq << ", " << attempts << " attempts): " << message;
  return os.str();
}

// ---- FaultyTransport ----

FaultyTransport::FaultyTransport(Transport& inner, std::size_t num_workers,
                                 const FaultPlan& plan)
    : inner_(inner), num_workers_(num_workers), plan_(plan) {
  links_.resize(num_workers * num_workers);
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i].rng = splitmix64(plan.seed * 0x10001 + i + 1);
    if (links_[i].rng == 0) links_[i].rng = 1;
  }
}

double FaultyTransport::uniform(std::uint64_t& rng) {
  return xorshift_uniform(rng);
}

void FaultyTransport::submit(Packet&& pkt, double now) {
  Link& l = link(pkt.src, pkt.dst);
  // Transient link outage: everything submitted in the window vanishes.
  if (l.blackout_left > 0) {
    --l.blackout_left;
    ++l.counters.dropped;
    return;
  }
  if (plan_.blackout > 0 && uniform(l.rng) < plan_.blackout) {
    l.blackout_left = plan_.blackout_span;
    ++l.counters.dropped;  // the packet that hit the outage is lost too
    return;
  }
  if (plan_.drop > 0 && uniform(l.rng) < plan_.drop) {
    ++l.counters.dropped;
    return;
  }
  double when = now;
  if (plan_.jitter > 0) when += uniform(l.rng) * plan_.jitter;
  if (plan_.duplicate > 0 && uniform(l.rng) < plan_.duplicate) {
    ++l.counters.duplicated;
    Packet copy = pkt;
    inner_.submit(std::move(copy), when);
  }
  if (plan_.reorder > 0 && uniform(l.rng) < plan_.reorder) {
    // Park the packet; it is released -- out of order -- once later traffic
    // on the link overtakes it (or at the next release_held()).
    ++l.counters.reordered;
    l.held.push_back(std::move(pkt));
    return;
  }
  inner_.submit(std::move(pkt), when);
  // This packet overtook everything parked on the link: release it now.
  while (!l.held.empty()) {
    inner_.submit(std::move(l.held.front()), when);
    l.held.pop_front();
  }
}

std::size_t FaultyTransport::release_held(std::uint32_t worker, double now) {
  std::size_t n = 0;
  for (std::uint32_t dst = 0; dst < num_workers_; ++dst) {
    Link& l = link(worker, dst);
    while (!l.held.empty()) {
      inner_.submit(std::move(l.held.front()), now);
      l.held.pop_front();
      ++n;
    }
  }
  return n;
}

std::size_t FaultyTransport::held_count() const {
  std::size_t n = 0;
  for (const Link& l : links_) n += l.held.size();
  return n;
}

TransportCounters FaultyTransport::counters() const {
  TransportCounters out;
  for (const Link& l : links_) out += l.counters;
  return out;
}

void FaultyTransport::reset() {
  for (Link& l : links_) l.held.clear();
}

// ---- ChannelStack ----

ChannelStack::ChannelStack(Transport& wire, std::size_t num_workers,
                           const TransportConfig& config)
    : wire_(wire),
      num_workers_(num_workers),
      config_(config),
      reliable_(!wire.lossless()) {
  send_links_.resize(num_workers * num_workers);
  recv_links_.resize(num_workers * num_workers);
  ack_due_.assign(num_workers * num_workers, 0);
}

void ChannelStack::send(std::uint32_t from, std::uint32_t to, Event&& ev,
                        double now) {
  SendLink& sl = send_link(from, to);
  ++sl.counters.data_sent;
  Packet pkt;
  pkt.kind = Packet::Kind::kData;
  pkt.src = from;
  pkt.dst = to;
  pkt.ev = std::move(ev);
  const std::uint64_t seq = sl.next_seq++;
  if (reliable_) {
    pkt.seq = seq;
    InFlight f;
    f.pkt = pkt;  // keep a copy for retransmission
    f.rto = config_.rto;
    f.next_retry = now + config_.rto;
    sl.in_flight.push_back(std::move(f));
  }
  wire_.submit(std::move(pkt), now);
}

void ChannelStack::emit_ack(std::uint32_t from, std::uint32_t to,
                            std::uint64_t cum, double now) {
  ++recv_link(to, from).counters.acks_sent;
  if (transmit_) transmit_(from, Packet::Kind::kAck, false);
  Packet a;
  a.kind = Packet::Kind::kAck;
  a.src = from;
  a.dst = to;
  a.seq = cum;
  wire_.submit(std::move(a), now);
}

void ChannelStack::on_wire_delivery(Packet&& pkt, double now) {
  if (pkt.kind == Packet::Kind::kAck) {
    // An ack from worker pkt.src settles the data link pkt.dst -> pkt.src.
    SendLink& sl = send_link(pkt.dst, pkt.src);
    while (!sl.in_flight.empty() && sl.in_flight.front().pkt.seq <= pkt.seq)
      sl.in_flight.pop_front();
    return;
  }
  if (!reliable_) {
    RecvLink& rl = recv_link(pkt.src, pkt.dst);
    ++rl.expected;
    ++rl.counters.delivered;
    if (deliver_) deliver_(pkt.dst, std::move(pkt.ev));
    return;
  }
  RecvLink& rl = recv_link(pkt.src, pkt.dst);
  const std::uint32_t dst = pkt.dst;
  const std::uint32_t src = pkt.src;
  const std::uint64_t s = pkt.seq;
  if (s < rl.expected) {
    ++rl.counters.dup_discarded;
  } else if (s == rl.expected) {
    ++rl.expected;
    ++rl.counters.delivered;
    if (deliver_) deliver_(dst, std::move(pkt.ev));
    // In-order restore: drain consecutively buffered successors.
    for (auto it = rl.reorder.find(rl.expected); it != rl.reorder.end();
         it = rl.reorder.find(rl.expected)) {
      Event ev = std::move(it->second);
      rl.reorder.erase(it);
      ++rl.expected;
      ++rl.counters.delivered;
      if (deliver_) deliver_(dst, std::move(ev));
    }
  } else {
    if (rl.reorder.count(s) != 0) {
      ++rl.counters.dup_discarded;
    } else {
      rl.reorder.emplace(s, std::move(pkt.ev));
      ++rl.counters.buffered;
    }
  }
  // Always (re-)acknowledge -- a lost ack must not wedge the sender -- but
  // cumulatively and deferred: mark the link dirty and let flush_acks()
  // emit one ack for the whole drained batch.
  ack_due_[dst * num_workers_ + src] = 1;
  (void)now;
}

std::size_t ChannelStack::flush_acks(std::uint32_t worker, double now) {
  std::size_t n = 0;
  for (std::uint32_t src = 0; src < num_workers_; ++src) {
    std::uint8_t& due = ack_due_[worker * num_workers_ + src];
    if (due == 0) continue;
    due = 0;
    emit_ack(worker, src, recv_link(src, worker).expected - 1, now);
    ++n;
  }
  return n;
}

std::size_t ChannelStack::retransmit_due(std::uint32_t worker, double now,
                                         bool force) {
  std::size_t sent = 0;
  for (std::uint32_t dst = 0; dst < num_workers_; ++dst) {
    if (dst == worker) continue;
    SendLink& sl = send_link(worker, dst);
    for (InFlight& f : sl.in_flight) {
      if (!force && f.next_retry > now) continue;
      if (f.attempts >= config_.max_retries) {
        TransportError err;
        err.src_worker = worker;
        err.dst_worker = dst;
        err.seq = f.pkt.seq;
        err.attempts = f.attempts;
        err.message = "retry cap exceeded; link presumed dead";
        set_error(std::move(err));
        return sent;
      }
      ++f.attempts;
      f.rto *= kRtoBackoff;
      f.next_retry = now + f.rto;
      ++sl.counters.retransmits;
      if (transmit_) transmit_(worker, Packet::Kind::kData, true);
      Packet copy = f.pkt;
      wire_.submit(std::move(copy), now);
      ++sent;
    }
  }
  return sent;
}

std::size_t ChannelStack::poll(std::uint32_t worker, double now) {
  // A lossless wire keeps nothing in flight: skip the per-link scan
  // entirely (poll runs once per scheduler iteration, so this is on the
  // engines' hot path).
  if (!reliable_) return 0;
  if (has_error_.load(std::memory_order_acquire)) return 0;
  return retransmit_due(worker, now, /*force=*/false);
}

std::size_t ChannelStack::flush(std::uint32_t worker, double now) {
  if (has_error_.load(std::memory_order_acquire)) return 0;
  std::size_t n = wire_.release_held(worker, now);
  n += retransmit_due(worker, now, /*force=*/true);
  return n;
}

bool ChannelStack::quiescent() const {
  for (const SendLink& sl : send_links_)
    if (!sl.in_flight.empty()) return false;
  for (const RecvLink& rl : recv_links_)
    if (!rl.reorder.empty()) return false;
  if (faulty_ != nullptr && faulty_->held_count() != 0) return false;
  return true;
}

std::vector<std::uint64_t> ChannelStack::sent_counts(
    std::uint32_t worker) const {
  std::vector<std::uint64_t> out(num_workers_);
  for (std::uint32_t dst = 0; dst < num_workers_; ++dst)
    out[dst] = sent_count(worker, dst);
  return out;
}

std::vector<std::uint64_t> ChannelStack::delivered_counts(
    std::uint32_t worker) const {
  std::vector<std::uint64_t> out(num_workers_);
  for (std::uint32_t src = 0; src < num_workers_; ++src)
    out[src] = delivered_count(src, worker);
  return out;
}

TransportCounters ChannelStack::counters() const {
  TransportCounters out;
  for (const SendLink& sl : send_links_) out += sl.counters;
  for (const RecvLink& rl : recv_links_) out += rl.counters;
  if (faulty_ != nullptr) out += faulty_->counters();
  return out;
}

std::optional<TransportError> ChannelStack::error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return error_;
}

void ChannelStack::reset() {
  for (SendLink& sl : send_links_) {
    sl.next_seq = 1;
    sl.in_flight.clear();
  }
  for (RecvLink& rl : recv_links_) {
    rl.expected = 1;
    rl.reorder.clear();
  }
  std::fill(ack_due_.begin(), ack_due_.end(), 0);
  if (faulty_ != nullptr) faulty_->reset();
}

// ---- GvtCut ----

std::vector<std::uint64_t> GvtCut::open(const ChannelStack& net,
                                        std::uint32_t self) {
  open_ = true;
  targeted_ = false;
  red_min_ = kTimeInf;
  return net.sent_counts(self);
}

void GvtCut::set_targets(std::vector<std::uint64_t> white_in) {
  assert(open_);
  targets_ = std::move(white_in);
  targeted_ = true;
}

bool GvtCut::whites_in(const ChannelStack& net, std::uint32_t self) const {
  if (!awaiting()) return false;
  for (std::uint32_t src = 0; src < targets_.size(); ++src)
    if (net.delivered_count(src, self) < targets_[src]) return false;
  return true;
}

VirtualTime GvtCut::report(VirtualTime local_min) {
  assert(awaiting());
  open_ = targeted_ = false;
  return std::min(local_min, red_min_);
}

void GvtCut::reset() {
  open_ = targeted_ = false;
  red_min_ = kTimeInf;
}

std::vector<std::uint64_t> GvtCut::white_targets(
    const std::vector<std::vector<std::uint64_t>>& sent, std::uint32_t dst) {
  std::vector<std::uint64_t> out(sent.size(), 0);
  for (std::uint32_t src = 0; src < sent.size(); ++src)
    if (dst < sent[src].size()) out[src] = sent[src][dst];
  return out;
}

bool GvtCut::balanced(
    const std::vector<std::vector<std::uint64_t>>& sent,
    const std::vector<std::vector<std::uint64_t>>& delivered) {
  for (std::uint32_t src = 0; src < sent.size(); ++src) {
    for (std::uint32_t dst = 0; dst < delivered.size(); ++dst) {
      if (src == dst || sent[src].empty() || delivered[dst].empty()) continue;
      if (sent[src][dst] != delivered[dst][src]) return false;
    }
  }
  return true;
}

void ChannelStack::set_error(TransportError err) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!error_) {
    error_ = std::move(err);
    has_error_.store(true, std::memory_order_release);
  }
}

}  // namespace vsim::pdes
