#include "net/node.h"

#include <algorithm>
#include <poll.h>

namespace vsim::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
/// Retry period of a refused dial inside the startup window (ms).
constexpr std::int64_t kRedialMs = 2;

std::vector<std::uint8_t> encode_u32_payload(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 24)};
}

std::uint32_t decode_u32_payload(const FrameView& view) {
  if (view.size < 4) return 0xFFFFFFFFu;
  return static_cast<std::uint32_t>(view.data[0]) |
         static_cast<std::uint32_t>(view.data[1]) << 8 |
         static_cast<std::uint32_t>(view.data[2]) << 16 |
         static_cast<std::uint32_t>(view.data[3]) << 24;
}

}  // namespace

PeerVerdict peer_verdict(bool lost, std::int64_t last_heard_ms,
                         std::int64_t now_ms, std::int64_t timeout_ms) {
  if (lost) return PeerVerdict::kLost;
  if (now_ms - last_heard_ms > timeout_ms) return PeerVerdict::kUnresponsive;
  return PeerVerdict::kAlive;
}

SocketNode::SocketNode(std::uint32_t rank, std::uint32_t nranks,
                       const pdes::NetConfig& cfg)
    : rank_(rank), nranks_(nranks), cfg_(cfg),
      connect_timeout_ms_(pdes::scaled_ms(pdes::kConnectTimeoutMs)),
      out_(nranks),
      last_heard_(nranks, now_ms()), retired_(nranks, false),
      lost_(nranks, false), identified_(nranks, false),
      start_ms_(now_ms()) {}

SocketNode::~SocketNode() {
  close_fd(listen_fd_);
  for (OutConn& oc : out_) close_fd(oc.fd);
  for (InConn& ic : in_) close_fd(ic.fd);
  if (!cfg_.tcp && listen_fd_ >= 0)
    ::unlink(rank_addr(rank_).path_or_host.c_str());
}

Addr SocketNode::rank_addr(std::uint32_t rank) const {
  Addr a;
  a.tcp = cfg_.tcp;
  if (cfg_.tcp) {
    a.path_or_host = cfg_.host;
    a.port = static_cast<std::uint16_t>(cfg_.base_port + rank);
  } else {
    a.path_or_host =
        cfg_.socket_dir + "/rank-" + std::to_string(rank) + ".sock";
  }
  return a;
}

bool SocketNode::start(std::string* err) {
  listen_fd_ = listen_on(rank_addr(rank_), err);
  if (listen_fd_ < 0) return false;
  const std::int64_t now = now_ms();
  start_ms_ = now;
  for (std::uint32_t r = 0; r < nranks_; ++r)
    last_heard_[r] = now;
  last_hb_sent_ = now;
  return true;
}

bool SocketNode::send(std::uint32_t dst, FrameType type,
                      const std::vector<std::uint8_t>& payload) {
  OutConn& oc = out_[dst];
  if (oc.state == OutState::kClosed) return false;
  std::vector<std::uint8_t> frame;
  append_frame(frame, type, epoch_, payload.data(), payload.size());
  oc.frames.push_back(std::move(frame));
  if (type == FrameType::kData) ++counters_.data_frames_sent;
  if (type == FrameType::kHeartbeat) ++counters_.heartbeats_sent;
  return true;
}

void SocketNode::start_dial(std::uint32_t dst, std::int64_t now) {
  OutConn& oc = out_[dst];
  std::string err;
  oc.fd = dial(rank_addr(dst), &err);
  if (oc.fd < 0) {
    dial_failed(dst, now);
    return;
  }
  oc.state = OutState::kConnecting;
}

void SocketNode::dial_failed(std::uint32_t dst, std::int64_t now) {
  OutConn& oc = out_[dst];
  close_fd(oc.fd);
  oc.fd = -1;
  // Peers fork and bind asynchronously: a refused dial inside the startup
  // window is the bind race, not a death.
  if (now < start_ms_ + connect_timeout_ms_) {
    oc.state = OutState::kIdle;
    oc.next_dial_ms = now + kRedialMs;
    return;
  }
  mark_lost(dst);
}

void SocketNode::on_established(OutConn& oc) {
  oc.state = OutState::kUp;
  // First frame on every connection identifies the sender; it jumps the
  // frames queued while the dial was in flight.
  std::vector<std::uint8_t> hello;
  append_frame(hello, FrameType::kHello, epoch_,
               encode_u32_payload(rank_).data(), 4);
  oc.frames.push_front(std::move(hello));
}

void SocketNode::close_out(std::uint32_t rank) {
  OutConn& oc = out_[rank];
  close_fd(oc.fd);
  oc.fd = -1;
  oc.frames.clear();
  oc.head_written = 0;
  oc.state = OutState::kClosed;
}

void SocketNode::mark_lost(std::uint32_t rank) {
  if (lost_[rank] || retired_[rank]) return;
  lost_[rank] = true;
  ++counters_.disconnects;
  close_out(rank);
}

std::size_t SocketNode::write_out(std::uint32_t dst) {
  OutConn& oc = out_[dst];
  std::size_t completed = 0;
  while (!oc.frames.empty()) {
    const std::vector<std::uint8_t>& f = oc.frames.front();
    const int n = write_some(oc.fd, f.data() + oc.head_written,
                             f.size() - oc.head_written);
    if (n < 0) {
      mark_lost(dst);
      return completed;
    }
    if (n == 0) break;  // kernel buffer full
    counters_.bytes_sent += static_cast<std::uint64_t>(n);
    oc.head_written += static_cast<std::size_t>(n);
    if (oc.head_written < f.size()) break;
    // Heartbeats are pacemaker traffic, not progress: counting them as pump
    // activity would keep the engines' idle detection from ever firing.
    const bool heartbeat =
        f.size() > 8 && f[8] == static_cast<std::uint8_t>(FrameType::kHeartbeat);
    oc.frames.pop_front();
    oc.head_written = 0;
    ++counters_.frames_sent;
    if (!heartbeat) ++completed;
  }
  return completed;
}

void SocketNode::close_in(InConn& ic) {
  close_fd(ic.fd);
  ic.fd = -1;
  if (ic.rank >= 0) mark_lost(static_cast<std::uint32_t>(ic.rank));
}

std::size_t SocketNode::read_in(InConn& ic, std::int64_t now) {
  std::uint8_t chunk[kReadChunk];
  std::size_t delivered = 0;
  for (;;) {
    const int n = read_some(ic.fd, chunk, sizeof(chunk));
    if (n < 0) {
      // EOF or error: the process behind the connection is gone.
      close_in(ic);
      return delivered;
    }
    if (n == 0) break;
    counters_.bytes_recv += static_cast<std::uint64_t>(n);
    ic.parser->feed(chunk, static_cast<std::size_t>(n));
    for (;;) {
      FrameView view;
      std::string err;
      const int got = ic.parser->next(&view, &err);
      if (got == 0) break;
      if (got < 0) {
        ++counters_.crc_errors;
        close_in(ic);
        return delivered;
      }
      ++counters_.frames_recv;
      if (ic.rank < 0) {
        // Only a hello may open a connection, and each peer opens exactly
        // one: a second claim to a rank is garbage, not a reconnect.
        const std::uint32_t peer = view.type == FrameType::kHello
                                       ? decode_u32_payload(view)
                                       : 0xFFFFFFFFu;
        if (peer >= nranks_ || identified_[peer]) {
          close_in(ic);
          return delivered;
        }
        identified_[peer] = true;
        ic.rank = peer;
        last_heard_[peer] = now;
        continue;
      }
      last_heard_[static_cast<std::size_t>(ic.rank)] = now;
      if (view.type == FrameType::kHeartbeat) {
        ++counters_.heartbeats_recv;
        continue;
      }
      if (view.type == FrameType::kData) {
        if (view.epoch != epoch_) {
          // Pre-recovery traffic: the channel stack's cursors were reset,
          // so these bytes must never reach it.
          ++counters_.stale_epoch_dropped;
          continue;
        }
        ++counters_.data_frames_recv;
      }
      ++delivered;
      if (handler_)
        handler_(static_cast<std::uint32_t>(ic.rank), view);
      if (ic.fd < 0) return delivered;  // handler-triggered teardown
    }
  }
  return delivered;
}

void SocketNode::queue_heartbeats(std::int64_t now) {
  if (now - last_hb_sent_ <
      static_cast<std::int64_t>(cfg_.heartbeat_interval_ms))
    return;
  last_hb_sent_ = now;
  static const std::vector<std::uint8_t> kEmpty;
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    send(r, FrameType::kHeartbeat, kEmpty);
  }
}

std::size_t SocketNode::pump(int timeout_ms) {
  std::int64_t now = now_ms();
  queue_heartbeats(now);

  // Initial connect: dial due links; a connect still in flight when the
  // startup window closes means the peer never came up.
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    OutConn& oc = out_[r];
    if (oc.state == OutState::kIdle && now >= oc.next_dial_ms)
      start_dial(r, now);
    else if (oc.state == OutState::kConnecting &&
             now >= start_ms_ + connect_timeout_ms_)
      mark_lost(r);
  }

  // Reap dead inbound slots before building the poll set.
  in_.erase(std::remove_if(in_.begin(), in_.end(),
                           [](const InConn& ic) { return ic.fd < 0; }),
            in_.end());

  std::vector<pollfd> fds;
  fds.reserve(2 * nranks_ + in_.size() + 1);
  const std::size_t listen_slot = fds.size();
  fds.push_back({listen_fd_, POLLIN, 0});
  std::vector<std::size_t> out_slot(nranks_, SIZE_MAX);
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    OutConn& oc = out_[r];
    if (oc.fd < 0) continue;
    if (oc.state == OutState::kConnecting ||
        (oc.state == OutState::kUp && !oc.frames.empty())) {
      out_slot[r] = fds.size();
      fds.push_back({oc.fd, POLLOUT, 0});
    }
  }
  const std::size_t in_base = fds.size();
  for (InConn& ic : in_) fds.push_back({ic.fd, POLLIN, 0});

  ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  now = now_ms();

  std::size_t activity = 0;

  // Accept every pending connection.
  if ((fds[listen_slot].revents & POLLIN) != 0) {
    for (;;) {
      const int fd = accept_conn(listen_fd_);
      if (fd < 0) break;
      InConn ic;
      ic.fd = fd;
      ic.parser = std::make_unique<FrameParser>(pdes::kMaxFrameBytes);
      in_.push_back(std::move(ic));
    }
  }

  // Outbound: finish connects, then drain write queues.
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    OutConn& oc = out_[r];
    if (out_slot[r] == SIZE_MAX || oc.fd < 0) continue;
    const short rev = fds[out_slot[r]].revents;
    if ((rev & (POLLOUT | POLLERR | POLLHUP)) == 0) continue;
    if (oc.state == OutState::kConnecting) {
      std::string err;
      if (!dial_finished(oc.fd, &err)) {
        dial_failed(r, now);
        continue;
      }
      on_established(oc);
    }
    activity += write_out(r);
  }

  // Inbound reads (iterate by index: handlers may send(), and in_ can grow
  // via accept only, which already happened this pump).
  for (std::size_t i = 0; i < in_.size(); ++i) {
    if (in_base + i >= fds.size()) break;
    if ((fds[in_base + i].revents & (POLLIN | POLLERR | POLLHUP)) == 0)
      continue;
    if (in_[i].fd < 0) continue;
    activity += read_in(in_[i], now);
  }

  // Opportunistic flush of frames queued by handlers or heartbeats this
  // pump: one non-blocking write attempt, no extra poll round-trip.
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    OutConn& oc = out_[r];
    if (oc.state == OutState::kUp && !oc.frames.empty())
      activity += write_out(r);
  }
  return activity;
}

bool SocketNode::all_flushed() const {
  for (std::uint32_t r = 0; r < nranks_; ++r)
    if (r != rank_ && !out_[r].frames.empty()) return false;
  return true;
}

bool SocketNode::all_links_up() const {
  for (std::uint32_t r = 0; r < nranks_; ++r) {
    if (r == rank_ || retired_[r]) continue;
    if (out_[r].state != OutState::kUp) return false;
  }
  return true;
}

void SocketNode::retire_peer(std::uint32_t rank) {
  if (rank >= nranks_ || rank == rank_ || retired_[rank]) return;
  retired_[rank] = true;
  close_out(rank);
  for (InConn& ic : in_) {
    if (ic.rank == static_cast<std::int64_t>(rank) && ic.fd >= 0) {
      close_fd(ic.fd);
      ic.fd = -1;
    }
  }
}

bool SocketNode::peer_lost(std::uint32_t rank) const {
  return lost_[rank];
}

PeerVerdict SocketNode::verdict(std::uint32_t rank,
                                std::int64_t timeout_ms) const {
  return peer_verdict(lost_[rank], last_heard_[rank], now_ms(), timeout_ms);
}

std::int64_t SocketNode::last_heard_ms(std::uint32_t rank) const {
  return last_heard_[rank];
}

}  // namespace vsim::net
