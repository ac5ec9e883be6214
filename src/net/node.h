// One rank's endpoint in the distributed engine's full socket mesh.
//
// A SocketNode owns the rank's listening socket, one outbound connection per
// peer, and every inbound connection, all non-blocking and serviced from a
// single-threaded pump() the engine calls from its event loop.  The node
// handles the mechanics the protocol layer should never see:
//
//  * framing (net/frame.h) and per-connection stream reassembly;
//  * peer identification (first frame on every connection is kHello);
//  * wall-clock heartbeats to every peer, and last-heard bookkeeping so the
//    coordinator can declare a silent rank dead;
//  * dial/redial with exponential backoff and a bounded attempt budget --
//    a link whose budget is exhausted is failed for good and reported, it
//    never blocks the pump;
//  * epoch filtering of data frames, so traffic from before a crash
//    recovery cannot reach the reliable layer after its cursors reset;
//  * deterministic transient-disconnect injection (NetConfig::disconnects)
//    for testing the reconnect path over the real wire.
//
// Delivery guarantee: at-least-once per frame, in order per connection
// incarnation.  A reconnect may replay the frame that straddled the break,
// so every receiver must be idempotent -- kData dedups in the ChannelStack,
// control frames carry round/epoch ids the engine checks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "pdes/config.h"

namespace vsim::net {

struct NodeCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_recv = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t data_frames_sent = 0;
  std::uint64_t data_frames_recv = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_recv = 0;
  std::uint64_t reconnects = 0;    ///< successful re-establishments
  std::uint64_t disconnects = 0;   ///< connection losses (incl. injected)
  std::uint64_t crc_errors = 0;    ///< frames dropped on checksum/framing
  std::uint64_t stale_epoch_dropped = 0;
};

class SocketNode {
 public:
  /// Called once per delivered frame; `view.data` is valid only during the
  /// call.  May call send() reentrantly.
  using FrameHandler =
      std::function<void(std::uint32_t src_rank, const FrameView& view)>;

  SocketNode(std::uint32_t rank, std::uint32_t nranks,
             const pdes::NetConfig& cfg);
  ~SocketNode();

  SocketNode(const SocketNode&) = delete;
  SocketNode& operator=(const SocketNode&) = delete;

  /// Binds the rank's listening socket and starts dialing every peer.
  /// Must run in the rank's own process (i.e. after the fork).
  [[nodiscard]] bool start(std::string* err);

  void set_handler(FrameHandler h) { handler_ = std::move(h); }
  void set_epoch(std::uint32_t e) { epoch_ = e; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  /// Queues one frame to `dst` (stamped with the current epoch).  Returns
  /// false iff the link is failed for good; the frame is dropped then.
  bool send(std::uint32_t dst, FrameType type,
            const std::vector<std::uint8_t>& payload);

  /// One I/O step: redial due links, poll all sockets for up to
  /// `timeout_ms` (0 = nonblocking), then accept/read/write and emit due
  /// heartbeats.  Returns the number of frames delivered + fully written,
  /// so drain loops can detect progress.
  std::size_t pump(int timeout_ms);

  /// True when every live link's outbound buffer is empty (failed links
  /// don't count: their traffic is gone and recovery owns the fallout).
  [[nodiscard]] bool all_flushed() const;

  /// Last wall-clock ms (now_ms()) a complete frame arrived from `rank`;
  /// initialised to construction time so a rank that never shows up times
  /// out rather than being instantly dead.
  [[nodiscard]] std::int64_t last_heard_ms(std::uint32_t rank) const;

  /// True when every outbound link is established right now.  The engines
  /// gate startup on this, and skip force-retransmission while it is false:
  /// forcing into a down link burns the reliable layer's retry budget
  /// without ever reaching the wire.
  [[nodiscard]] bool all_links_up() const;

  /// Permanently removes `rank` from the mesh after crash recovery retired
  /// it: closes both directions, drops queued frames, and excludes the link
  /// from dialing, heartbeats, all_flushed() and all_links_up().  send() to
  /// a retired rank returns false.  Irreversible by design -- a recovered
  /// run never talks to a dead rank's pid again.
  void retire_peer(std::uint32_t rank);
  [[nodiscard]] bool peer_retired(std::uint32_t rank) const;

  /// True when the outbound link's reconnect budget is exhausted.
  [[nodiscard]] bool link_failed(std::uint32_t dst) const;
  /// Dial attempts consumed on the link so far (for error reporting).
  [[nodiscard]] std::uint32_t link_attempts(std::uint32_t dst) const;

  [[nodiscard]] const NodeCounters& counters() const { return counters_; }
  [[nodiscard]] std::uint32_t rank() const { return rank_; }

  /// The listening address of `rank` under this node's config.
  [[nodiscard]] Addr rank_addr(std::uint32_t rank) const;

 private:
  enum class OutState : std::uint8_t {
    kIdle,        ///< not yet dialed
    kConnecting,  ///< non-blocking connect in flight
    kUp,          ///< established, hello sent
    kBackoff,     ///< waiting to redial
    kFailed,      ///< budget exhausted; terminal
  };

  struct OutConn {
    OutState state = OutState::kIdle;
    int fd = -1;
    /// Whole frames awaiting write; head_written bytes of the front frame
    /// are already on the wire.  On reconnect the front frame restarts from
    /// byte 0 (the peer discarded the truncated copy with the connection).
    std::deque<std::vector<std::uint8_t>> frames;
    std::size_t head_written = 0;
    std::uint32_t attempts = 0;
    bool ever_connected = false;
    std::int64_t next_dial_ms = 0;
    std::int64_t dial_deadline_ms = 0;
    std::uint64_t data_frames_sent = 0;  ///< drives disconnect injection
  };

  struct InConn {
    int fd = -1;
    std::unique_ptr<FrameParser> parser;
    std::int64_t rank = -1;  ///< -1 until kHello identifies the peer
  };

  void start_dial(OutConn& oc, std::uint32_t dst, std::int64_t now);
  void fail_or_backoff(OutConn& oc, std::int64_t now);
  void on_established(OutConn& oc);
  void drop_out(OutConn& oc, std::int64_t now, bool discard_queue);
  std::size_t write_out(OutConn& oc, std::int64_t now);
  std::size_t read_in(InConn& ic, std::int64_t now);
  void queue_heartbeats(std::int64_t now);
  void maybe_inject_disconnect(std::uint32_t dst, OutConn& oc,
                               std::int64_t now);

  std::uint32_t rank_;
  std::uint32_t nranks_;
  pdes::NetConfig cfg_;
  /// pdes::kConnectTimeoutMs and kReconnectMaxMs, stretched by
  /// $VSIM_TIME_SCALE (pdes::scaled_ms).
  std::int64_t connect_timeout_ms_;
  std::int64_t reconnect_max_ms_;
  FrameHandler handler_;
  std::uint32_t epoch_ = 0;

  int listen_fd_ = -1;
  std::vector<OutConn> out_;           ///< by peer rank (self unused)
  std::vector<InConn> in_;             ///< accepted connections
  std::vector<std::int64_t> last_heard_;
  std::vector<bool> retired_;  ///< peers removed from the mesh for good
  std::int64_t last_hb_sent_ = 0;
  std::int64_t start_ms_ = 0;
  std::vector<bool> disconnect_fired_;  ///< per cfg_.disconnects entry
  NodeCounters counters_;
};

}  // namespace vsim::net
