// One rank's endpoint in the distributed engine's full socket mesh.
//
// A SocketNode owns the rank's listening socket, one outbound connection per
// peer, and every inbound connection, all non-blocking and serviced from a
// single-threaded pump() the engine calls from its event loop.  The node
// handles the mechanics the protocol layer should never see:
//
//  * framing (net/frame.h) and per-connection stream reassembly;
//  * peer identification (first frame on every connection is kHello);
//  * the initial connect, retried only inside the kConnectTimeoutMs window
//    that covers the ranks' bind race at startup;
//  * loss: every rank runs on this host as a child of one supervisor, so a
//    connection breaks only when the process behind it dies.  EOF, a read
//    or write error, or a CRC failure on an identified peer's connection
//    marks that peer lost for good (peer_lost()); the node never redials;
//  * wall-clock heartbeats to every peer and last-heard bookkeeping, the
//    backstop for a rank that is alive but wedged (peer_verdict());
//  * epoch filtering of data frames, so traffic from before a crash
//    recovery cannot reach the channel stack after its cursors reset.
//
// Delivery guarantee: exactly once and in order per peer, until the peer is
// lost.  Frames queued to a lost peer are dropped with it.
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
  std::uint64_t disconnects = 0;   ///< peers whose connection was lost
  std::uint64_t crc_errors = 0;    ///< frames dropped on checksum/framing
  std::uint64_t stale_epoch_dropped = 0;
};

/// What a rank may conclude about a peer.  A lost connection is a dead
/// rank; silence alone only says the peer is wedged.
enum class PeerVerdict : std::uint8_t {
  kAlive,         ///< connected, heard from within the timeout
  kLost,          ///< connection broken: the process behind it is gone
  kUnresponsive,  ///< connected but silent past the timeout
};

/// The liveness rule, shared by the coordinator and the ranks.  Loss wins
/// over silence: a dead rank's last frame may be long ago.
[[nodiscard]] PeerVerdict peer_verdict(bool lost, std::int64_t last_heard_ms,
                                       std::int64_t now_ms,
                                       std::int64_t timeout_ms);

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
  /// false iff `dst` is lost or retired; the frame is dropped then.
  bool send(std::uint32_t dst, FrameType type,
            const std::vector<std::uint8_t>& payload);

  /// One I/O step: dial due links, poll all sockets for up to
  /// `timeout_ms` (0 = nonblocking), then accept/read/write and emit due
  /// heartbeats.  Returns the number of frames delivered + fully written,
  /// so drain loops can detect progress.
  std::size_t pump(int timeout_ms);

  /// True when every live link's outbound buffer is empty (lost and retired
  /// links don't count: their traffic is gone and recovery owns the fallout).
  [[nodiscard]] bool all_flushed() const;

  /// Last wall-clock ms (now_ms()) a complete frame arrived from `rank`;
  /// initialised to construction time so a rank that never shows up times
  /// out rather than being instantly unresponsive.
  [[nodiscard]] std::int64_t last_heard_ms(std::uint32_t rank) const;

  /// True when every outbound link to a peer not retired is established
  /// right now.  The engine gates startup on this.
  [[nodiscard]] bool all_links_up() const;

  /// Permanently removes `rank` from the mesh after crash recovery retired
  /// it: closes both directions, drops queued frames, and excludes the link
  /// from heartbeats, all_flushed() and all_links_up().  send() to a
  /// retired rank returns false.
  void retire_peer(std::uint32_t rank);

  /// True once a connection to or from `rank` broke, or its initial connect
  /// window ran out.  Never reverts.
  [[nodiscard]] bool peer_lost(std::uint32_t rank) const;
  /// peer_verdict() for `rank` at the current wall-clock time.
  [[nodiscard]] PeerVerdict verdict(std::uint32_t rank,
                                    std::int64_t timeout_ms) const;

  [[nodiscard]] const NodeCounters& counters() const { return counters_; }
  [[nodiscard]] std::uint32_t rank() const { return rank_; }

  /// The listening address of `rank` under this node's config.
  [[nodiscard]] Addr rank_addr(std::uint32_t rank) const;

 private:
  enum class OutState : std::uint8_t {
    kIdle,        ///< dial due at next_dial_ms (startup window only)
    kConnecting,  ///< non-blocking connect in flight
    kUp,          ///< established, hello sent
    kClosed,      ///< peer lost or retired; terminal
  };

  struct OutConn {
    OutState state = OutState::kIdle;
    int fd = -1;
    /// Whole frames awaiting write; head_written bytes of the front frame
    /// are already on the wire.
    std::deque<std::vector<std::uint8_t>> frames;
    std::size_t head_written = 0;
    std::int64_t next_dial_ms = 0;
  };

  struct InConn {
    int fd = -1;
    std::unique_ptr<FrameParser> parser;
    std::int64_t rank = -1;  ///< -1 until kHello identifies the peer
  };

  void start_dial(std::uint32_t dst, std::int64_t now);
  /// A dial that did not connect: retry inside the startup window, else
  /// the peer never came up and is lost.
  void dial_failed(std::uint32_t dst, std::int64_t now);
  void on_established(OutConn& oc);
  /// Marks `rank` lost and closes the outbound link.  Inbound connections
  /// stay open until their EOF, so frames the peer wrote before it died
  /// are still delivered.
  void mark_lost(std::uint32_t rank);
  /// Closes the outbound link to `rank` and drops its queue.
  void close_out(std::uint32_t rank);
  std::size_t write_out(std::uint32_t dst);
  std::size_t read_in(InConn& ic, std::int64_t now);
  /// Closes an inbound connection; an identified peer's is lost with it.
  void close_in(InConn& ic);
  void queue_heartbeats(std::int64_t now);

  std::uint32_t rank_;
  std::uint32_t nranks_;
  pdes::NetConfig cfg_;
  /// pdes::kConnectTimeoutMs stretched by $VSIM_TIME_SCALE
  /// (pdes::scaled_ms).
  std::int64_t connect_timeout_ms_;
  FrameHandler handler_;
  std::uint32_t epoch_ = 0;

  int listen_fd_ = -1;
  std::vector<OutConn> out_;           ///< by peer rank (self unused)
  std::vector<InConn> in_;             ///< accepted connections
  std::vector<std::int64_t> last_heard_;
  std::vector<bool> retired_;     ///< peers removed from the mesh for good
  std::vector<bool> lost_;        ///< peers whose connection broke
  std::vector<bool> identified_;  ///< peers whose hello arrived
  std::int64_t last_hb_sent_ = 0;
  std::int64_t start_ms_ = 0;
  NodeCounters counters_;
};

}  // namespace vsim::net
