// SocketTransport: the pdes::Transport whose wire is a real socket mesh.
//
// This is the bottom of the distributed engine's channel stack:
//
//   ChannelStack -> [FaultyTransport] -> SocketTransport -> SocketNode
//
// submit() serialises the Packet with the checkpoint codec's event encoding
// (pdes/checkpoint.h) and queues it as one kData frame to the destination
// rank; inbound kData frames are decoded by the engine's frame handler and
// fed back into ChannelStack::on_wire_delivery().  Every rank runs on one
// host, so a connection breaks only when the process behind it dies, and
// the node never reconnects: within an epoch this wire is lossless and in
// order.  The ChannelStack above composes seq/ack/retransmit only when a
// FaultyTransport sits between them, to repair the faults it injects on
// real network traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "net/node.h"
#include "pdes/transport.h"

namespace vsim::net {

void encode_packet(vsim::bytes::Writer& w, const pdes::Packet& pkt);
[[nodiscard]] bool decode_packet(vsim::bytes::Reader& r, pdes::Packet* out);

class SocketTransport final : public pdes::Transport {
 public:
  explicit SocketTransport(SocketNode& node) : node_(node) {}

  /// Serialise + queue to the destination rank.  `now` is ignored: the
  /// real network has its own clock.  Submissions to a lost or retired peer
  /// are dropped: the peer is dead, and recovery discards its traffic.
  void submit(pdes::Packet&& pkt, double now) override;

 private:
  SocketNode& node_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace vsim::net
