// SocketTransport: the pdes::Transport whose wire is a real socket mesh.
//
// This is the bottom of the distributed engine's channel stack:
//
//   ChannelStack -> [FaultyTransport] -> SocketTransport -> SocketNode
//
// submit() serialises the Packet with the checkpoint codec's event encoding
// (pdes/checkpoint.h) and queues it as one kData frame to the destination
// rank; inbound kData frames are decoded by the engine's frame handler and
// fed back into ChannelStack::on_wire_delivery().  A stream socket is
// reliable while its connection lives, but a reconnect may drop or replay
// the frame that straddled the break, so this wire is not lossless() and the
// ChannelStack above always composes seq/ack/retransmit.  That machinery
// repairs both those reconnect losses and the faults a FaultyTransport
// injects *above* this layer, on real network traffic.
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
  /// real network has its own clock.  Submissions to a failed link are
  /// dropped -- the reliable layer keeps them in flight and the engine's
  /// link-down handling decides whether that is fatal.
  void submit(pdes::Packet&& pkt, double now) override;
  [[nodiscard]] bool lossless() const override { return false; }

 private:
  SocketNode& node_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace vsim::net
