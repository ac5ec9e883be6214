// Wire framing for the distributed engine (DESIGN.md "Distributed engine").
//
// Byte streams (TCP / Unix-domain sockets) have no message boundaries, so
// every protocol message travels as one length-prefixed, checksummed frame:
//
//   [u32 length][u32 crc32][u8 type][u32 epoch][payload ...]
//
// `length` counts everything after the crc field (type + epoch + payload);
// `crc32` covers those same bytes.  All integers are little-endian, matching
// the common/bytes.h codec the payloads themselves use.  The checksum turns
// silent stream corruption into an attributable connection error instead of
// a misdecoded event; the `epoch` field lets receivers drop traffic from
// before a crash recovery without any connection juggling (see
// pdes/distributed.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vsim::net {

enum class FrameType : std::uint8_t {
  kHello = 1,    ///< first frame on every connection: sender's rank
  kData,         ///< one transport-layer Packet (data or ack)
  kHeartbeat,    ///< liveness beacon; carries no payload
  kRoundReq,     ///< rank asks the coordinator to start a GVT round
  kDrain,        ///< coordinator: run one drain pass of round r
  kDrainAck,     ///< rank: pass done; quiescence vote + local minimum
  kGvtSet,       ///< coordinator: round result (gvt, stop, checkpoint)
  kCkptData,     ///< rank: its share of a global checkpoint + commits
  kRecover,      ///< coordinator: dead set, new partition, restore blob
  kRecoverDone,  ///< rank: recovery applied, parked for resume
  kResume,       ///< coordinator: leave recovery, resume work
  kAbort,        ///< either way: unrecoverable failure, unwind
  kStats,        ///< rank: final stats/metrics/commits at termination
  kCkptAck,      ///< successor: checkpoint round assembled and spilled
  kCommit,       ///< coordinator -> supervisor pipe: one commit batch
  kFinal,        ///< coordinator -> supervisor pipe: final RunStats
};

[[nodiscard]] const char* frame_type_name(FrameType t);

[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Appends one complete frame to `out` (which is a socket write buffer).
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t epoch, const std::uint8_t* payload,
                  std::size_t payload_size);

/// One parsed frame; `data` points into the parser's buffer and is valid
/// until the next next()/feed() call.
struct FrameView {
  FrameType type = FrameType::kHeartbeat;
  std::uint32_t epoch = 0;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// Incremental frame parser for one connection's inbound byte stream.
class FrameParser {
 public:
  explicit FrameParser(std::uint32_t max_frame_bytes)
      : max_frame_(max_frame_bytes) {}

  void feed(const std::uint8_t* data, std::size_t n);

  /// Returns 1 and fills `out` when a complete valid frame is available,
  /// 0 when more bytes are needed, -1 on stream corruption (bad checksum,
  /// oversized or undersized frame) with `err` describing it.  After -1 the
  /// stream is unusable: the caller must drop the connection.
  [[nodiscard]] int next(FrameView* out, std::string* err);

  /// Bytes currently buffered but not yet consumed.  Exposed so hostile-input
  /// tests can assert memory stays bounded by one frame's worth of data.
  [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::uint32_t max_frame_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
};

}  // namespace vsim::net
