#include "net/frame.h"

#include "common/crc32.h"

namespace vsim::net {

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kData: return "data";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kRoundReq: return "round-req";
    case FrameType::kDrain: return "drain";
    case FrameType::kDrainAck: return "drain-ack";
    case FrameType::kGvtSet: return "gvt-set";
    case FrameType::kCkptData: return "ckpt-data";
    case FrameType::kRecover: return "recover";
    case FrameType::kRecoverDone: return "recover-done";
    case FrameType::kResume: return "resume";
    case FrameType::kAbort: return "abort";
    case FrameType::kStats: return "stats";
    case FrameType::kCkptAck: return "ckpt-ack";
    case FrameType::kCommit: return "commit";
    case FrameType::kFinal: return "final";
  }
  return "?";
}

namespace {

constexpr std::size_t kHeaderSize = 8;  // u32 length + u32 crc
constexpr std::size_t kMinBody = 5;     // u8 type + u32 epoch

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void write_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kFinal);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  return common::crc32(data, n);
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t epoch, const std::uint8_t* payload,
                  std::size_t payload_size) {
  const std::size_t body = kMinBody + payload_size;
  const std::size_t base = out.size();
  out.resize(base + kHeaderSize + body);
  std::uint8_t* p = out.data() + base;
  write_u32(p, static_cast<std::uint32_t>(body));
  p[kHeaderSize] = static_cast<std::uint8_t>(type);
  write_u32(p + kHeaderSize + 1, epoch);
  if (payload_size != 0)
    std::copy(payload, payload + payload_size, p + kHeaderSize + kMinBody);
  write_u32(p + 4, crc32(p + kHeaderSize, body));
}

void FrameParser::feed(const std::uint8_t* data, std::size_t n) {
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // steady-state parsing does no quadratic copying.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

int FrameParser::next(FrameView* out, std::string* err) {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderSize) return 0;
  const std::uint8_t* p = buf_.data() + pos_;
  const std::uint32_t body = read_u32(p);
  if (body < kMinBody || body > max_frame_) {
    if (err != nullptr)
      *err = "frame length " + std::to_string(body) + " outside [" +
             std::to_string(kMinBody) + ", " + std::to_string(max_frame_) +
             "]";
    return -1;
  }
  if (avail < kHeaderSize + body) return 0;
  const std::uint32_t want = read_u32(p + 4);
  const std::uint32_t got = crc32(p + kHeaderSize, body);
  if (want != got) {
    if (err != nullptr) *err = "frame checksum mismatch";
    return -1;
  }
  const std::uint8_t type = p[kHeaderSize];
  if (!valid_type(type)) {
    if (err != nullptr)
      *err = "unknown frame type " + std::to_string(int{type});
    return -1;
  }
  out->type = static_cast<FrameType>(type);
  out->epoch = read_u32(p + kHeaderSize + 1);
  out->data = p + kHeaderSize + kMinBody;
  out->size = body - kMinBody;
  pos_ += kHeaderSize + body;
  return 1;
}

}  // namespace vsim::net
