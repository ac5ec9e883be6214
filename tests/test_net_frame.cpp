// Hostile-input hardening for the wire layer (net/frame.h, net/node.h).
//
// The framing contract: a FrameParser fed arbitrary bytes either yields a
// valid frame, asks for more input, or declares the stream corrupt -- it
// never crashes, never allocates unboundedly, and an absurd declared length
// is rejected from the 8-byte header alone, before any body is buffered.
// At the node layer, a connection that turns hostile is quarantined (closed
// and counted) without disturbing the rest of the mesh, kData frames from a
// stale recovery epoch are dropped before they can reach the channel
// stack's reset cursors, and a peer whose connection breaks is lost for
// good: the node reports it and never redials.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "net/frame.h"
#include "net/node.h"
#include "net/socket.h"
#include "pdes/config.h"

namespace vsim::net {
namespace {

std::vector<std::uint8_t> make_frame(FrameType type, std::uint32_t epoch,
                                     const std::vector<std::uint8_t>& pl) {
  std::vector<std::uint8_t> out;
  append_frame(out, type, epoch, pl.data(), pl.size());
  return out;
}

// The slice-by-8 CRC-32 must equal the bytewise reference bit for bit, so
// spill files and frames stay compatible: the standard check value, then
// random contents over random lengths (0 to 64 KiB) at every alignment.
TEST(Crc32, SliceBy8MatchesBytewiseReference) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(common::crc32(check, sizeof check), 0xCBF43926u);
  EXPECT_EQ(common::crc32(nullptr, 0), 0u);
  std::vector<std::uint8_t> buf((64u << 10) + 8);
  std::uint64_t rng = 0x243F6A8885A308D3ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(next());
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t off = static_cast<std::size_t>(next() % 8);
    std::size_t len = static_cast<std::size_t>(next() % ((64u << 10) + 1));
    if (trial < 64) len = static_cast<std::size_t>(trial);  // every tail
    const std::uint8_t* p = buf.data() + off;
    ASSERT_EQ(common::crc32(p, len), common::crc32_bytewise(p, len))
        << "offset " << off << " length " << len;
  }
}

TEST(FrameParser, IncrementalFeedRoundTrips) {
  const std::vector<std::uint8_t> pl = {9, 8, 7, 6, 5};
  const auto wire = make_frame(FrameType::kGvtSet, 42, pl);
  FrameParser p(4096);
  FrameView v;
  std::string err;
  // One byte at a time: "need more" until the last byte lands.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    p.feed(&wire[i], 1);
    EXPECT_EQ(p.next(&v, &err), 0) << "at byte " << i;
  }
  p.feed(&wire.back(), 1);
  ASSERT_EQ(p.next(&v, &err), 1) << err;
  EXPECT_EQ(v.type, FrameType::kGvtSet);
  EXPECT_EQ(v.epoch, 42u);
  ASSERT_EQ(v.size, pl.size());
  EXPECT_EQ(std::memcmp(v.data, pl.data(), pl.size()), 0);
  EXPECT_EQ(p.next(&v, &err), 0);
  EXPECT_EQ(p.buffered_bytes(), 0u);
}

TEST(FrameParser, TruncatedFrameStaysPendingWithBoundedBuffer) {
  const auto wire =
      make_frame(FrameType::kData, 1, std::vector<std::uint8_t>(100, 0xab));
  FrameParser p(4096);
  p.feed(wire.data(), wire.size() / 2);
  FrameView v;
  std::string err;
  EXPECT_EQ(p.next(&v, &err), 0);
  EXPECT_EQ(p.buffered_bytes(), wire.size() / 2);
}

TEST(FrameParser, BadChecksumIsFatal) {
  auto wire =
      make_frame(FrameType::kData, 1, std::vector<std::uint8_t>(16, 0x55));
  wire[wire.size() - 1] ^= 0x01;  // flip one payload bit
  FrameParser p(4096);
  p.feed(wire.data(), wire.size());
  FrameView v;
  std::string err;
  EXPECT_EQ(p.next(&v, &err), -1);
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

TEST(FrameParser, AbsurdLengthRejectedFromHeaderAlone) {
  // Header claims a ~2 GiB body.  The parser must refuse from the header,
  // without waiting for (or buffering toward) a body that size.
  FrameParser p(4096);
  const std::uint8_t hdr[8] = {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0};
  p.feed(hdr, sizeof hdr);
  FrameView v;
  std::string err;
  EXPECT_EQ(p.next(&v, &err), -1);
  EXPECT_NE(err.find("length"), std::string::npos) << err;
  EXPECT_LE(p.buffered_bytes(), sizeof hdr);
}

TEST(FrameParser, UndersizedLengthRejected) {
  // body=2 cannot even hold the type + epoch fields.
  FrameParser p(4096);
  const std::uint8_t hdr[8] = {2, 0, 0, 0, 0, 0, 0, 0};
  p.feed(hdr, sizeof hdr);
  FrameView v;
  std::string err;
  EXPECT_EQ(p.next(&v, &err), -1);
}

TEST(FrameParser, UnknownTypeRejectedEvenWithValidCrc) {
  // A frame whose checksum is correct but whose type byte is gibberish:
  // craft it by hand so the crc covers the bogus type.
  std::vector<std::uint8_t> wire = make_frame(FrameType::kData, 7, {1, 2, 3});
  wire[8] = 200;  // type byte
  const std::uint32_t crc = crc32(wire.data() + 8, wire.size() - 8);
  wire[4] = static_cast<std::uint8_t>(crc);
  wire[5] = static_cast<std::uint8_t>(crc >> 8);
  wire[6] = static_cast<std::uint8_t>(crc >> 16);
  wire[7] = static_cast<std::uint8_t>(crc >> 24);
  FrameParser p(4096);
  p.feed(wire.data(), wire.size());
  FrameView v;
  std::string err;
  EXPECT_EQ(p.next(&v, &err), -1);
  EXPECT_NE(err.find("unknown frame type"), std::string::npos) << err;
}

TEST(FrameParser, SteadyStateMemoryStaysBounded) {
  const auto wire =
      make_frame(FrameType::kData, 1, std::vector<std::uint8_t>(64, 0x11));
  FrameParser p(4096);
  FrameView v;
  std::string err;
  std::size_t delivered = 0;
  for (int i = 0; i < 20000; ++i) {
    p.feed(wire.data(), wire.size());
    while (p.next(&v, &err) == 1) ++delivered;
    // Drained after every feed: the unconsumed tail never exceeds one frame.
    ASSERT_LE(p.buffered_bytes(), wire.size());
  }
  EXPECT_EQ(delivered, 20000u);
}

// ---- SocketNode quarantine and epoch hygiene ------------------------------

pdes::NetConfig node_config(const std::string& dir) {
  pdes::NetConfig cfg;
  cfg.socket_dir = dir;
  cfg.heartbeat_interval_ms = 5;
  cfg.heartbeat_timeout_ms = 2000;
  return cfg;
}

std::string fresh_socket_dir() {
  char tmpl[] = "/tmp/vsim-netframe-XXXXXX";
  const char* d = ::mkdtemp(tmpl);
  return d != nullptr ? d : "/tmp";
}

TEST(SocketNodeHostile, StaleEpochDataDroppedControlDelivered) {
  const std::string dir = fresh_socket_dir();
  pdes::NetConfig cfg = node_config(dir);
  SocketNode a(0, 2, cfg);
  SocketNode b(1, 2, cfg);
  std::string err;
  ASSERT_TRUE(a.start(&err)) << err;
  ASSERT_TRUE(b.start(&err)) << err;
  const std::int64_t up_deadline = now_ms() + 5000;
  while (!(a.all_links_up() && b.all_links_up()) && now_ms() < up_deadline) {
    a.pump(1);
    b.pump(1);
  }
  ASSERT_TRUE(a.all_links_up() && b.all_links_up());

  // b lives in a newer recovery epoch than a's traffic is stamped with.
  b.set_epoch(3);
  int data_got = 0;
  int ctrl_got = 0;
  b.set_handler([&](std::uint32_t, const FrameView& v) {
    if (v.type == FrameType::kData) ++data_got;
    if (v.type == FrameType::kGvtSet) ++ctrl_got;
  });
  const std::vector<std::uint8_t> pl = {1, 2, 3};
  ASSERT_TRUE(a.send(1, FrameType::kData, pl));    // epoch 0: stale
  ASSERT_TRUE(a.send(1, FrameType::kGvtSet, pl));  // control: always lands
  const std::int64_t deadline = now_ms() + 5000;
  while ((b.counters().stale_epoch_dropped < 1 || ctrl_got < 1) &&
         now_ms() < deadline) {
    a.pump(1);
    b.pump(1);
  }
  EXPECT_EQ(b.counters().stale_epoch_dropped, 1u);
  EXPECT_EQ(ctrl_got, 1);
  EXPECT_EQ(data_got, 0);  // the stale data frame never reached the handler

  // Matching epochs flow again.
  a.set_epoch(3);
  ASSERT_TRUE(a.send(1, FrameType::kData, pl));
  const std::int64_t deadline2 = now_ms() + 5000;
  while (data_got < 1 && now_ms() < deadline2) {
    a.pump(1);
    b.pump(1);
  }
  EXPECT_EQ(data_got, 1);
  std::filesystem::remove_all(dir);
}

TEST(SocketNodeHostile, GarbageConnectionQuarantinedMeshSurvives) {
  const std::string dir = fresh_socket_dir();
  pdes::NetConfig cfg = node_config(dir);
  SocketNode a(0, 2, cfg);
  SocketNode b(1, 2, cfg);
  std::string err;
  ASSERT_TRUE(a.start(&err)) << err;
  ASSERT_TRUE(b.start(&err)) << err;
  const std::int64_t up_deadline = now_ms() + 5000;
  while (!(a.all_links_up() && b.all_links_up()) && now_ms() < up_deadline) {
    a.pump(1);
    b.pump(1);
  }
  ASSERT_TRUE(a.all_links_up() && b.all_links_up());

  // An attacker (or a corrupted peer) dials a's listener and spews bytes
  // whose length prefix decodes to ~1 GiB of 'A'.
  const int fd = dial(a.rank_addr(0), &err);
  ASSERT_GE(fd, 0) << err;
  std::vector<std::uint8_t> junk(4096, 0x41);
  const std::int64_t junk_deadline = now_ms() + 5000;
  while (a.counters().crc_errors < 1 && now_ms() < junk_deadline) {
    (void)write_some(fd, junk.data(), junk.size());
    a.pump(1);
    b.pump(1);
  }
  close_fd(fd);
  EXPECT_GE(a.counters().crc_errors, 1u);  // quarantined, not crashed

  // The legitimate mesh is untouched: a real frame still flows b -> a.
  int got = 0;
  a.set_handler([&](std::uint32_t src, const FrameView& v) {
    if (src == 1 && v.type == FrameType::kData) ++got;
  });
  ASSERT_TRUE(b.send(0, FrameType::kData, {5, 6, 7}));
  const std::int64_t deadline = now_ms() + 5000;
  while (got < 1 && now_ms() < deadline) {
    a.pump(1);
    b.pump(1);
  }
  EXPECT_EQ(got, 1);
  std::filesystem::remove_all(dir);
}

// ---- Peer loss and the liveness verdict ----------------------------------

TEST(PeerVerdict, LossWinsThenSilenceThenAlive) {
  struct Row {
    bool lost;
    std::int64_t last_heard;
    std::int64_t now;
    PeerVerdict want;
  };
  const std::int64_t timeout = 1000;
  const Row rows[] = {
      {true, 5000, 5000, PeerVerdict::kLost},     // lost, just heard
      {true, 0, 5000, PeerVerdict::kLost},        // lost and silent
      {false, 0, 5000, PeerVerdict::kUnresponsive},
      {false, 3999, 5000, PeerVerdict::kUnresponsive},  // 1001 ms silent
      {false, 4000, 5000, PeerVerdict::kAlive},   // exactly the timeout
      {false, 5000, 5000, PeerVerdict::kAlive},
  };
  for (const Row& r : rows)
    EXPECT_EQ(peer_verdict(r.lost, r.last_heard, r.now, timeout), r.want)
        << "lost=" << r.lost << " silent=" << (r.now - r.last_heard);
}

void pump_until_up(SocketNode& a, SocketNode& b) {
  const std::int64_t deadline = now_ms() + 5000;
  while (!(a.all_links_up() && b.all_links_up()) && now_ms() < deadline) {
    a.pump(1);
    b.pump(1);
  }
}

TEST(SocketNodeLoss, DestroyedPeerIsLostAndNeverRedialed) {
  const std::string dir = fresh_socket_dir();
  const pdes::NetConfig cfg = node_config(dir);
  SocketNode a(0, 2, cfg);
  auto b = std::make_unique<SocketNode>(1, 2, cfg);
  std::string err;
  ASSERT_TRUE(a.start(&err)) << err;
  ASSERT_TRUE(b->start(&err)) << err;
  pump_until_up(a, *b);
  ASSERT_TRUE(a.all_links_up() && b->all_links_up());
  EXPECT_EQ(a.verdict(1, 1000), PeerVerdict::kAlive);

  // The process behind rank 1 "dies": its sockets close.
  b.reset();
  int pumps = 0;
  while (!a.peer_lost(1) && pumps < 10) {
    a.pump(1);
    ++pumps;
  }
  EXPECT_TRUE(a.peer_lost(1)) << "after " << pumps << " pumps";
  EXPECT_EQ(a.verdict(1, 1000), PeerVerdict::kLost);
  EXPECT_EQ(a.counters().disconnects, 1u);
  EXPECT_FALSE(a.send(1, FrameType::kGvtSet, {1}));  // dropped with the peer

  // A new listener at rank 1's address never hears from rank 0 again.
  SocketNode b2(1, 2, cfg);
  ASSERT_TRUE(b2.start(&err)) << err;
  const std::int64_t until = now_ms() + 200;
  while (now_ms() < until) {
    a.pump(1);
    b2.pump(1);
  }
  EXPECT_EQ(b2.counters().frames_recv, 0u);
  EXPECT_TRUE(a.peer_lost(1));
  EXPECT_EQ(a.counters().disconnects, 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vsim::net
