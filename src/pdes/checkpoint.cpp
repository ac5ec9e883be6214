#include "pdes/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/crc32.h"
#include "pdes/lp_runtime.h"

namespace vsim::pdes {

std::string RecoveryError::str() const {
  std::ostringstream os;
  os << "recovery error after crash of worker " << worker << " at GVT round "
     << round << " (" << recoveries_used << " recoveries used): " << message;
  return os.str();
}

// ---- binary codec ----
//
// Little-endian, versioned, built on the shared common/bytes.h primitives.
// Only the portable section is encoded here: LpState snapshots travel
// separately (LogicalProcess::encode_state) when a consumer -- the
// distributed engine's checkpoint shipping -- needs them as bytes, so a
// disk checkpoint complements, never replaces, the in-memory one.

namespace {

constexpr std::uint8_t kMagic[4] = {'V', 'C', 'K', 'P'};
// v2: appends per-LP state blobs (so a file can revive a fresh process) and
// a trailing CRC32 over everything before it (so torn spills are detectable
// by content, not just by decode luck).  v3: events carry the clustering
// sub-destination (Event::sub).  v4: drops the per-link channel and fault
// cursor sections (recovery resets the transport instead).  Older files are
// not readable; nothing durable outlives a run of the version that wrote it.
constexpr std::uint32_t kVersion = 4;

}  // namespace

void encode_event(bytes::Writer& w, const Event& ev) {
  w.vt(ev.ts);
  w.u32(ev.src);
  w.u32(ev.dst);
  w.u32(ev.sub);
  w.u64(ev.uid);
  w.u16(static_cast<std::uint16_t>(ev.kind));
  w.u8(ev.negative ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(ev.payload.port));
  w.i64(ev.payload.scalar);
  w.lv(ev.payload.bits);
}

Event decode_event(bytes::Reader& r) {
  Event ev;
  ev.ts = r.vt();
  ev.src = r.u32();
  ev.dst = r.u32();
  ev.sub = r.u32();
  ev.uid = r.u64();
  ev.kind = static_cast<std::int16_t>(r.u16());
  ev.negative = r.u8() != 0;
  ev.payload.port = static_cast<std::int32_t>(r.u32());
  ev.payload.scalar = r.i64();
  ev.payload.bits = r.lv();
  return ev;
}

void encode_lp_checkpoint(bytes::Writer& w, const LpCheckpoint& lp) {
  w.u8(static_cast<std::uint8_t>(lp.mode));
  w.u8(lp.pinned_conservative ? 1 : 0);
  w.vt(lp.committed_ts);
  w.u64(lp.send_seq);
  w.u64(lp.pending.size());
  for (const Event& ev : lp.pending) encode_event(w, ev);
  w.u64(lp.pending_negatives.size());
  for (EventUid uid : lp.pending_negatives) w.u64(uid);
  w.u64(lp.lazy.size());
  for (const auto& [gen_uid, ev] : lp.lazy) {
    w.u64(gen_uid);
    encode_event(w, ev);
  }
  w.u64(lp.in_clocks.size());
  for (const auto& [src, clock] : lp.in_clocks) {
    w.u32(src);
    w.vt(clock);
  }
}

bool decode_lp_checkpoint(bytes::Reader& r, LpCheckpoint* out) {
  assert(out != nullptr);
  LpCheckpoint lp;
  lp.mode = static_cast<SyncMode>(r.u8());
  lp.pinned_conservative = r.u8() != 0;
  lp.committed_ts = r.vt();
  lp.send_seq = r.u64();
  const std::uint64_t npend = r.u64();
  if (!r.ok() || npend > r.remaining()) return false;
  lp.pending.reserve(static_cast<std::size_t>(npend));
  for (std::uint64_t i = 0; i < npend && r.ok(); ++i)
    lp.pending.push_back(decode_event(r));
  const std::uint64_t nneg = r.u64();
  if (!r.ok() || nneg > r.remaining()) return false;
  lp.pending_negatives.reserve(static_cast<std::size_t>(nneg));
  for (std::uint64_t i = 0; i < nneg && r.ok(); ++i)
    lp.pending_negatives.push_back(r.u64());
  const std::uint64_t nlazy = r.u64();
  if (!r.ok() || nlazy > r.remaining()) return false;
  lp.lazy.reserve(static_cast<std::size_t>(nlazy));
  for (std::uint64_t i = 0; i < nlazy && r.ok(); ++i) {
    const EventUid gen = r.u64();
    lp.lazy.emplace_back(gen, decode_event(r));
  }
  const std::uint64_t nclk = r.u64();
  if (!r.ok() || nclk > r.remaining()) return false;
  lp.in_clocks.reserve(static_cast<std::size_t>(nclk));
  for (std::uint64_t i = 0; i < nclk && r.ok(); ++i) {
    const LpId src = r.u32();
    lp.in_clocks.emplace_back(src, r.vt());
  }
  if (!r.ok()) return false;
  *out = std::move(lp);
  return true;
}

std::vector<std::uint8_t> CheckpointStore::encode_portable(
    const Checkpoint& ck) {
  std::vector<std::uint8_t> buf;
  bytes::Writer w(buf);
  for (std::uint8_t m : kMagic) w.u8(m);
  w.u32(kVersion);
  w.u64(ck.round);
  w.vt(ck.gvt);
  w.u64(ck.lps.size());
  for (const LpCheckpoint& lp : ck.lps) encode_lp_checkpoint(w, lp);
  w.u64(ck.last_promise.size());
  for (const VirtualTime& t : ck.last_promise) w.vt(t);
  w.u64(ck.state_blobs.size());
  for (const std::vector<std::uint8_t>& b : ck.state_blobs) w.blob(b);
  w.u32(common::crc32(buf.data(), buf.size()));
  return buf;
}

bool CheckpointStore::decode_portable(const std::vector<std::uint8_t>& buf,
                                      Checkpoint* out) {
  assert(out != nullptr);
  // Checksum first: a torn or bit-flipped file must fail here, before any
  // structural parsing gets a chance to "succeed" on garbage.
  if (buf.size() < sizeof(kMagic) + 2 * sizeof(std::uint32_t)) return false;
  const std::size_t body = buf.size() - sizeof(std::uint32_t);
  std::uint32_t want = 0;
  for (int i = 3; i >= 0; --i) want = (want << 8) | buf[body + i];
  if (common::crc32(buf.data(), body) != want) return false;
  bytes::Reader r(buf.data(), body);
  for (std::uint8_t m : kMagic)
    if (r.u8() != m) return false;
  if (r.u32() != kVersion) return false;
  Checkpoint ck;
  ck.round = r.u64();
  ck.gvt = r.vt();
  const std::uint64_t nlps = r.u64();
  if (!r.ok() || nlps > buf.size()) return false;  // cheap sanity bound
  ck.lps.resize(static_cast<std::size_t>(nlps));
  for (LpCheckpoint& lp : ck.lps)
    if (!decode_lp_checkpoint(r, &lp)) return false;
  const std::uint64_t nprom = r.u64();
  if (!r.ok() || nprom > buf.size()) return false;
  ck.last_promise.reserve(static_cast<std::size_t>(nprom));
  for (std::uint64_t i = 0; i < nprom && r.ok(); ++i)
    ck.last_promise.push_back(r.vt());
  const std::uint64_t nblobs = r.u64();
  if (!r.ok() || nblobs > buf.size()) return false;
  ck.state_blobs.reserve(static_cast<std::size_t>(nblobs));
  for (std::uint64_t i = 0; i < nblobs && r.ok(); ++i)
    ck.state_blobs.push_back(r.blob());
  if (!r.exhausted()) return false;  // no trailing garbage before the crc
  *out = std::move(ck);
  return true;
}

// ---- CheckpointStore ----

CheckpointStore::CheckpointStore(std::size_t keep, std::string spill_dir)
    : keep_(keep == 0 ? 1 : keep), spill_dir_(std::move(spill_dir)) {}

void CheckpointStore::put(Checkpoint&& ck) {
  if (!spill_dir_.empty()) spill(ck);
  ring_.push_back(std::move(ck));
  while (ring_.size() > keep_) ring_.erase(ring_.begin());
}

const Checkpoint* CheckpointStore::latest() const {
  return ring_.empty() ? nullptr : &ring_.back();
}

void CheckpointStore::spill(const Checkpoint& ck) {
  namespace fs = std::filesystem;
  const std::vector<std::uint8_t> blob = encode_portable(ck);
  std::error_code ec;
  fs::create_directories(spill_dir_, ec);
  const fs::path path =
      fs::path(spill_dir_) / ("ckpt-" + std::to_string(ck.round) + ".bin");
  // Atomic spill: write to a private temp name, fsync the data, rename onto
  // the final name, fsync the directory.  A crash at any point leaves either
  // the old file, no file, or a stray *.tmp.* (which the restart scan
  // ignores) -- never a half-written ckpt-N.bin under its real name.  The
  // temp name carries the pid so concurrent spills of the same round by
  // different ranks into a shared dir cannot collide.
  const fs::path tmp = fs::path(spill_dir_) /
                       ("ckpt-" + std::to_string(ck.round) + ".bin.tmp." +
                        std::to_string(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (!io_error_) io_error_ = "failed to open " + tmp.string();
    return;
  }
  std::size_t off = 0;
  while (off < blob.size()) {
    const ::ssize_t n = ::write(fd, blob.data() + off, blob.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  const bool synced = off == blob.size() && ::fsync(fd) == 0;
  ::close(fd);
  if (!synced || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    if (!io_error_) io_error_ = "failed to write " + path.string();
    return;
  }
  const int dfd = ::open(spill_dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  // Read-back verification: the file on disk must decode to a checkpoint
  // that re-encodes byte-identically, else the spill is useless for
  // recovery and we say so now instead of at restart time.
  std::ifstream is(path, std::ios::binary);
  std::vector<std::uint8_t> back((std::istreambuf_iterator<char>(is)),
                                 std::istreambuf_iterator<char>());
  Checkpoint decoded;
  if (back != blob || !decode_portable(back, &decoded) ||
      encode_portable(decoded) != blob) {
    if (!io_error_) io_error_ = "read-back verification failed for " + path.string();
    return;
  }
  disk_bytes_ += blob.size();
}

void CheckpointStore::drop_above(std::uint64_t round) {
  while (!ring_.empty() && ring_.back().round > round) ring_.pop_back();
  if (spill_dir_.empty()) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(spill_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) continue;
    if (name.size() < 10 || name.substr(name.size() - 4) != ".bin") continue;
    errno = 0;
    char* end = nullptr;
    const unsigned long long r = std::strtoull(name.c_str() + 5, &end, 10);
    if (errno != 0 || end == nullptr || std::string(end) != ".bin") continue;
    if (r > round) fs::remove(entry.path(), ec);
  }
}

std::optional<Checkpoint> CheckpointStore::load_newest_valid(
    const std::string& dir, std::uint64_t* skipped) {
  namespace fs = std::filesystem;
  if (skipped != nullptr) *skipped = 0;
  // Collect candidates newest-round-first so the common case reads one file.
  std::vector<std::pair<std::uint64_t, fs::path>> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) continue;
    if (name.size() < 10 || name.substr(name.size() - 4) != ".bin") continue;
    errno = 0;
    char* end = nullptr;
    const unsigned long long r = std::strtoull(name.c_str() + 5, &end, 10);
    if (errno != 0 || end == nullptr || std::string(end) != ".bin") continue;
    files.emplace_back(static_cast<std::uint64_t>(r), entry.path());
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [round, path] : files) {
    std::ifstream is(path, std::ios::binary);
    std::vector<std::uint8_t> buf((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
    Checkpoint ck;
    if (is.bad() || !decode_portable(buf, &ck) || ck.round != round) {
      std::fprintf(stderr,
                   "[vsim] skipping corrupt or torn checkpoint %s\n",
                   path.string().c_str());
      if (skipped != nullptr) ++*skipped;
      continue;
    }
    return ck;
  }
  return std::nullopt;
}

// ---- capture / restore ----

Checkpoint capture_checkpoint(std::uint64_t round, VirtualTime gvt,
                              std::vector<LpRuntime>& lps,
                              const std::vector<VirtualTime>& last_promise) {
  Checkpoint ck;
  ck.round = round;
  ck.gvt = gvt;
  ck.lps.reserve(lps.size());
  for (LpRuntime& rt : lps) ck.lps.push_back(rt.make_checkpoint());
  ck.last_promise = last_promise;
  return ck;
}

void restore_checkpoint(const Checkpoint& ck, std::vector<LpRuntime>& lps,
                        std::vector<VirtualTime>& last_promise) {
  assert(ck.lps.size() == lps.size());
  for (std::size_t i = 0; i < lps.size(); ++i) lps[i].restore_from(ck.lps[i]);
  last_promise = ck.last_promise;
}

}  // namespace vsim::pdes
