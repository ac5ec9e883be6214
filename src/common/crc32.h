// Standard CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// Shared by the wire framing (src/net/frame.cpp) and the checkpoint spill
// footer (src/pdes/checkpoint.cpp).  Living in common/ keeps the dependency
// arrows pointing the right way: pdes/ must not depend on net/ just to hash
// bytes, and both layers must agree on the polynomial so a checksum computed
// on one side of the wire is checkable on the other.
//
// crc32() is slice-by-8: eight 256-entry tables let it fold eight input
// bytes per step instead of one, with values bit-identical to the bytewise
// reference crc32_bytewise() (kept for the equivalence test), so spill files
// and frames written by either stay readable.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace vsim::common {

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the bytewise table; t[k][i] is the CRC of byte i followed by k
/// zero bytes, so one step can fold eight bytes at once.
inline const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (std::size_t k = 1; k < 8; ++k)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
  }();
  return tables;
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace detail

/// The bytewise reference: one table lookup per byte.
[[nodiscard]] inline std::uint32_t crc32_bytewise(const std::uint8_t* data,
                                                  std::size_t n) {
  const auto& t = detail::crc32_tables()[0];
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = t[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

[[nodiscard]] inline std::uint32_t crc32(const std::uint8_t* data,
                                         std::size_t n) {
  const auto& t = detail::crc32_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = detail::load_le32(data) ^ c;
    const std::uint32_t hi = detail::load_le32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace vsim::common
