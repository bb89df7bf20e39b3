// CRC32C (Castagnoli) and the 16-byte checksum trailer the durability layer
// appends to every file it wants self-validating: sealed shard blobs, the
// store manifest (format v3), and every write-ahead-log record (the WAL
// embeds the CRC per record instead of per file; see src/store/wal.hpp).
//
// Trailer layout, appended after the payload bytes:
//
//   word 0   payload byte count (the file size minus 16)
//   word 1   high 32 bits: trailer magic "NCK1"; low 32 bits: CRC32C(payload)
//
// CheckChecksumTrailer distinguishes three states on read: kValid (trailer
// present, CRC matches), kAbsent (no trailer shape at the tail — a
// truncated or foreign file), and kCorrupt (the tail claims to be a trailer
// but the CRC disagrees — bit rot or a torn write). Every manifest and
// shard blob is written with a trailer, so readers accept kValid only:
// kAbsent is a failure just like kCorrupt.
//
// Crc32c has two implementations behind one entry point, both computing the
// same reflected Castagnoli polynomial 0x82F63B78, so every byte a store or
// frame carries is independent of the host that wrote it:
//
//   - Crc32cHardware: the SSE4.2 `crc32` instruction, 8 bytes per step
//     (unaligned memcpy loads), then a byte tail. Compiled for SSE4.2 through
//     a function-level target attribute, so the build needs no -m flag.
//   - Crc32cPortable: slicing-by-8 over eight 256-entry tables.
//
// The choice is made once per process, at the first call, from
// __builtin_cpu_supports("sse4.2") and cached; hosts other than x86-64
// always take the portable path.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define NEATS_CRC32C_HW 1
#endif

namespace neats {

namespace internal {

/// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes.
inline const std::array<std::array<uint32_t, 256>, 8>& Crc32cTables() {
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// Portable CRC32C (slicing-by-8), continuing from `crc` like Crc32c.
/// The 8-byte loads assume a little-endian host, as the wire and blob
/// formats do.
inline uint32_t Crc32cPortable(const uint8_t* p, size_t n, uint32_t crc) {
  const auto& t = Crc32cTables();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= crc;
    crc = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
          t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^
          t[2][(w >> 40) & 0xFF] ^ t[1][(w >> 48) & 0xFF] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef NEATS_CRC32C_HW
/// SSE4.2 CRC32C, continuing from `crc` like Crc32c. Call it only where
/// HasHardwareCrc32c() is true.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cHardware(
    const uint8_t* p, size_t n, uint32_t crc) {
  uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

/// True when this process runs Crc32cHardware (decided once, cached).
inline bool HasHardwareCrc32c() {
#ifdef NEATS_CRC32C_HW
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace internal

/// CRC32C over `bytes`, continuing from `crc` (pass the previous return
/// value to checksum a file in pieces; 0 starts a fresh checksum).
inline uint32_t Crc32c(std::span<const uint8_t> bytes, uint32_t crc = 0) {
#ifdef NEATS_CRC32C_HW
  if (internal::HasHardwareCrc32c()) {
    return internal::Crc32cHardware(bytes.data(), bytes.size(), crc);
  }
#endif
  return internal::Crc32cPortable(bytes.data(), bytes.size(), crc);
}

/// ASCII "NCK1" — the high half of the trailer's second word.
inline constexpr uint32_t kChecksumTrailerMagic = 0x314B434Eu;

/// Byte size of the checksum trailer.
inline constexpr size_t kChecksumTrailerBytes = 16;

/// Appends the 16-byte checksum trailer over the current contents of
/// `bytes` (which become the payload); returns the payload's CRC32C.
inline uint32_t AppendChecksumTrailer(std::vector<uint8_t>* bytes) {
  const uint64_t payload = bytes->size();
  const uint32_t crc = Crc32c({bytes->data(), bytes->size()});
  const uint64_t tag = (uint64_t{kChecksumTrailerMagic} << 32) | crc;
  const size_t at = bytes->size();
  bytes->resize(at + kChecksumTrailerBytes);
  std::memcpy(bytes->data() + at, &payload, 8);
  std::memcpy(bytes->data() + at + 8, &tag, 8);
  return crc;
}

/// Outcome of probing a file's tail for a checksum trailer.
enum class TrailerState {
  kValid,    // trailer present, CRC matches the payload
  kAbsent,   // no trailer shape at the tail
  kCorrupt,  // trailer shape present but the CRC disagrees
};

/// CheckChecksumTrailer result: the state, the payload bytes (everything
/// before the trailer for kValid/kCorrupt, the whole input for kAbsent) and
/// the payload CRC actually computed.
struct TrailerInfo {
  TrailerState state = TrailerState::kAbsent;
  std::span<const uint8_t> payload;
  uint32_t crc = 0;
};

/// Probes `bytes` for a trailing checksum trailer and verifies it.
inline TrailerInfo CheckChecksumTrailer(std::span<const uint8_t> bytes) {
  TrailerInfo info;
  info.payload = bytes;
  if (bytes.size() < kChecksumTrailerBytes) return info;
  uint64_t payload_bytes, tag;
  std::memcpy(&payload_bytes, bytes.data() + bytes.size() - 16, 8);
  std::memcpy(&tag, bytes.data() + bytes.size() - 8, 8);
  if ((tag >> 32) != kChecksumTrailerMagic ||
      payload_bytes != bytes.size() - kChecksumTrailerBytes) {
    return info;  // kAbsent: not a trailer
  }
  info.payload = bytes.subspan(0, bytes.size() - kChecksumTrailerBytes);
  info.crc = Crc32c(info.payload);
  info.state = info.crc == static_cast<uint32_t>(tag) ? TrailerState::kValid
                                                      : TrailerState::kCorrupt;
  return info;
}

}  // namespace neats
