// Tests for CRC32C and the checksum trailer (src/io/checksum.hpp). Every
// implementation behind Crc32c — the SSE4.2 path, the slicing-by-8 path and
// the dispatched entry point — must equal a plain bytewise reference on
// every length, start offset and continuation split, because the same CRC
// is stored in blobs, manifests, WAL records and wire frames: a path that
// disagreed would make one host's files unreadable on another. The portable
// path runs here on every host; the hardware path wherever the CPU has
// SSE4.2.

#include "io/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace neats {
namespace {

// The reference: one byte per step, over a table built here bit by bit.
uint32_t ReferenceCrc32c(std::span<const uint8_t> bytes, uint32_t crc = 0) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0x82F63B78u : 0);
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (uint8_t b : bytes) crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

using CrcFn = uint32_t (*)(const uint8_t*, size_t, uint32_t);

struct Path {
  std::string name;
  CrcFn fn;
};

uint32_t Dispatched(const uint8_t* p, size_t n, uint32_t crc) {
  return Crc32c({p, n}, crc);
}

// Every path this host can run: the portable one always.
std::vector<Path> Paths() {
  std::vector<Path> paths = {{"portable", internal::Crc32cPortable},
                             {"dispatched", Dispatched}};
#ifdef NEATS_CRC32C_HW
  if (internal::HasHardwareCrc32c()) {
    paths.push_back({"hardware", internal::Crc32cHardware});
  }
#endif
  return paths;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
  return bytes;
}

std::span<const uint8_t> Ascii(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(Crc32c, CheckValueOnEveryPath) {
  const std::string check = "123456789";
  EXPECT_EQ(ReferenceCrc32c(Ascii(check)), 0xE3069283u);
  for (const Path& path : Paths()) {
    EXPECT_EQ(path.fn(Ascii(check).data(), check.size(), 0), 0xE3069283u)
        << path.name;
  }
}

// The iSCSI vectors (RFC 3720 B.4): 32 zero bytes, 32 0xFF bytes, and
// the bytes 0..31.
TEST(Crc32c, Rfc3720VectorsOnEveryPath) {
  std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xFF), ramp(32);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<uint8_t>(i);
  for (const Path& path : Paths()) {
    EXPECT_EQ(path.fn(zeros.data(), 32, 0), 0x8A9136AAu) << path.name;
    EXPECT_EQ(path.fn(ones.data(), 32, 0), 0x62A8AB43u) << path.name;
    EXPECT_EQ(path.fn(ramp.data(), 32, 0), 0x46DD794Eu) << path.name;
  }
}

// The SSE4.2 path is tested wherever the CPU has the instruction; this
// case names the hosts where it cannot be.
TEST(Crc32c, HardwarePathRunsWhereTheCpuHasIt) {
#ifdef NEATS_CRC32C_HW
  if (!internal::HasHardwareCrc32c()) {
    GTEST_SKIP() << "CPU lacks SSE4.2: only the portable path is tested";
  }
  EXPECT_EQ(Paths().size(), 3u);
#else
  GTEST_SKIP() << "not an x86-64 build: only the portable path is tested";
#endif
}

// Lengths 0..4100 from each start offset 0..7: every tail length of the
// 8-byte loops and every misalignment of their loads.
TEST(Crc32c, EveryPathMatchesReferenceOnLengthsAndOffsets) {
  constexpr size_t kMaxLen = 4100;
  const std::vector<uint8_t> bytes = RandomBytes(kMaxLen + 8, 1);
  for (const Path& path : Paths()) {
    for (size_t off = 0; off < 8; ++off) {
      uint32_t ref = 0;  // the reference, extended one byte per length
      for (size_t len = 0; len <= kMaxLen; ++len) {
        if (len > 0) ref = ReferenceCrc32c({&bytes[off + len - 1], 1}, ref);
        ASSERT_EQ(path.fn(bytes.data() + off, len, 0), ref)
            << path.name << " offset " << off << " length " << len;
      }
    }
  }
}

TEST(Crc32c, EveryPathMatchesReferenceOnOneMebibyte) {
  const std::vector<uint8_t> bytes = RandomBytes(size_t{1} << 20, 2);
  const uint32_t ref = ReferenceCrc32c(bytes);
  for (const Path& path : Paths()) {
    EXPECT_EQ(path.fn(bytes.data(), bytes.size(), 0), ref) << path.name;
    EXPECT_EQ(path.fn(bytes.data() + 3, bytes.size() - 3, 0),
              ReferenceCrc32c({bytes.data() + 3, bytes.size() - 3}))
        << path.name;
  }
}

// A checksum computed in pieces — each piece continuing from the previous
// result, on any path — equals the one-shot checksum.
TEST(Crc32c, ContinuationsSplitAtRandomPointsAgree) {
  const std::vector<uint8_t> bytes = RandomBytes(20000, 3);
  const std::vector<Path> paths = Paths();
  std::mt19937_64 rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = rng() % bytes.size();
    const uint32_t seed_crc =
        trial % 3 == 0 ? static_cast<uint32_t>(rng()) : 0;
    const uint32_t want = ReferenceCrc32c({bytes.data(), n}, seed_crc);
    std::vector<size_t> cuts = {0, n};
    for (int k = rng() % 5; k > 0; --k) cuts.push_back(rng() % (n + 1));
    std::sort(cuts.begin(), cuts.end());
    uint32_t crc = seed_crc;
    for (size_t k = 0; k + 1 < cuts.size(); ++k) {
      const Path& path = paths[rng() % paths.size()];
      crc = path.fn(bytes.data() + cuts[k], cuts[k + 1] - cuts[k], crc);
    }
    ASSERT_EQ(crc, want) << "trial " << trial << " length " << n;
  }
}

// --- The checksum trailer -------------------------------------------------

TEST(ChecksumTrailer, ValidAbsentAndCorrupt) {
  const std::vector<uint8_t> payload = RandomBytes(777, 5);
  std::vector<uint8_t> file = payload;
  const uint32_t crc = AppendChecksumTrailer(&file);
  EXPECT_EQ(crc, ReferenceCrc32c(payload));
  ASSERT_EQ(file.size(), payload.size() + kChecksumTrailerBytes);

  TrailerInfo info = CheckChecksumTrailer(file);
  EXPECT_EQ(info.state, TrailerState::kValid);
  EXPECT_EQ(info.crc, crc);
  EXPECT_EQ(info.payload.size(), payload.size());
  EXPECT_EQ(info.payload.data(), file.data());

  // Absent: too short to hold a trailer, no magic, or a length word that
  // does not match the file. The payload is then the whole input.
  const std::vector<uint8_t> tiny(kChecksumTrailerBytes - 1, 0x4E);
  EXPECT_EQ(CheckChecksumTrailer(tiny).state, TrailerState::kAbsent);
  EXPECT_EQ(CheckChecksumTrailer(payload).state, TrailerState::kAbsent);
  std::vector<uint8_t> no_magic = file;
  no_magic[file.size() - 1] ^= 0x01;  // inside the magic half of word 1
  info = CheckChecksumTrailer(no_magic);
  EXPECT_EQ(info.state, TrailerState::kAbsent);
  EXPECT_EQ(info.payload.size(), no_magic.size());
  std::vector<uint8_t> bad_len = file;
  bad_len[payload.size()] ^= 0x01;  // the payload byte count
  EXPECT_EQ(CheckChecksumTrailer(bad_len).state, TrailerState::kAbsent);

  // Corrupt: the trailer's shape holds but a payload or CRC bit flipped.
  for (size_t at : {size_t{0}, payload.size() / 2, payload.size() - 1,
                    payload.size() + 8}) {
    std::vector<uint8_t> rot = file;
    rot[at] ^= 0x10;
    info = CheckChecksumTrailer(rot);
    EXPECT_EQ(info.state, TrailerState::kCorrupt) << "flip at " << at;
    EXPECT_EQ(info.payload.size(), payload.size());
  }

  // An empty payload still gets a verifiable trailer.
  std::vector<uint8_t> empty;
  EXPECT_EQ(AppendChecksumTrailer(&empty), 0u);
  EXPECT_EQ(CheckChecksumTrailer(empty).state, TrailerState::kValid);
}

}  // namespace
}  // namespace neats
