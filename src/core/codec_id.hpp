// Stable codec identifiers for the codec-pluggable serving layer.
//
// Every compressed representation that can serve a store shard has a CodecId;
// the id is what MANIFEST.neats (v2) records per shard and what the codec
// registry (src/codecs/codec_registry.hpp) dispatches open/compress by. The
// numeric values are wire format — never renumber, only append (docs/FORMAT.md,
// "Codec-id table").

#pragma once

#include <cstdint>

namespace neats {

/// Identifies a concrete SeriesCodec implementation on the wire.
enum class CodecId : uint32_t {
  kNeats = 0,           // NeaTS lossless (format v4 blob, zero-copy open)
  kNeatsLossyExact = 1,  // NeaTS-L approximation + packed residuals (exact)
  kLeco = 2,            // LeCo-style linear fits + packed residuals
  kAlp = 3,             // ALP pseudo-decimal vectors (+ int64 exception list)
  kGorilla = 4,         // Gorilla XOR stream, block-wise random access
  kChimp = 5,           // Chimp XOR stream, block-wise random access
};

/// One past the largest assigned CodecId value.
inline constexpr uint32_t kNumCodecIds = 6;

/// True when a raw manifest word names an assigned codec id.
constexpr bool IsValidCodecId(uint64_t raw) { return raw < kNumCodecIds; }

/// Short stable name (used by the bench report and diagnostics).
constexpr const char* CodecName(CodecId id) {
  switch (id) {
    case CodecId::kNeats: return "neats";
    case CodecId::kNeatsLossyExact: return "neats-lossy-exact";
    case CodecId::kLeco: return "leco";
    case CodecId::kAlp: return "alp";
    case CodecId::kGorilla: return "gorilla";
    case CodecId::kChimp: return "chimp";
  }
  return "unknown";
}

/// Little-endian magic word of an 8-character tag — the codec blob headers
/// are built from these so the first bytes of any blob spell out its format
/// in ASCII, matching the "NEATSv2" / "NEATSL2" / "NEATSMF" convention.
constexpr uint64_t MagicWord(const char (&tag)[9]) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(tag[i]);
  }
  return v;
}

}  // namespace neats
