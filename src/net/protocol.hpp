// The wire protocol of the neats serving front-end (src/net/server.hpp).
//
// One port, two self-announcing dialects, distinguished by the first byte
// a connection sends:
//
//   'N' (0x4E)  binary frames — the production protocol (below)
//   'G' (0x47)  "GET ..." — a minimal HTTP/1.0 responder for the stats
//               route, so `curl http://host:port/stats` works
//
// Any other first byte is answered with a kBadRequest frame ("unrecognized
// protocol") and the connection is closed.
//
// Binary framing: a 24-byte little-endian header followed by the payload,
// the whole frame covered by a CRC32C (io/checksum.hpp — the same
// polynomial the storage layer trailers use). FinishFrame is the one frame
// builder: AppendFrame copies a payload in and calls it, and the server
// calls it on frames whose payload it wrote in place:
//
//   offset  size  field
//   0       4     magic "NETS" (0x5354454E)
//   4       1     version (kProtocolVersion = 1)
//   5       1     opcode (requests) / echoed opcode (responses)
//   6       2     status: 0 on requests; a WireStatus on responses
//   8       8     id: chosen by the client, echoed verbatim — lets a
//                 pipelining client match responses to requests
//   16      4     payload byte count
//   20      4     CRC32C over header bytes [0, 20) ++ payload
//
// Requests and responses share the frame shape; an error response carries
// a non-zero status and a human-readable message as its payload. Payload
// grammars per opcode live in docs/FORMAT.md; integers are little-endian,
// values are int64, indexes/lengths are uint64.
//
// Hardening contract (tests/net_test.cpp sweeps this): a frame with a bad
// magic, an unknown version/opcode, a length word past the server's
// max_frame_bytes, or a CRC mismatch yields a typed error response and/or
// a clean close — never a crash, never an out-of-bounds read.

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "io/checksum.hpp"

namespace neats::net {

inline constexpr uint32_t kFrameMagic = 0x5354454Eu;  // "NETS"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 24;

/// Operations the server carries — the NeatsStore read surface plus
/// introspection. Values are wire format; renumbering is a protocol break.
enum class Opcode : uint8_t {
  kPing = 1,              // ()               -> ()
  kAccess = 2,            // (u64 i)          -> (i64 value)
  kAccessBatch = 3,       // (u32 n, n*u64)   -> (n*i64)
  kDecompressRange = 4,   // (u64 from, len)  -> (len*i64)
  kDecompressRanges = 5,  // (u32 n, n*(u64 from, u64 len)) -> (sum*i64)
  kRangeSum = 6,          // (u64 from, len)  -> (i64 sum)
  kSize = 7,              // ()               -> (u64 size)
  kStats = 8,             // ()               -> (UTF-8 JSON document)
};

inline constexpr uint8_t kMaxOpcode = 8;

inline bool IsValidOpcode(uint8_t op) {
  return op >= 1 && op <= kMaxOpcode;
}

inline const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kAccess: return "access";
    case Opcode::kAccessBatch: return "access_batch";
    case Opcode::kDecompressRange: return "range";
    case Opcode::kDecompressRanges: return "ranges";
    case Opcode::kRangeSum: return "range_sum";
    case Opcode::kSize: return "size";
    case Opcode::kStats: return "stats";
  }
  return "unknown";
}

/// Response status word. kOverloaded is the admission gate's typed shed
/// (the request was rejected up front, retry against less load); it and
/// kShuttingDown are the two statuses a healthy client is expected to see
/// under stress. kUnavailable maps the store's quarantined-range error.
enum class WireStatus : uint16_t {
  kOk = 0,
  kBadRequest = 1,    // malformed frame/payload, unknown opcode
  kOutOfRange = 2,    // index/range past the store's current size
  kUnavailable = 3,   // the range routes into a quarantined shard
  kOverloaded = 4,    // shed by the admission gate; retry later
  kShuttingDown = 5,  // server is draining; connection closes after this
  kInternal = 6,      // unexpected server-side failure
};

inline const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kBadRequest: return "bad_request";
    case WireStatus::kOutOfRange: return "out_of_range";
    case WireStatus::kUnavailable: return "unavailable";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kShuttingDown: return "shutting_down";
    case WireStatus::kInternal: return "internal";
  }
  return "unknown";
}

/// The neats::StatusCode a client-side error for `s` carries (the client
/// library throws neats::Error so callers reuse the store's error
/// taxonomy; overload/drain map to kUnavailable — "not now", not "broken").
inline StatusCode WireStatusToCode(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return StatusCode::kOk;
    case WireStatus::kUnavailable:
    case WireStatus::kOverloaded:
    case WireStatus::kShuttingDown: return StatusCode::kUnavailable;
    case WireStatus::kBadRequest:
    case WireStatus::kOutOfRange: return StatusCode::kFailed;
    case WireStatus::kInternal: return StatusCode::kFailed;
  }
  return StatusCode::kFailed;
}

/// A decoded frame header (magic already checked and stripped of meaning).
struct FrameHeader {
  uint8_t version = kProtocolVersion;
  uint8_t opcode = 0;
  uint16_t status = 0;
  uint64_t id = 0;
  uint32_t payload_len = 0;
  uint32_t crc = 0;  // as carried on the wire
};

namespace wire_internal {

inline void PutU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }
inline void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
inline uint16_t GetU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace wire_internal

/// Completes the frame that starts at `frame`, whose `payload_len` payload
/// bytes are already written at frame + kFrameHeaderBytes: fills the header
/// and computes the CRC in place. Lets a producer build the payload where
/// it will be sent instead of copying it in.
inline void FinishFrame(uint8_t* frame, Opcode op, uint16_t status,
                        uint64_t id, size_t payload_len) {
  using namespace wire_internal;
  PutU32(frame, kFrameMagic);
  frame[4] = kProtocolVersion;
  frame[5] = static_cast<uint8_t>(op);
  PutU16(frame + 6, status);
  PutU64(frame + 8, id);
  PutU32(frame + 16, static_cast<uint32_t>(payload_len));
  const uint32_t crc = Crc32c({frame, 20});
  PutU32(frame + 20,
         Crc32c({frame + kFrameHeaderBytes, payload_len}, crc));
}

/// Appends one complete frame (header + payload) to `out`.
inline void AppendFrame(std::vector<uint8_t>* out, Opcode op, uint16_t status,
                        uint64_t id, std::span<const uint8_t> payload) {
  const size_t at = out->size();
  out->resize(at + kFrameHeaderBytes + payload.size());
  uint8_t* frame = out->data() + at;
  if (!payload.empty()) {
    std::memcpy(frame + kFrameHeaderBytes, payload.data(), payload.size());
  }
  FinishFrame(frame, op, status, id, payload.size());
}

/// Decodes the 24-byte header at `bytes` (must hold at least
/// kFrameHeaderBytes). Returns false on a magic mismatch.
inline bool DecodeFrameHeader(std::span<const uint8_t> bytes,
                              FrameHeader* out) {
  using namespace wire_internal;
  NEATS_DCHECK(bytes.size() >= kFrameHeaderBytes);
  const uint8_t* h = bytes.data();
  if (GetU32(h) != kFrameMagic) return false;
  out->version = h[4];
  out->opcode = h[5];
  out->status = GetU16(h + 6);
  out->id = GetU64(h + 8);
  out->payload_len = GetU32(h + 16);
  out->crc = GetU32(h + 20);
  return true;
}

/// Verifies the frame CRC: `header_bytes` is the raw 24-byte header,
/// `payload` the payload it announced.
inline bool VerifyFrameCrc(std::span<const uint8_t> header_bytes,
                           std::span<const uint8_t> payload) {
  NEATS_DCHECK(header_bytes.size() >= kFrameHeaderBytes);
  uint32_t crc = Crc32c(header_bytes.subspan(0, 20));
  crc = Crc32c(payload, crc);
  return crc == wire_internal::GetU32(header_bytes.data() + 20);
}

/// Little-endian payload builder (append-only over a caller's vector).
class PayloadWriter {
 public:
  explicit PayloadWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U32(uint32_t v) {
    const size_t at = out_->size();
    out_->resize(at + 4);
    wire_internal::PutU32(out_->data() + at, v);
  }
  void U64(uint64_t v) {
    const size_t at = out_->size();
    out_->resize(at + 8);
    wire_internal::PutU64(out_->data() + at, v);
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void I64Span(std::span<const int64_t> values) {
    const size_t at = out_->size();
    out_->resize(at + values.size() * 8);
    std::memcpy(out_->data() + at, values.data(), values.size() * 8);
  }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian payload cursor. Reads past the end set a
/// sticky failure flag and return 0 instead of touching out-of-bounds
/// memory; callers check ok() (and usually AtEnd()) once at the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  uint32_t U32() {
    if (!Take(4)) return 0;
    return wire_internal::GetU32(bytes_.data() + pos_ - 4);
  }
  uint64_t U64() {
    if (!Take(8)) return 0;
    return wire_internal::GetU64(bytes_.data() + pos_ - 8);
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  /// Reads `n` int64 values into `out` (resized).
  void I64Vec(size_t n, std::vector<int64_t>* out) {
    if (!Take(n * 8)) {
      out->clear();
      return;
    }
    out->resize(n);
    std::memcpy(out->data(), bytes_.data() + pos_ - n * 8, n * 8);
  }
  void U64Vec(size_t n, std::vector<uint64_t>* out) {
    if (!Take(n * 8)) {
      out->clear();
      return;
    }
    out->resize(n);
    std::memcpy(out->data(), bytes_.data() + pos_ - n * 8, n * 8);
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  bool Take(size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace neats::net
