// Blocking client for the neats wire protocol — the counterpart of
// src/net/server.hpp used by tests, tools, and perfbench/.
//
// Two layers:
//   - Typed calls (Access, AccessBatch, DecompressRange(s), RangeSum,
//     Size, Stats, Ping): one request, one response, errors rethrown as
//     neats::Error with the store's status taxonomy (WireStatusToCode —
//     an admission-gate shed surfaces as kUnavailable, exactly like a
//     quarantined shard would in-process).
//   - Raw SendRequest/ReadResponse for pipelining: keep several requests
//     in flight on one connection and match responses by id. This is what
//     makes the server's coalescing window fill — a closed-loop
//     one-at-a-time client never batches.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/neats.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace neats::net {

class Client {
 public:
  /// One decoded response frame.
  struct Response {
    Opcode op = Opcode::kPing;
    WireStatus status = WireStatus::kOk;
    uint64_t id = 0;
    std::vector<uint8_t> payload;

    /// Throws neats::Error when the status is not kOk (payload carries the
    /// server's message).
    void Require() const {
      if (status == WireStatus::kOk) return;
      std::string message(reinterpret_cast<const char*>(payload.data()),
                          payload.size());
      if (message.empty()) message = WireStatusName(status);
      throw Error("server: " + message, WireStatusToCode(status));
    }
  };

  /// Connects (blocking) to a running neats_server.
  static Client Connect(const std::string& host, uint16_t port) {
    return Client(ConnectTo(host, port));
  }

  Client(Client&& other) noexcept : fd_(other.fd_), next_id_(other.next_id_) {
    other.fd_ = -1;
  }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      next_id_ = other.next_id_;
      other.fd_ = -1;
    }
    return *this;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd() const { return fd_; }

  // --- Typed surface (one request, one response) ---------------------------

  void Ping() { Call(Opcode::kPing, {}).Require(); }

  uint64_t Size() {
    Response r = Call(Opcode::kSize, {});
    r.Require();
    PayloadReader reader(r.payload);
    const uint64_t size = reader.U64();
    NEATS_REQUIRE(reader.ok() && reader.AtEnd(), "malformed size response");
    return size;
  }

  int64_t Access(uint64_t i) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U64(i);
    Response r = Call(Opcode::kAccess, payload);
    r.Require();
    return DecodeValue(r);
  }

  std::vector<int64_t> AccessBatch(std::span<const uint64_t> idx) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U32(static_cast<uint32_t>(idx.size()));
    for (uint64_t i : idx) w.U64(i);
    Response r = Call(Opcode::kAccessBatch, payload);
    r.Require();
    return DecodeValues(r, idx.size());
  }

  std::vector<int64_t> DecompressRange(uint64_t from, uint64_t len) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U64(from);
    w.U64(len);
    Response r = Call(Opcode::kDecompressRange, payload);
    r.Require();
    return DecodeValues(r, len);
  }

  std::vector<int64_t> DecompressRanges(std::span<const IndexRange> ranges) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U32(static_cast<uint32_t>(ranges.size()));
    uint64_t total = 0;
    for (const IndexRange& r : ranges) {
      w.U64(r.from);
      w.U64(r.len);
      total += r.len;
    }
    Response r = Call(Opcode::kDecompressRanges, payload);
    r.Require();
    return DecodeValues(r, total);
  }

  int64_t RangeSum(uint64_t from, uint64_t len) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U64(from);
    w.U64(len);
    Response r = Call(Opcode::kRangeSum, payload);
    r.Require();
    return DecodeValue(r);
  }

  /// The server's stats document ({"server": ..., "store": ...} JSON).
  std::string Stats() {
    Response r = Call(Opcode::kStats, {});
    r.Require();
    return std::string(reinterpret_cast<const char*>(r.payload.data()),
                       r.payload.size());
  }

  // --- Raw surface (pipelining) --------------------------------------------

  /// Sends one request frame without waiting; returns its id.
  uint64_t SendRequest(Opcode op, std::span<const uint8_t> payload) {
    const uint64_t id = next_id_++;
    std::vector<uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    AppendFrame(&frame, op, 0, id, payload);
    SendAll(fd_, frame);
    return id;
  }

  /// Reads one response frame (blocking). Throws on connection loss, torn
  /// frames, or CRC mismatch — a client never trusts a damaged stream.
  Response ReadResponse() {
    uint8_t header[kFrameHeaderBytes];
    NEATS_REQUIRE(RecvAll(fd_, header),
                  "server closed the connection");
    FrameHeader h;
    NEATS_REQUIRE(DecodeFrameHeader(header, &h), "bad response magic");
    NEATS_REQUIRE(h.version == kProtocolVersion,
                  "unsupported response version");
    NEATS_REQUIRE(h.payload_len <= kMaxResponseBytes,
                  "response exceeds sanity bound");
    Response r;
    r.payload.resize(h.payload_len);
    if (h.payload_len > 0 && !RecvAll(fd_, r.payload)) {
      throw Error("connection closed mid-response", StatusCode::kIo);
    }
    NEATS_REQUIRE(VerifyFrameCrc(header, r.payload),
                  "response CRC mismatch");
    r.op = static_cast<Opcode>(h.opcode);
    r.status = static_cast<WireStatus>(h.status);
    r.id = h.id;
    return r;
  }

  /// One round trip.
  Response Call(Opcode op, std::span<const uint8_t> payload) {
    const uint64_t id = SendRequest(op, payload);
    Response r = ReadResponse();
    NEATS_REQUIRE(r.id == id, "response id mismatch on a serial call");
    return r;
  }

 private:
  static constexpr uint32_t kMaxResponseBytes = 1u << 30;

  explicit Client(int fd) : fd_(fd) {}

  static int64_t DecodeValue(const Response& r) {
    PayloadReader reader(r.payload);
    const int64_t v = reader.I64();
    NEATS_REQUIRE(reader.ok() && reader.AtEnd(), "malformed value response");
    return v;
  }

  static std::vector<int64_t> DecodeValues(const Response& r,
                                           size_t expect) {
    NEATS_REQUIRE(r.payload.size() == expect * 8,
                  "value-count mismatch in response");
    PayloadReader reader(r.payload);
    std::vector<int64_t> values;
    reader.I64Vec(expect, &values);
    NEATS_REQUIRE(reader.ok() && reader.AtEnd(), "malformed values response");
    return values;
  }

  int fd_ = -1;
  uint64_t next_id_ = 1;
};

}  // namespace neats::net
