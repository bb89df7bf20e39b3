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
//
// Responses arrive through one receive buffer the connection owns, so a
// pipelined round of small responses costs about one recv(2), not two per
// frame.

#pragma once

#include <algorithm>
#include <cerrno>
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

  Client(Client&& other) noexcept { *this = std::move(other); }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
      next_id_ = other.next_id_;
      rx_ = std::move(other.rx_);
      rx_begin_ = std::exchange(other.rx_begin_, 0);
      rx_end_ = std::exchange(other.rx_end_, 0);
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

  /// The socket, for sending raw frames only: reading from it directly
  /// would skip what the receive buffer already holds.
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
    if (!Fill(kFrameHeaderBytes)) {
      NEATS_REQUIRE(rx_end_ > rx_begin_, "server closed the connection");
      throw Error("connection closed mid-response", StatusCode::kIo);
    }
    const std::span<const uint8_t> header(rx_.data() + rx_begin_,
                                          kFrameHeaderBytes);
    FrameHeader h;
    NEATS_REQUIRE(DecodeFrameHeader(header, &h), "bad response magic");
    NEATS_REQUIRE(h.version == kProtocolVersion,
                  "unsupported response version");
    NEATS_REQUIRE(h.payload_len <= kMaxResponseBytes,
                  "response exceeds sanity bound");
    const size_t frame = kFrameHeaderBytes + h.payload_len;
    if (!Fill(frame)) {
      throw Error("connection closed mid-response", StatusCode::kIo);
    }
    const uint8_t* at = rx_.data() + rx_begin_;
    const std::span<const uint8_t> payload(at + kFrameHeaderBytes,
                                           h.payload_len);
    NEATS_REQUIRE(VerifyFrameCrc({at, kFrameHeaderBytes}, payload),
                  "response CRC mismatch");
    Response r;
    r.op = static_cast<Opcode>(h.opcode);
    r.status = static_cast<WireStatus>(h.status);
    r.id = h.id;
    r.payload.assign(payload.begin(), payload.end());
    rx_begin_ += frame;
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

  /// Smallest receive buffer: one recv takes a whole pipelined round of
  /// small responses.
  static constexpr size_t kMinReceiveBuffer = size_t{64} << 10;

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

  /// Receives until `n` bytes from rx_begin_ are buffered, first making
  /// room for them (unread bytes move to the front, the buffer only grows).
  /// Returns false if the server closed the connection first.
  bool Fill(size_t n) {
    if (rx_end_ - rx_begin_ >= n) return true;
    if (rx_begin_ > 0 &&
        (rx_begin_ == rx_end_ || rx_begin_ + n > rx_.size())) {
      std::copy(rx_.begin() + static_cast<ptrdiff_t>(rx_begin_),
                rx_.begin() + static_cast<ptrdiff_t>(rx_end_), rx_.begin());
      rx_end_ -= rx_begin_;
      rx_begin_ = 0;
    }
    if (n > rx_.size()) {
      rx_.resize(std::max({n, kMinReceiveBuffer, 2 * rx_.size()}));
    }
    while (rx_end_ - rx_begin_ < n) {
      const ssize_t got =
          ::recv(fd_, rx_.data() + rx_end_, rx_.size() - rx_end_, 0);
      if (got == 0) return false;
      if (got < 0 && errno != EINTR) ThrowErrno("recv");
      if (got > 0) rx_end_ += static_cast<size_t>(got);
    }
    return true;
  }

  int fd_ = -1;
  uint64_t next_id_ = 1;
  std::vector<uint8_t> rx_;  // rx_[rx_begin_, rx_end_) is received, unread
  size_t rx_begin_ = 0;
  size_t rx_end_ = 0;
};

}  // namespace neats::net
