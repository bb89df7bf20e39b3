// Tests for the network layer (src/net/): wire-protocol units (frames built
// in place match AppendFrame byte for byte), the client/server loopback
// round trip for every opcode and dialect, which requests the IO thread
// answers itself and that it stays live while the store's writer holds its
// lock, the client's buffered receive across frame and buffer boundaries,
// a slow small-window reader that forces partial sends, a pipelined burst
// of small frames, the typed rejection of unrecognized first bytes,
// admission-control shedding, graceful drain, protocol hardening (the
// clobber/truncation/forged-length sweeps mirroring the WAL/manifest fuzz
// pattern), and the multi-client loopback concurrency test that runs under
// the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gated_fs.hpp"
#include "io/fault_fs.hpp"
#include "json_doc.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "store/neats_store.hpp"

namespace neats::net {
namespace {

using testing::GatedFs;
using testing::JsonValue;
using testing::ParseJson;

// --- Protocol units -------------------------------------------------------

TEST(Protocol, FrameRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kAccess, 0, 42, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(frame, &h));
  EXPECT_EQ(h.version, kProtocolVersion);
  EXPECT_EQ(h.opcode, static_cast<uint8_t>(Opcode::kAccess));
  EXPECT_EQ(h.id, 42u);
  EXPECT_EQ(h.payload_len, payload.size());
  EXPECT_TRUE(VerifyFrameCrc({frame.data(), kFrameHeaderBytes},
                             {frame.data() + kFrameHeaderBytes,
                              payload.size()}));
}

TEST(Protocol, CrcCatchesEveryBitFlipPosition) {
  std::vector<uint8_t> payload = {10, 20, 30};
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kRangeSum, 0, 7, payload);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0x40;
    FrameHeader h;
    if (!DecodeFrameHeader(bad, &h)) continue;  // magic flip: caught earlier
    EXPECT_FALSE(VerifyFrameCrc(
        {bad.data(), kFrameHeaderBytes},
        {bad.data() + kFrameHeaderBytes, bad.size() - kFrameHeaderBytes}))
        << "flip at byte " << i << " went undetected";
  }
}

// FinishFrame on a payload already in place produces exactly AppendFrame's
// bytes, and both match the header layout of docs/FORMAT.md with the CRC
// taken over one contiguous copy of header[0, 20) ++ payload.
TEST(Protocol, FrameBuiltInPlaceIsByteIdenticalToAppendFrame) {
  std::mt19937_64 rng(11);
  for (size_t n : {size_t{0}, size_t{1}, size_t{8}, size_t{1000},
                   size_t{32768}}) {
    std::vector<uint8_t> payload(n);
    for (uint8_t& b : payload) b = static_cast<uint8_t>(rng());
    for (uint8_t op = 1; op <= kMaxOpcode; ++op) {
      for (uint16_t status : {uint16_t{0}, uint16_t{4}}) {
        for (uint64_t id : {uint64_t{0}, uint64_t{77}, ~uint64_t{0}}) {
          std::vector<uint8_t> appended = {0xAA, 0xBB, 0xCC};  // a prefix
          AppendFrame(&appended, static_cast<Opcode>(op), status, id,
                      payload);

          std::vector<uint8_t> in_place = {0xAA, 0xBB, 0xCC};
          in_place.resize(in_place.size() + kFrameHeaderBytes + n);
          if (n > 0) std::memcpy(in_place.data() + 3 + 24, payload.data(), n);
          FinishFrame(in_place.data() + 3, static_cast<Opcode>(op), status,
                      id, n);
          ASSERT_EQ(in_place, appended) << "op " << int{op} << " n " << n;

          std::vector<uint8_t> want(kFrameHeaderBytes);
          wire_internal::PutU32(want.data(), kFrameMagic);
          want[4] = kProtocolVersion;
          want[5] = op;
          wire_internal::PutU16(want.data() + 6, status);
          wire_internal::PutU64(want.data() + 8, id);
          wire_internal::PutU32(want.data() + 16, static_cast<uint32_t>(n));
          std::vector<uint8_t> covered(want.begin(), want.begin() + 20);
          covered.insert(covered.end(), payload.begin(), payload.end());
          wire_internal::PutU32(want.data() + 20, Crc32c(covered));
          want.insert(want.end(), payload.begin(), payload.end());
          ASSERT_EQ(std::vector<uint8_t>(appended.begin() + 3,
                                         appended.end()),
                    want)
              << "op " << int{op} << " n " << n;
        }
      }
    }
  }
}

TEST(Protocol, PayloadReaderBoundsChecks) {
  std::vector<uint8_t> bytes(12, 0xAB);
  PayloadReader r(bytes);
  (void)r.U64();
  EXPECT_TRUE(r.ok());
  (void)r.U64();  // only 4 bytes left
  EXPECT_FALSE(r.ok());

  PayloadReader r2(bytes);
  std::vector<uint64_t> v;
  r2.U64Vec(1u << 20, &v);  // forged count far past the buffer
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(v.empty());
}

// The stats-document checks below are only as strict as this parser.
TEST(StatsJsonParser, AcceptsAndRejects) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"a":[1,true,null,"s\u0041"],"x":-3.5e2})", &v));
  ASSERT_NE(v.Find("a"), nullptr);
  EXPECT_EQ(v.Find("a")->array.size(), 4u);
  EXPECT_EQ(v.Find("a")->array[3].string, "sA");
  EXPECT_EQ(v.Find("x")->number, -350.0);

  EXPECT_FALSE(ParseJson("{", &v));
  EXPECT_FALSE(ParseJson(R"({"a":1} trailing)", &v));
  EXPECT_FALSE(ParseJson(R"({"a":)", &v));
  EXPECT_FALSE(ParseJson(R"({"a":1.})", &v));
  std::string deep(100, '[');
  EXPECT_FALSE(ParseJson(deep, &v));  // past the depth limit, cleanly
}

// worker_threads outside [0, kMaxWorkerThreads] is a typed error at
// construction, checked before the worker pool starts any thread.
TEST(ServerOptions, WorkerThreadsOutOfRangeIsRejected) {
  const NeatsStore store;
  for (int bad : {-1, NeatsServer::kMaxWorkerThreads + 1}) {
    NeatsServerOptions options;
    options.worker_threads = bad;
    EXPECT_THROW({ NeatsServer server(store, options); }, Error) << bad;
  }
}

// --- Loopback fixture -----------------------------------------------------

/// A store with deterministic contents behind a running server. The value
/// at index i is Truth(i) forever (appends only ever extend), so any
/// response can be checked exactly even while an appender runs.
class NetTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kInitial = 20000;

  static int64_t Truth(uint64_t i) {
    return static_cast<int64_t>((i * 2654435761u) % 100003u) - 50000;
  }

  void StartServer(NeatsServerOptions options = {},
                   uint64_t initial = kInitial) {
    NeatsStoreOptions store_options;
    store_options.shard_size = 4096;  // several sealed shards at this size
    store_options.log_sink = obs::NullLogSink();
    store_ = std::make_unique<NeatsStore>(store_options);
    std::vector<int64_t> values;
    values.reserve(initial);
    for (uint64_t i = 0; i < initial; ++i) values.push_back(Truth(i));
    store_->Append(values);
    server_ = std::make_unique<NeatsServer>(*store_, options);
    server_->Start();
  }

  Client Connect() { return Client::Connect("127.0.0.1", server_->port()); }

  /// A server-side counter from the live registry.
  uint64_t ServerCounter(const char* name) const {
    const obs::MetricsSnapshot snap = server_->StatsSnapshot();
    const uint64_t* v = snap.counter(name);
    return v == nullptr ? 0 : *v;
  }

  /// One write carrying an access frame per index (ids first_id, ...), so
  /// the server parses them as one run.
  static void SendAccessRound(const Client& c, std::span<const uint64_t> idx,
                              uint64_t first_id) {
    std::vector<uint8_t> frames;
    for (size_t k = 0; k < idx.size(); ++k) {
      std::vector<uint8_t> payload;
      PayloadWriter w(&payload);
      w.U64(idx[k]);
      AppendFrame(&frames, Opcode::kAccess, 0, first_id + k, payload);
    }
    SendAll(c.fd(), frames);
  }

  /// Reads the answers to SendAccessRound: in request order, Truth for an
  /// index below `size`, kOutOfRange past it.
  static void ExpectAccessAnswers(Client& c, std::span<const uint64_t> idx,
                                  uint64_t first_id, uint64_t size) {
    for (size_t k = 0; k < idx.size(); ++k) {
      const Client::Response r = c.ReadResponse();
      ASSERT_EQ(r.id, first_id + k) << "responses must keep request order";
      if (idx[k] >= size) {
        EXPECT_EQ(r.status, WireStatus::kOutOfRange) << "index " << idx[k];
        continue;
      }
      ASSERT_EQ(r.status, WireStatus::kOk) << "index " << idx[k];
      PayloadReader reader(r.payload);
      EXPECT_EQ(reader.I64(), Truth(idx[k])) << "index " << idx[k];
    }
  }

  /// The hostile-input probe: after feeding the server garbage, a fresh
  /// connection must still serve a correct response.
  void ExpectServerAlive() {
    Client c = Connect();
    EXPECT_EQ(c.Access(17), Truth(17));
  }

  std::unique_ptr<NeatsStore> store_;
  std::unique_ptr<NeatsServer> server_;
};

TEST_F(NetTest, EveryOpcodeRoundTrips) {
  StartServer();
  Client c = Connect();
  c.Ping();
  EXPECT_EQ(c.Size(), kInitial);
  EXPECT_EQ(c.Access(0), Truth(0));
  EXPECT_EQ(c.Access(kInitial - 1), Truth(kInitial - 1));

  std::vector<uint64_t> idx = {5, 9999, 3, 12345, 5, 19999};
  std::vector<int64_t> got = c.AccessBatch(idx);
  ASSERT_EQ(got.size(), idx.size());
  for (size_t k = 0; k < idx.size(); ++k) EXPECT_EQ(got[k], Truth(idx[k]));

  got = c.DecompressRange(4090, 20);  // crosses a shard boundary
  ASSERT_EQ(got.size(), 20u);
  for (size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], Truth(4090 + k));

  std::vector<IndexRange> ranges = {{0, 10}, {8000, 5}, {4095, 3}};
  got = c.DecompressRanges(ranges);
  ASSERT_EQ(got.size(), 18u);
  size_t at = 0;
  for (const IndexRange& r : ranges) {
    for (uint64_t k = 0; k < r.len; ++k) {
      EXPECT_EQ(got[at++], Truth(r.from + k));
    }
  }

  int64_t want = 0;
  for (uint64_t k = 100; k < 9100; ++k) want += Truth(k);
  EXPECT_EQ(c.RangeSum(100, 9000), want);

  const std::string stats = c.Stats();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(stats, &doc));
  ASSERT_NE(doc.Find("server"), nullptr);
  ASSERT_NE(doc.Find("store"), nullptr);
  EXPECT_NE(doc.Find("server")->Find("counters"), nullptr);
}

TEST_F(NetTest, TypedErrorsComeBackTyped) {
  StartServer();
  Client c = Connect();
  EXPECT_THROW((void)c.Access(kInitial), Error);       // out of range
  EXPECT_THROW((void)c.RangeSum(kInitial - 5, 10), Error);
  EXPECT_THROW((void)c.DecompressRange(0, uint64_t{1} << 40), Error);
  // The connection survives typed errors — they are responses, not faults.
  EXPECT_EQ(c.Access(3), Truth(3));
  try {
    (void)c.Access(kInitial + 1);
    FAIL() << "expected a typed error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kFailed);  // kOutOfRange maps to kFailed
  }
}

// A request past the store's end or the response frame cap keeps its wire
// status and message. The bound is checked in the query's own reader-lock
// hold; where a request fails both checks, the first failing range decides,
// its bound before its length.
TEST_F(NetTest, BoundAndFrameChecksKeepTheirStatusAndMessage) {
  NeatsServerOptions options;
  options.max_frame_bytes = 4096;  // responses of at most 512 values
  StartServer(options);
  Client c = Connect();
  const auto expect = [&](Opcode op, const std::vector<uint64_t>& words,
                          WireStatus status, const std::string& message) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    const bool counted =
        op == Opcode::kAccessBatch || op == Opcode::kDecompressRanges;
    if (counted) {
      const size_t n = op == Opcode::kAccessBatch ? words.size()
                                                  : words.size() / 2;
      w.U32(static_cast<uint32_t>(n));
    }
    for (uint64_t v : words) w.U64(v);
    const Client::Response r = c.Call(op, payload);
    EXPECT_EQ(r.status, status) << OpcodeName(op);
    EXPECT_EQ(std::string(r.payload.begin(), r.payload.end()), message)
        << OpcodeName(op);
  };
  const std::string past_probe = "probe past store size";
  const std::string past_range = "range past store size";
  const std::string too_big = "response would exceed max_frame_bytes";
  constexpr uint64_t kAll = ~uint64_t{0};
  expect(Opcode::kAccessBatch, {1, kInitial, 2}, WireStatus::kOutOfRange,
         past_probe);
  expect(Opcode::kDecompressRange, {kInitial - 5, 10},
         WireStatus::kOutOfRange, past_range);
  expect(Opcode::kRangeSum, {kInitial - 5, 10}, WireStatus::kOutOfRange,
         past_range);
  expect(Opcode::kRangeSum, {5, kAll}, WireStatus::kOutOfRange, past_range);
  expect(Opcode::kDecompressRange, {0, 600}, WireStatus::kBadRequest,
         too_big);
  expect(Opcode::kDecompressRanges, {kInitial, 1, 0, 600},
         WireStatus::kOutOfRange, past_range);
  expect(Opcode::kDecompressRanges, {0, 600, kInitial, 1},
         WireStatus::kBadRequest, too_big);
  expect(Opcode::kDecompressRanges, {0, 500, kInitial - 5, 100},
         WireStatus::kOutOfRange, past_range);
  expect(Opcode::kDecompressRanges, {0, 10, 1, kAll},
         WireStatus::kOutOfRange, past_range);
  // In bounds and under the cap, the same requests answer.
  EXPECT_EQ(c.RangeSum(kInitial - 10, 10), [] {
    int64_t sum = 0;
    for (uint64_t i = kInitial - 10; i < kInitial; ++i) sum += Truth(i);
    return sum;
  }());
  const std::vector<IndexRange> ranges = {{0, 500}, {kInitial - 12, 12}};
  const std::vector<int64_t> got = c.DecompressRanges(ranges);
  ASSERT_EQ(got.size(), 512u);
  EXPECT_EQ(got[0], Truth(0));
  EXPECT_EQ(got[511], Truth(kInitial - 1));
  EXPECT_EQ(c.AccessBatch(std::vector<uint64_t>{kInitial - 1}),
            std::vector<int64_t>{Truth(kInitial - 1)});
}

TEST_F(NetTest, PipelinedAccessesCoalesceAndAnswerInOrder) {
  NeatsServerOptions options;
  options.worker_threads = 0;  // inline execution: deterministic batching
  StartServer(options);

  // One write carrying 32 access frames: the server parses them into one
  // queue and feeds the run to a single store AccessBatch call.
  const int kFd = ConnectTo("127.0.0.1", server_->port());
  std::vector<uint8_t> burst;
  for (uint64_t k = 0; k < 32; ++k) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U64(k * 601 % kInitial);
    AppendFrame(&burst, Opcode::kAccess, 0, /*id=*/100 + k, payload);
  }
  SendAll(kFd, burst);
  for (uint64_t k = 0; k < 32; ++k) {
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(RecvAll(kFd, header));
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(header, &h));
    ASSERT_EQ(h.status, 0u);
    ASSERT_EQ(h.id, 100 + k) << "responses must keep request order";
    std::vector<uint8_t> payload(h.payload_len);
    ASSERT_TRUE(RecvAll(kFd, payload));
    PayloadReader r(payload);
    EXPECT_EQ(r.I64(), Truth(k * 601 % kInitial));
  }
  ::close(kFd);

  // The server's own accounting saw at least one multi-request batch.
  Client c = Connect();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(c.Stats(), &doc));
  const JsonValue* batches =
      doc.Find("server")->Find("counters")->Find("coalesce.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_GE(batches->number, 1.0);
}

// The IO thread answers a request itself (exec.inline counts it) when its
// length fits the inline caps: ping and size always, Access runs of up to
// 64 probes, range of up to 4096 values. access_batch, ranges, range_sum
// and stats, and every request past a cap, execute on the pool and leave
// exec.inline alone.
TEST_F(NetTest, ShortReadsRunInlineAndTheRestOnThePool) {
  StartServer();
  Client c = Connect();
  std::vector<uint64_t> idx(8);
  for (size_t k = 0; k < idx.size(); ++k) idx[k] = k * 2503 % kInitial;
  SendAccessRound(c, idx, 1);
  ExpectAccessAnswers(c, idx, 1, kInitial);
  EXPECT_EQ(ServerCounter("exec.inline"), 8u);
  c.Ping();
  EXPECT_EQ(ServerCounter("exec.inline"), 9u);
  EXPECT_EQ(c.Size(), kInitial);
  EXPECT_EQ(ServerCounter("exec.inline"), 10u);

  EXPECT_EQ(c.DecompressRange(4000, 200).size(), 200u);
  EXPECT_EQ(ServerCounter("exec.inline"), 11u);
  EXPECT_EQ(c.DecompressRange(0, 4096).size(), 4096u);  // at the cap
  EXPECT_EQ(ServerCounter("exec.inline"), 12u);

  // Past the caps, and the opcodes that never run inline.
  const std::vector<uint64_t> probes = {3, 19999, 4096};
  EXPECT_EQ(c.AccessBatch(probes),
            (std::vector<int64_t>{Truth(3), Truth(19999), Truth(4096)}));
  const std::vector<IndexRange> ranges = {{0, 4}, {9000, 4}};
  EXPECT_EQ(c.DecompressRanges(ranges).size(), 8u);
  const std::vector<int64_t> long_range = c.DecompressRange(7000, 4097);
  ASSERT_EQ(long_range.size(), 4097u);
  EXPECT_EQ(long_range[4096], Truth(7000 + 4096));
  std::vector<uint64_t> big_batch(65);
  for (size_t k = 0; k < big_batch.size(); ++k) {
    big_batch[k] = k * 307 % kInitial;
  }
  const std::vector<int64_t> batch = c.AccessBatch(big_batch);
  ASSERT_EQ(batch.size(), big_batch.size());
  EXPECT_EQ(batch[64], Truth(big_batch[64]));
  std::vector<IndexRange> many(65);
  for (size_t k = 0; k < many.size(); ++k) many[k] = {k * 300, 1};
  const std::vector<int64_t> many_values = c.DecompressRanges(many);
  ASSERT_EQ(many_values.size(), many.size());
  EXPECT_EQ(many_values[64], Truth(64 * 300));
  const std::vector<IndexRange> wide = {{0, 4000}, {8000, 97}};
  EXPECT_EQ(c.DecompressRanges(wide).size(), 4097u);
  int64_t want = 0;
  for (uint64_t k = 10; k < 9010; ++k) want += Truth(k);
  EXPECT_EQ(c.RangeSum(10, 9000), want);
  (void)c.Stats();
  EXPECT_EQ(ServerCounter("exec.inline"), 12u);

  // 100 accesses in one write: one run past the inline cap, so the pool
  // answers it as one coalesced batch.
  std::vector<uint64_t> long_run(100);
  for (size_t k = 0; k < long_run.size(); ++k) {
    long_run[k] = k * 389 % kInitial;
  }
  const uint64_t batches = ServerCounter("coalesce.batches");
  SendAccessRound(c, long_run, 1000);
  ExpectAccessAnswers(c, long_run, 1000, kInitial);
  EXPECT_EQ(ServerCounter("exec.inline"), 12u);
  EXPECT_EQ(ServerCounter("coalesce.batches"), batches + 1);
}

// An inline run that mixes in-range and past-size probes answers every
// request in order, the past-size ones with kOutOfRange.
TEST_F(NetTest, InlineRunMixingPastSizeProbesAnswersInOrder) {
  StartServer();
  Client c = Connect();
  const std::vector<uint64_t> idx = {kInitial,     7,           kInitial - 1,
                                     kInitial + 5, uint64_t{0}, ~uint64_t{0},
                                     12345,        kInitial};
  SendAccessRound(c, idx, 50);
  ExpectAccessAnswers(c, idx, 50, kInitial);
  EXPECT_EQ(ServerCounter("exec.inline"), idx.size());
  // All past the end: nothing reaches the store, every answer is typed.
  const std::vector<uint64_t> past = {kInitial, kInitial + 1};
  SendAccessRound(c, past, 90);
  ExpectAccessAnswers(c, past, 90, kInitial);
  EXPECT_EQ(ServerCounter("exec.inline"), idx.size() + past.size());
}

// One write carrying range, range_sum, range, three accesses, size and a
// range past the inline cap: the IO thread answers the first range, the
// pool the sum; the next range, the accesses and the size wait for the
// busy flag to clear and then run inline; the long range goes back to the
// pool. Every answer comes back in request order with exact values. Then,
// on a degraded store with a small frame cap, the IO thread answers the
// typed errors of short ranges itself and keeps serving after them.
TEST_F(NetTest, PipelineCrossingInlineAndPoolAnswersInOrder) {
  StartServer();
  {
    Client c = Connect();
    std::vector<uint8_t> frames;
    uint64_t next_id = 1;
    const auto range_frame = [&](Opcode op, uint64_t from, uint64_t len) {
      std::vector<uint8_t> payload;
      PayloadWriter w(&payload);
      w.U64(from);
      w.U64(len);
      AppendFrame(&frames, op, 0, next_id++, payload);
    };
    range_frame(Opcode::kDecompressRange, 50, 100);
    range_frame(Opcode::kRangeSum, 100, 9000);
    range_frame(Opcode::kDecompressRange, 4000, 4096);
    const std::vector<uint64_t> idx = {7, 12345, kInitial - 1};
    for (uint64_t i : idx) {
      std::vector<uint8_t> payload;
      PayloadWriter w(&payload);
      w.U64(i);
      AppendFrame(&frames, Opcode::kAccess, 0, next_id++, payload);
    }
    AppendFrame(&frames, Opcode::kSize, 0, next_id++, {});
    range_frame(Opcode::kDecompressRange, 12000, 5000);
    SendAll(c.fd(), frames);

    uint64_t want_id = 1;
    const auto next = [&] {
      Client::Response r = c.ReadResponse();
      EXPECT_EQ(r.id, want_id++) << "responses must keep request order";
      EXPECT_EQ(r.status, WireStatus::kOk) << "id " << r.id;
      return r;
    };
    const auto expect_range = [&](uint64_t from, uint64_t len) {
      const Client::Response r = next();
      std::vector<int64_t> got;
      PayloadReader reader(r.payload);
      reader.I64Vec(len, &got);
      EXPECT_TRUE(reader.ok() && reader.AtEnd()) << "id " << r.id;
      std::vector<int64_t> want(len);
      for (uint64_t k = 0; k < len; ++k) want[k] = Truth(from + k);
      EXPECT_EQ(got, want) << "id " << r.id;
    };
    const auto expect_word = [&](int64_t want) {
      const Client::Response r = next();
      PayloadReader reader(r.payload);
      EXPECT_EQ(reader.I64(), want) << "id " << r.id;
    };
    expect_range(50, 100);
    int64_t sum = 0;
    for (uint64_t k = 100; k < 9100; ++k) sum += Truth(k);
    expect_word(sum);
    expect_range(4000, 4096);
    for (uint64_t i : idx) expect_word(Truth(i));
    expect_word(static_cast<int64_t>(kInitial));
    expect_range(12000, 5000);
    // Inline: the two short ranges, the three accesses and the size.
    EXPECT_EQ(ServerCounter("exec.inline"), 6u);
  }

  // A store whose shard 1 ([4096, 8192)) is quarantined at open, served
  // with responses capped at 512 values.
  server_.reset();
  store_.reset();
  io::FaultFs fs;
  NeatsStoreOptions store_options;
  store_options.shard_size = 4096;
  store_options.log_sink = obs::NullLogSink();
  store_options.fs = &fs;
  {
    NeatsStore store = NeatsStore::CreateDir("/degraded", store_options);
    std::vector<int64_t> values;
    for (uint64_t i = 0; i < kInitial; ++i) values.push_back(Truth(i));
    store.Append(values);
    store.Flush();
  }
  fs.CorruptByte("/degraded/" + StoreManifest::ShardFileName(1), 8, 0x40);
  store_ = std::make_unique<NeatsStore>(
      NeatsStore::OpenDir("/degraded", store_options));
  ASSERT_TRUE(store_->degraded());
  NeatsServerOptions options;
  options.max_frame_bytes = 4096;
  server_ = std::make_unique<NeatsServer>(*store_, options);
  server_->Start();
  Client c = Connect();
  const auto range = [&](uint64_t from, uint64_t len) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U64(from);
    w.U64(len);
    return c.Call(Opcode::kDecompressRange, payload);
  };
  EXPECT_EQ(range(kInitial - 10, 20).status, WireStatus::kOutOfRange);
  EXPECT_EQ(range(0, 600).status, WireStatus::kBadRequest);
  EXPECT_EQ(range(4100, 100).status, WireStatus::kUnavailable);
  EXPECT_EQ(ServerCounter("exec.inline"), 3u);
  c.Ping();
  EXPECT_EQ(c.DecompressRange(100, 10)[9], Truth(109));
  EXPECT_EQ(ServerCounter("exec.inline"), 5u);
}

// One connection writes 16 4096-value ranges at once while a second one
// pings in a loop. A TryDispatch pass answers at most 4096 range values
// inline, so every other range of the burst goes to the pool and the IO
// thread serves the pinger between them. The ranges come back in order
// with exact values, every ping is answered, and exec.inline counts half
// the burst (one write arrives as one read) plus the pings.
TEST_F(NetTest, PipelinedRangesLeaveTheIoThreadToOtherConnections) {
  StartServer();
  Client burst = Connect();
  Client pinger = Connect();
  pinger.Ping();
  std::atomic<bool> done{false};
  std::atomic<bool> ping_failed{false};
  uint64_t pings = 1;
  std::thread ping_loop([&] {
    try {
      while (!done.load(std::memory_order_acquire)) {
        pinger.Ping();
        ++pings;
      }
    } catch (const Error&) {
      ping_failed = true;
    }
  });
  struct Stop {  // ends the ping loop even if an assert returns
    std::atomic<bool>& done;
    std::thread& t;
    ~Stop() {
      done.store(true, std::memory_order_release);
      if (t.joinable()) t.join();
    }
  } stop{done, ping_loop};

  constexpr uint64_t kRanges = 16;
  constexpr uint64_t kLen = 4096;
  const auto from = [](uint64_t k) { return k * 997 % (kInitial - kLen); };
  std::vector<uint8_t> frames;
  for (uint64_t k = 0; k < kRanges; ++k) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U64(from(k));
    w.U64(kLen);
    AppendFrame(&frames, Opcode::kDecompressRange, 0, k + 1, payload);
  }
  SendAll(burst.fd(), frames);
  for (uint64_t k = 0; k < kRanges; ++k) {
    const Client::Response r = burst.ReadResponse();
    ASSERT_EQ(r.id, k + 1) << "responses must keep request order";
    ASSERT_EQ(r.status, WireStatus::kOk) << "id " << r.id;
    std::vector<int64_t> got;
    PayloadReader reader(r.payload);
    reader.I64Vec(kLen, &got);
    ASSERT_TRUE(reader.ok() && reader.AtEnd()) << "id " << r.id;
    for (uint64_t i = 0; i < kLen; ++i) {
      ASSERT_EQ(got[i], Truth(from(k) + i)) << "id " << r.id << " at " << i;
    }
  }
  done.store(true, std::memory_order_release);
  ping_loop.join();
  EXPECT_FALSE(ping_failed.load());
  EXPECT_EQ(ServerCounter("exec.inline"), kRanges / 2 + pings);
}

// A Scrub parked in a shard open holds nothing readers wait on: pings and
// an 8-probe Access run sent meanwhile are all answered inline on the IO
// thread, with correct values, while the Scrub is still parked.
TEST_F(NetTest, IoThreadAnswersAccessRunsWhileScrubRuns) {
  io::FaultFs disk;
  GatedFs fs(disk, GatedFs::Op::kOpenRead, "shard-");
  NeatsStoreOptions store_options;
  store_options.shard_size = 4096;
  store_options.log_sink = obs::NullLogSink();
  store_options.fs = &fs;
  store_ = std::make_unique<NeatsStore>(
      NeatsStore::CreateDir("/gated", store_options));
  std::vector<int64_t> values;
  for (uint64_t i = 0; i < kInitial; ++i) values.push_back(Truth(i));
  store_->Append(values);
  store_->Flush();
  server_ = std::make_unique<NeatsServer>(*store_);
  server_->Start();
  Client pinger = Connect();
  Client reader = Connect();
  const timeval timeout{30, 0};  // a reader stuck behind Scrub fails
  for (const Client* c : {&pinger, &reader}) {
    ASSERT_EQ(::setsockopt(c->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
  }

  fs.Shut();
  std::thread writer([&] {
    store_->Scrub();
    std::vector<int64_t> more;
    for (uint64_t i = kInitial; i < kInitial + 512; ++i) {
      more.push_back(Truth(i));
    }
    store_->Append(more);
  });
  struct Release {  // opens the gate and joins even if an assert returns
    GatedFs& fs;
    std::thread& t;
    ~Release() {
      fs.Open();
      if (t.joinable()) t.join();
    }
  } release{fs, writer};
  fs.AwaitParked();

  pinger.Ping();
  std::vector<uint64_t> idx(8);
  for (size_t k = 0; k < idx.size(); ++k) idx[k] = k * 2503 % kInitial;
  SendAccessRound(reader, idx, 1);
  ExpectAccessAnswers(reader, idx, 1, kInitial);  // before the gate opens
  pinger.Ping();
  EXPECT_EQ(ServerCounter("exec.inline"), idx.size() + 2);  // + the pings

  fs.Open();
  writer.join();
  EXPECT_EQ(reader.Access(kInitial + 511), Truth(kInitial + 511));
}

// A Scrub parked in a shard open holds nothing readers wait on: a short
// range sent meanwhile is answered inline on the IO thread, with correct
// values, while the Scrub is still parked.
TEST_F(NetTest, InlineRangeAnswersWhileScrubRuns) {
  io::FaultFs disk;
  GatedFs fs(disk, GatedFs::Op::kOpenRead, "shard-");
  NeatsStoreOptions store_options;
  store_options.shard_size = 4096;
  store_options.log_sink = obs::NullLogSink();
  store_options.fs = &fs;
  store_ = std::make_unique<NeatsStore>(
      NeatsStore::CreateDir("/gated", store_options));
  std::vector<int64_t> values;
  for (uint64_t i = 0; i < kInitial; ++i) values.push_back(Truth(i));
  store_->Append(values);
  store_->Flush();
  server_ = std::make_unique<NeatsServer>(*store_);
  server_->Start();
  Client reader = Connect();
  const timeval timeout{30, 0};  // a reader stuck behind Scrub fails
  ASSERT_EQ(::setsockopt(reader.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  fs.Shut();
  std::thread writer([&] { store_->Scrub(); });
  struct Release {  // opens the gate and joins even if an assert returns
    GatedFs& fs;
    std::thread& t;
    ~Release() {
      fs.Open();
      if (t.joinable()) t.join();
    }
  } release{fs, writer};
  fs.AwaitParked();

  const std::vector<int64_t> got = reader.DecompressRange(4000, 300);
  ASSERT_EQ(got.size(), 300u);  // before the gate opens
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], Truth(4000 + k)) << k;
  }
  EXPECT_EQ(ServerCounter("exec.inline"), 1u);

  fs.Open();
  writer.join();
  EXPECT_EQ(reader.DecompressRange(19900, 100)[99], Truth(19999));
}

// An Append parked in its WAL fsync holds nothing readers wait on: an
// Access run sent meanwhile is answered inline on the IO thread, and the
// values being logged stay invisible (the size is unchanged, a probe at the
// first unacked index is out of range) until the fsync returns.
TEST_F(NetTest, AccessRunAnswersInlineWhileAnAppendFsyncs) {
  io::FaultFs disk;
  GatedFs fs(disk, GatedFs::Op::kSync, WalFileName());
  NeatsStoreOptions store_options;
  store_options.shard_size = 4096;
  store_options.log_sink = obs::NullLogSink();
  store_options.fs = &fs;
  store_ = std::make_unique<NeatsStore>(
      NeatsStore::CreateDir("/gated", store_options));
  std::vector<int64_t> values;
  for (uint64_t i = 0; i < kInitial; ++i) values.push_back(Truth(i));
  store_->Append(values);
  store_->Flush();
  server_ = std::make_unique<NeatsServer>(*store_);
  server_->Start();
  Client reader = Connect();
  const timeval timeout{30, 0};  // a reader stuck behind the fsync fails
  ASSERT_EQ(::setsockopt(reader.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  fs.Shut();
  std::thread appender([&] {
    std::vector<int64_t> more;
    for (uint64_t i = kInitial; i < kInitial + 512; ++i) {
      more.push_back(Truth(i));
    }
    store_->Append(more);
  });
  struct Release {  // opens the gate and joins even if an assert returns
    GatedFs& fs;
    std::thread& t;
    ~Release() {
      fs.Open();
      if (t.joinable()) t.join();
    }
  } release{fs, appender};
  fs.AwaitParked();

  std::vector<uint64_t> idx(8);
  for (size_t k = 0; k < idx.size(); ++k) idx[k] = k * 2503 % kInitial;
  idx.push_back(kInitial);  // the first value the parked Append logs
  SendAccessRound(reader, idx, 1);
  ExpectAccessAnswers(reader, idx, 1, kInitial);  // before the gate opens
  EXPECT_EQ(ServerCounter("exec.inline"), idx.size());
  EXPECT_EQ(store_->size(), kInitial);

  fs.Open();
  appender.join();
  EXPECT_EQ(store_->size(), kInitial + 512);
  EXPECT_EQ(reader.Access(kInitial), Truth(kInitial));
}

// The client's receive buffer: a pipelined mix of small frames and frames
// larger than the buffer's starting size, read back frame by frame across
// refills, moves and growth.
TEST_F(NetTest, ClientReadsPipelinedFramesAcrossBufferRefills) {
  StartServer();
  Client c = Connect();
  std::vector<uint8_t> frames;
  std::vector<uint64_t> lens;
  for (uint64_t k = 0; k < 12; ++k) {
    const uint64_t len = k % 3 == 0 ? 12000 : 1 + k * 37;  // 96000 B or few
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U64(k * 500);
    w.U64(len);
    AppendFrame(&frames, Opcode::kDecompressRange, 0, 1 + k, payload);
    lens.push_back(len);
  }
  SendAll(c.fd(), frames);
  Client moved = std::move(c);  // the buffer travels with the connection
  for (uint64_t k = 0; k < lens.size(); ++k) {
    const Client::Response r = moved.ReadResponse();
    ASSERT_EQ(r.id, 1 + k);
    ASSERT_EQ(r.status, WireStatus::kOk);
    ASSERT_EQ(r.payload.size(), lens[k] * 8);
    PayloadReader reader(r.payload);
    for (uint64_t j = 0; j < lens[k]; ++j) {
      ASSERT_EQ(reader.I64(), Truth(k * 500 + j));
    }
  }
  EXPECT_EQ(moved.Access(5), Truth(5));
}

TEST_F(NetTest, AdmissionGateShedsWithTypedOverload) {
  NeatsServerOptions options;
  options.max_inflight = 0;  // shed everything: deterministic
  StartServer(options);
  Client c = Connect();
  try {
    (void)c.Access(1);
    FAIL() << "expected the admission gate to shed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kUnavailable);  // kOverloaded maps here
  }
  JsonValue doc;
  ASSERT_TRUE(ParseJson(c.Stats(), &doc));  // stats still answers: no gate
  EXPECT_GE(doc.Find("server")->Find("counters")->Find("req.shed")->number,
            1.0);
}

// A first byte that names no dialect ('{' included: the server speaks no
// JSON) is answered with one typed kBadRequest frame, then the server
// closes the connection and keeps serving everyone else.
TEST_F(NetTest, UnrecognizedFirstByteGetsTypedErrorAndClose) {
  StartServer();
  for (const std::string& opening :
       {std::string("{\"op\":\"access\",\"i\":7}\n"),
        std::string("\x01\x02hello\n")}) {
    const int fd = ConnectTo("127.0.0.1", server_->port());
    SendAll(fd, {reinterpret_cast<const uint8_t*>(opening.data()),
                 opening.size()});
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(RecvAll(fd, header)) << "no frame for " << opening;
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(header, &h));
    EXPECT_EQ(h.status, static_cast<uint16_t>(WireStatus::kBadRequest));
    std::vector<uint8_t> payload(h.payload_len);
    ASSERT_TRUE(RecvAll(fd, payload));
    EXPECT_TRUE(VerifyFrameCrc(header, payload));
    EXPECT_EQ(std::string(payload.begin(), payload.end()),
              "unrecognized protocol");
    uint8_t more;
    EXPECT_LE(::recv(fd, &more, 1, 0), 0) << "connection left open";
    ::close(fd);
  }
  ExpectServerAlive();
}

TEST_F(NetTest, HttpStatsRouteAnswersCurl) {
  StartServer();
  const int fd = ConnectTo("127.0.0.1", server_->port());
  const std::string req =
      "GET /stats HTTP/1.0\r\nHost: localhost\r\nUser-Agent: curl\r\n\r\n";
  SendAll(fd, {reinterpret_cast<const uint8_t*>(req.data()), req.size()});
  std::string response;
  uint8_t buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // server closes after the response
    response.append(reinterpret_cast<const char*>(buf),
                    static_cast<size_t>(n));
  }
  ::close(fd);
  ASSERT_TRUE(response.rfind("HTTP/1.0 200 OK\r\n", 0) == 0) << response;
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(response.substr(body_at + 4), &doc));
  EXPECT_NE(doc.Find("server"), nullptr);

  // Unknown routes 404 and close; the server stays up.
  const int fd2 = ConnectTo("127.0.0.1", server_->port());
  const std::string bad = "GET /nope HTTP/1.0\r\n\r\n";
  SendAll(fd2, {reinterpret_cast<const uint8_t*>(bad.data()), bad.size()});
  std::string r2;
  while (true) {
    const ssize_t n = ::recv(fd2, buf, sizeof(buf), 0);
    if (n <= 0) break;
    r2.append(reinterpret_cast<const char*>(buf), static_cast<size_t>(n));
  }
  ::close(fd2);
  EXPECT_TRUE(r2.rfind("HTTP/1.0 404", 0) == 0) << r2;
  ExpectServerAlive();
}

TEST_F(NetTest, GracefulDrainFinishesInFlightWork) {
  StartServer();
  Client c = Connect();
  // Queue work, then ask for a drain before reading anything back.
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(0);
  w.U64(kInitial);
  const uint64_t id = c.SendRequest(Opcode::kRangeSum, payload);
  // Wait until the IO thread has admitted the request — a stop that lands
  // before the bytes are even read is allowed to drop them.
  while (true) {
    const obs::MetricsSnapshot snap = server_->StatsSnapshot();
    const uint64_t* admitted = snap.counter("req.range_sum");
    if (admitted != nullptr && *admitted >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->RequestStop();
  Client::Response r = c.ReadResponse();  // the drain completed this
  EXPECT_EQ(r.id, id);
  EXPECT_EQ(r.status, WireStatus::kOk);
  server_->Stop();
  // The listener is gone after the drain.
  EXPECT_THROW((void)Client::Connect("127.0.0.1", server_->port()), Error);
}

// A reader with a small receive window that drains slowly: the pipelined
// responses (ranges of max_frame_bytes / 8 values between scalar accesses
// and batches, ~8 MiB in all — twice Linux's default 4 MiB send-buffer
// ceiling) cannot fit in the socket buffers, so the server sends each
// response buffer in pieces, resuming from an offset. Every byte must
// arrive exactly as AppendFrame builds the expected response, in request
// order, with a valid CRC.
TEST_F(NetTest, SlowReaderGetsPipelinedResponsesByteExact) {
  NeatsServerOptions options;
  options.max_frame_bytes = size_t{128} << 10;
  StartServer(options);
  const uint64_t range_len = options.max_frame_bytes / 8;
  ASSERT_LT(range_len, kInitial);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;  // before connect, so the window starts small
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  const timeval timeout{30, 0};  // lost bytes fail the test, not hang it
  ASSERT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
      0);
  sockaddr_in addr = MakeAddr("127.0.0.1", server_->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::vector<uint8_t> requests;
  std::vector<uint8_t> want;  // the expected response stream
  uint64_t id = 1;
  auto expect_values = [&](Opcode op, const std::vector<int64_t>& values) {
    std::vector<uint8_t> payload;
    PayloadWriter(&payload).I64Span(values);
    AppendFrame(&want, op, 0, id++, payload);
  };
  for (uint64_t round = 0; round < 64; ++round) {
    const uint64_t from = round * 37 % (kInitial - range_len);
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U64(from);
    w.U64(range_len);
    AppendFrame(&requests, Opcode::kDecompressRange, 0, id, payload);
    std::vector<int64_t> values;
    for (uint64_t k = from; k < from + range_len; ++k) {
      values.push_back(Truth(k));
    }
    expect_values(Opcode::kDecompressRange, values);

    for (uint64_t k = 0; k < 3; ++k) {
      const uint64_t i = (round * 1009 + k * 7919) % kInitial;
      payload.clear();
      PayloadWriter(&payload).U64(i);
      AppendFrame(&requests, Opcode::kAccess, 0, id, payload);
      expect_values(Opcode::kAccess, {Truth(i)});
    }

    std::vector<uint64_t> idx = {round, kInitial - 1 - round, round * 311};
    payload.clear();
    PayloadWriter b(&payload);
    b.U32(static_cast<uint32_t>(idx.size()));
    values.clear();
    for (uint64_t i : idx) {
      b.U64(i);
      values.push_back(Truth(i));
    }
    AppendFrame(&requests, Opcode::kAccessBatch, 0, id, payload);
    expect_values(Opcode::kAccessBatch, values);
  }
  SendAll(fd, requests);

  std::vector<uint8_t> got;
  got.reserve(want.size());
  uint8_t buf[2048];
  size_t next_pause = 0;
  while (got.size() < want.size()) {
    if (got.size() >= next_pause) {  // a 2 ms stall every 64 KiB
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      next_pause += size_t{64} << 10;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection ended after " << got.size() << " of "
                    << want.size() << " bytes";
    got.insert(got.end(), buf, buf + n);
  }
  ::close(fd);
  ASSERT_EQ(got.size(), want.size());
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
  EXPECT_TRUE(diff.first == got.end())
      << "first differing byte at " << (diff.first - got.begin());

  // Walk the frames: each one is in order and carries a valid CRC.
  size_t at = 0;
  for (uint64_t want_id = 1; want_id < id; ++want_id) {
    ASSERT_LE(at + kFrameHeaderBytes, got.size());
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader({got.data() + at, kFrameHeaderBytes}, &h));
    ASSERT_EQ(h.id, want_id);
    ASSERT_EQ(h.status, 0u);
    ASSERT_LE(at + kFrameHeaderBytes + h.payload_len, got.size());
    EXPECT_TRUE(VerifyFrameCrc({got.data() + at, kFrameHeaderBytes},
                               {got.data() + at + kFrameHeaderBytes,
                                h.payload_len}));
    at += kFrameHeaderBytes + h.payload_len;
  }
  EXPECT_EQ(at, got.size());
  ExpectServerAlive();
}

// A burst of small pipelined frames, written in two pieces split inside a
// frame, is parsed from a read offset with one compaction per readable
// event: every response comes back in request order, byte for byte.
TEST_F(NetTest, PipelinedBurstAnswersEveryFrameByteExact) {
  NeatsServerOptions options;
  options.worker_threads = 2;
  options.max_inflight = size_t{1} << 16;  // admit the whole burst
  options.max_queued_per_conn = size_t{1} << 16;
  StartServer(options);

  constexpr uint64_t kFrames = 8192;
  std::vector<uint8_t> requests;
  std::vector<uint8_t> want;
  for (uint64_t id = 1; id <= kFrames; ++id) {
    std::vector<uint8_t> payload;
    std::vector<uint8_t> answer;
    PayloadWriter w(&payload);
    PayloadWriter a(&answer);
    Opcode op = Opcode::kPing;
    const uint64_t i = id * 7919 % (kInitial - 8);
    switch (id % 4) {
      case 0:
        break;
      case 1:
        op = Opcode::kAccess;
        w.U64(i);
        a.I64Span(std::vector<int64_t>{Truth(i)});
        break;
      case 2:
        op = Opcode::kSize;
        a.U64(kInitial);
        break;
      default: {
        op = Opcode::kDecompressRange;
        w.U64(i);
        w.U64(5);
        std::vector<int64_t> values;
        for (uint64_t k = i; k < i + 5; ++k) values.push_back(Truth(k));
        a.I64Span(values);
        break;
      }
    }
    AppendFrame(&requests, op, 0, id, payload);
    AppendFrame(&want, op, 0, id, answer);
  }

  const int fd = ConnectTo("127.0.0.1", server_->port());
  const timeval timeout{30, 0};  // lost bytes fail the test, not hang it
  ASSERT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
      0);
  const size_t split = requests.size() / 2 + 3;  // inside a frame
  SendAll(fd, std::span<const uint8_t>(requests).first(split));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  SendAll(fd, std::span<const uint8_t>(requests).subspan(split));

  std::vector<uint8_t> got;
  got.reserve(want.size());
  uint8_t buf[64 * 1024];
  while (got.size() < want.size()) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection ended after " << got.size() << " of "
                    << want.size() << " bytes";
    got.insert(got.end(), buf, buf + n);
  }
  ::close(fd);
  ASSERT_EQ(got.size(), want.size());
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
  EXPECT_TRUE(diff.first == got.end())
      << "first differing byte at " << (diff.first - got.begin());
  ExpectServerAlive();
}

// --- Protocol hardening sweeps (the WAL/manifest clobber pattern) ---------

/// Sends `bytes`, half-closes, and drains whatever the server answers.
/// The assertion is survival: the server must neither crash nor hang.
void FeedHostileBytes(uint16_t port, std::span<const uint8_t> bytes) {
  const int fd = ConnectTo("127.0.0.1", port);
  SendAll(fd, bytes);
  ::shutdown(fd, SHUT_WR);
  uint8_t sink[4096];
  while (true) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n <= 0) break;
  }
  ::close(fd);
}

TEST_F(NetTest, TruncationSweepEveryPrefixSurvives) {
  StartServer();
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(123);
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kAccess, 0, 5, payload);
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    FeedHostileBytes(server_->port(), {frame.data(), cut});
  }
  ExpectServerAlive();
}

TEST_F(NetTest, ClobberSweepEveryHeaderAndPayloadByteSurvives) {
  StartServer();
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U32(2);
  w.U64(1);
  w.U64(2);
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kAccessBatch, 0, 6, payload);
  for (size_t at = 0; at < frame.size(); ++at) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> bad = frame;
      bad[at] ^= flip;
      FeedHostileBytes(server_->port(), bad);
    }
  }
  ExpectServerAlive();
}

TEST_F(NetTest, ForgedLengthWordsSurvive) {
  StartServer();
  using wire_internal::PutU32;
  // A header whose length word promises far more than max_frame_bytes:
  // the server must reject it up front, not wait for 4 GiB.
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kPing, 0, 1, {});
  PutU32(frame.data() + 16, 0xFFFFFFFFu);  // forged payload_len, stale CRC
  FeedHostileBytes(server_->port(), frame);

  // A forged length with a *recomputed* CRC — framing checks alone must
  // still bound it.
  std::vector<uint8_t> forged;
  AppendFrame(&forged, Opcode::kPing, 0, 2, {});
  PutU32(forged.data() + 16, uint32_t{1} << 30);
  uint32_t crc = Crc32c({forged.data(), 20});
  PutU32(forged.data() + 20, crc);
  FeedHostileBytes(server_->port(), forged);

  // A length word smaller than the bytes actually sent: the remainder is
  // reinterpreted as the next frame header and rejected as garbage.
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(9);
  std::vector<uint8_t> shortframe;
  AppendFrame(&shortframe, Opcode::kAccess, 0, 3, payload);
  shortframe.resize(shortframe.size() + 64, 0xEE);
  FeedHostileBytes(server_->port(), shortframe);

  // Random-garbage openings in each dialect's first-byte class and in
  // bytes that name no dialect.
  for (uint8_t lead : {uint8_t{'N'}, uint8_t{'{'}, uint8_t{'G'},
                       uint8_t{0x00}, uint8_t{0xFF}}) {
    std::vector<uint8_t> garbage(64, lead);
    FeedHostileBytes(server_->port(), garbage);
  }
  ExpectServerAlive();
}

// --- Loopback concurrency (runs under the TSan CI job) --------------------

TEST_F(NetTest, ConcurrentMixedClientsAgainstLiveAppender) {
  StartServer();
  const uint64_t initial = store_->size();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checks{0};

  // A live appender: the store grows while clients read. Truth(i) stays
  // the value at i forever, so every response remains exactly checkable.
  std::thread appender([&] {
    uint64_t at = kInitial;
    while (!stop.load(std::memory_order_relaxed) && at < kInitial + 40000) {
      std::vector<int64_t> chunk;
      chunk.reserve(512);
      for (uint64_t k = 0; k < 512; ++k) chunk.push_back(Truth(at + k));
      store_->Append(chunk);
      at += 512;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        Client c = Client::Connect("127.0.0.1", server_->port());
        uint64_t rng = 0x9E3779B97F4A7C15ull * (t + 1);
        auto next = [&rng] {
          rng ^= rng << 13;
          rng ^= rng >> 7;
          rng ^= rng << 17;
          return rng;
        };
        for (int iter = 0; iter < 300; ++iter) {
          const uint64_t size = c.Size();
          ASSERT_GE(size, initial);  // sizes only grow
          switch (iter % 4) {
            case 0: {
              const uint64_t i = next() % size;
              ASSERT_EQ(c.Access(i), Truth(i));
              break;
            }
            case 1: {
              std::vector<uint64_t> idx(16);
              for (uint64_t& v : idx) v = next() % size;
              std::vector<int64_t> got = c.AccessBatch(idx);
              for (size_t k = 0; k < idx.size(); ++k) {
                ASSERT_EQ(got[k], Truth(idx[k]));
              }
              break;
            }
            case 2: {
              const uint64_t len = 64 + next() % 256;
              const uint64_t from = next() % (size - len);
              int64_t want = 0;
              for (uint64_t k = from; k < from + len; ++k) want += Truth(k);
              ASSERT_EQ(c.RangeSum(from, len), want);
              break;
            }
            default: {
              const uint64_t from = next() % (size - 32);
              std::vector<int64_t> got = c.DecompressRange(from, 32);
              for (size_t k = 0; k < got.size(); ++k) {
                ASSERT_EQ(got[k], Truth(from + k));
              }
              break;
            }
          }
          checks.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << t << ": " << e.what();
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true);
  appender.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(checks.load(), kClients * 300u);
}

}  // namespace
}  // namespace neats::net
