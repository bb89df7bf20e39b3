// The networked serving front-end: NeatsServer exposes one NeatsStore's
// read surface over TCP (ROADMAP item 1 — the step that turns "millions of
// users" into a measurable RPS number).
//
// Shape (docs/ARCHITECTURE.md, "Network layer"):
//
//   accept ─▶ [ IO thread: epoll event loop ]
//                │  nonblocking reads ─▶ frame parser ─▶ per-conn
//                │  request queue (admission gate sheds kOverloaded here)
//                │
//                │  dispatch, in queue order, one loop per connection; a
//                │  work item is a run of consecutive Access requests or
//                │  one request of another opcode:
//                │   - an item RunsInline() prices below the two thread
//                │     hand-offs a pool round trip costs runs to
//                │     completion right here, its response queued straight
//                │     onto the send queue: ping, size, Access runs of
//                │     up to kMaxInlineRun probes, and range of up to
//                │     kMaxInlineValues values while the pass's budget of
//                │     kMaxInlineValues range values lasts
//                │   - anything longer or past the budget, access_batch,
//                │     ranges, range_sum and stats become the
//                │     connection's one work item on the pool
//                ▼
//             [ worker ThreadPool (common/thread_pool.hpp, Submit) ]
//                │  runs the same Execute() the IO thread runs inline,
//                │  into one response buffer, then hands that buffer back
//                │  through the completion list + wake pipe
//                ▼
//             [ IO thread: send queue, backpressure, timeouts ]
//
// Neither side ever waits on the store's writer: a query loads the
// store's published snapshot (NeatsStore::snapshot(), a pointer copy) and
// answers from it while the writer fsyncs, seals, drains or scrubs. The
// request's bound check and its answer come from that one snapshot, so a
// concurrent Append can never slip between them.
//
// One buffer per response: whoever answers reserves the 24-byte frame
// header, lets the store decode values straight into the payload behind
// it, and finishes the frame in place (protocol.hpp FinishFrame: header
// fields, then the CRC over the bytes where they lie). The buffer is moved
// — never copied — into the connection's send queue, and sendmsg(2) sends
// it from an offset until the socket has taken it all.
//
// Threading contract: the IO thread owns every connection — socket,
// buffers, queues, the busy flag. Workers never touch one: a work item
// carries its connection's shared_ptr only to return it, with the
// response buffer, on the mutex-guarded completion list, and the wake
// pipe tells the loop to pick it up. One work item per connection at a
// time, and inline answers only while none is in flight, keep responses
// in request order (sheds are the documented exception — they answer
// immediately, which is the point; match by frame id).
//
// Robustness is part of the subsystem: bounded input/output buffers,
// max-inflight admission shedding typed kOverloaded responses instead of
// queueing unboundedly, idle-connection timeouts, graceful drain (stop
// accepting, finish queued work, flush, close), and malformed-frame
// hardening — oversized length words, bad CRCs, truncations, unknown
// first bytes all produce a typed error or a clean close, never a crash
// (tests/net_test.cpp sweeps every truncation point and clobbers every
// header byte).
//
// Dialects: binary frames (src/net/protocol.hpp) and, on the same port, a
// minimal HTTP GET responder so `curl http://host:port/stats` returns the
// stats document — the observability layer's StatsSnapshot()/MetricsJson
// wired to a route. Any other first byte gets a typed kBadRequest frame
// and the connection closes.

#pragma once

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_json.hpp"
#include "store/neats_store.hpp"

namespace neats::net {

/// Tuning knobs of a NeatsServer.
struct NeatsServerOptions {
  /// IPv4 address to bind. Loopback by default — fronting a store on a
  /// public interface is a proxy's job.
  std::string host = "127.0.0.1";

  /// TCP port; 0 asks the kernel for an ephemeral port (read it back with
  /// port() after Start()).
  uint16_t port = 0;

  /// Worker threads for the requests the IO thread does not answer itself:
  /// access_batch, ranges, range_sum, stats, and Access runs and range past
  /// the inline caps (NeatsServer::RunsInline). 0 runs those inline on the
  /// IO thread too — single-threaded mode, still correct, useful for
  /// deterministic tests.
  int worker_threads = 3;

  /// listen(2) backlog.
  int backlog = 128;

  /// Open-connection cap; connections beyond it are accepted and
  /// immediately closed (counted as conn.rejected).
  size_t max_connections = 1024;

  /// Frame payload cap, both directions: a request announcing more is
  /// rejected and the connection closed; a query whose response would
  /// exceed it gets kBadRequest.
  size_t max_frame_bytes = size_t{16} << 20;

  /// Admission gate: total requests queued + executing across every
  /// connection. At the cap, new requests are shed with a typed
  /// kOverloaded response instead of queueing unboundedly.
  size_t max_inflight = 1024;

  /// Per-connection queued-request cap (a single pipelining client cannot
  /// monopolize the admission budget); over it, requests shed kOverloaded.
  size_t max_queued_per_conn = 512;

  /// Connections idle (no requests in flight, nothing buffered) longer
  /// than this are closed. 0 = never.
  uint32_t idle_timeout_ms = 60000;

  /// Graceful-drain budget: after RequestStop(), queued work gets this
  /// long to finish and flush before remaining connections are closed.
  uint32_t drain_timeout_ms = 5000;
};

namespace server_internal {

/// Level-triggered epoll readiness poller.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
  };

  Poller() : ep_(::epoll_create1(0)) {
    if (ep_ < 0) ThrowErrno("epoll_create1");
  }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  ~Poller() { ::close(ep_); }

  void Add(int fd, bool want_read, bool want_write) {
    Ctl(EPOLL_CTL_ADD, fd, want_read, want_write, "epoll_ctl(ADD)");
  }

  void Update(int fd, bool want_read, bool want_write) {
    Ctl(EPOLL_CTL_MOD, fd, want_read, want_write, "epoll_ctl(MOD)");
  }

  void Remove(int fd) { ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Waits up to timeout_ms (-1 = forever) and appends ready fds to *out.
  void Wait(std::vector<Event>* out, int timeout_ms) {
    out->clear();
    epoll_event evs[64];
    const int n = ::epoll_wait(ep_, evs, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return;
      ThrowErrno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = evs[i].data.fd;
      e.readable = (evs[i].events & EPOLLIN) != 0;
      e.writable = (evs[i].events & EPOLLOUT) != 0;
      e.hangup = (evs[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      out->push_back(e);
    }
  }

 private:
  void Ctl(int op, int fd, bool r, bool w, const char* what) {
    epoll_event ev{};
    ev.events = (r ? EPOLLIN : 0u) | (w ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(ep_, op, fd, &ev) < 0) ThrowErrno(what);
  }

  int ep_;
};

/// The server's wiring into the observability layer — its own registry
/// (connections, per-opcode requests, sheds, bytes, coalescing), separate
/// from the store's so the stats document reports both sides.
struct ServerObs {
  obs::MetricsRegistry registry;
  obs::CounterId c_accepted, c_closed, c_rejected, c_idle_closed,
      c_requests, c_errors, c_shed, c_bytes_in, c_bytes_out, c_bad_frames,
      c_http_requests, c_coalesced_batches, c_coalesced_probes,
      c_exec_inline;
  obs::CounterId c_op[kMaxOpcode + 1];
  obs::GaugeId g_connections, g_inflight;
  obs::HistogramId h_op[kMaxOpcode + 1];
  obs::HistogramId h_batch;

  ServerObs() {
    c_accepted = registry.AddCounter("conn.accepted");
    c_closed = registry.AddCounter("conn.closed");
    c_rejected = registry.AddCounter("conn.rejected");
    c_idle_closed = registry.AddCounter("conn.idle_closed");
    c_requests = registry.AddCounter("req.total");
    c_errors = registry.AddCounter("resp.errors");
    c_shed = registry.AddCounter("req.shed");
    c_bytes_in = registry.AddCounter("bytes.in");
    c_bytes_out = registry.AddCounter("bytes.out");
    c_bad_frames = registry.AddCounter("frames.malformed");
    c_http_requests = registry.AddCounter("req.http");
    c_coalesced_batches = registry.AddCounter("coalesce.batches");
    c_coalesced_probes = registry.AddCounter("coalesce.probes");
    c_exec_inline = registry.AddCounter("exec.inline");
    for (uint8_t op = 1; op <= kMaxOpcode; ++op) {
      c_op[op] = registry.AddCounter(
          std::string("req.") + OpcodeName(static_cast<Opcode>(op)));
      h_op[op] = registry.AddHistogram(
          std::string("op.") + OpcodeName(static_cast<Opcode>(op)));
    }
    h_batch = registry.AddHistogram("coalesce.batch");
    g_connections = registry.AddGauge("conn.open");
    g_inflight = registry.AddGauge("req.inflight");
  }
};

/// One parsed request.
struct Request {
  Opcode op = Opcode::kPing;
  uint64_t id = 0;
  uint64_t a = 0;                  // index / from
  uint64_t b = 0;                  // len
  std::vector<uint64_t> idx;       // access_batch probes
  std::vector<IndexRange> ranges;  // multi-range query
};

/// A response buffer: one or more complete frames (or one HTTP response),
/// built by whoever answers and moved, never copied, to the socket.
using Buffer = std::vector<uint8_t>;

/// One connection, owned by the IO thread.
struct Conn {
  enum class Mode { kUnknown, kBinary, kHttp };

  int fd = -1;
  Mode mode = Mode::kUnknown;
  std::vector<uint8_t> in;    // unparsed input bytes
  std::deque<Buffer> out;     // response buffers awaiting the socket
  size_t out_sent = 0;        // bytes of out.front() already sent
  size_t out_bytes = 0;       // unsent bytes across `out`
  std::deque<Request> queue;  // parsed, admitted, not yet dispatched
  bool busy = false;          // a work item is on the pool
  bool closed = false;        // fd closed, conn detached from the map
  bool read_shut = false;     // peer sent FIN (or HTTP request complete)
  bool close_after_drain = false;
  bool want_read = true;      // cached poller interest
  bool want_write = false;
  uint64_t last_activity = 0;

  /// Queues `buf` behind every response already awaiting the socket.
  void Queue(Buffer buf) {
    if (buf.empty()) return;
    out_bytes += buf.size();
    out.push_back(std::move(buf));
  }

  /// Drops the first `n` unsent bytes (the socket took them).
  void Consume(size_t n) {
    out_bytes -= n;
    while (n > 0) {
      const size_t left = out.front().size() - out_sent;
      if (n < left) {
        out_sent += n;
        return;
      }
      n -= left;
      out.pop_front();
      out_sent = 0;
    }
  }
};

}  // namespace server_internal

/// A TCP front-end serving one NeatsStore's read surface. Construction
/// binds nothing; Start() binds, spawns the IO thread, and returns.
/// Queries run against the caller's store concurrently with the caller's
/// own appends/queries (the store's single-writer/multi-reader contract);
/// the server itself never mutates the store.
class NeatsServer {
  using Conn = server_internal::Conn;
  using Poller = server_internal::Poller;
  using Request = server_internal::Request;
  using ServerObs = server_internal::ServerObs;
  using Buffer = server_internal::Buffer;

 public:
  explicit NeatsServer(const NeatsStore& store,
                       NeatsServerOptions options = {})
      : store_(store),
        options_(std::move(options)),
        obs_(std::make_unique<ServerObs>()),
        workers_(std::make_unique<ThreadPool>(options_.worker_threads + 1)) {
    NEATS_REQUIRE(options_.max_frame_bytes >= 64,
                  "max_frame_bytes too small to carry any request");
  }

  NeatsServer(const NeatsServer&) = delete;
  NeatsServer& operator=(const NeatsServer&) = delete;

  ~NeatsServer() { Stop(); }

  /// Binds the listener (throwing on failure — before any thread exists),
  /// then spawns the IO loop.
  void Start() {
    NEATS_REQUIRE(!io_.joinable(), "server already started");
    stop_.store(false, std::memory_order_relaxed);
    listen_fd_ =
        CreateListener(options_.host, options_.port, options_.backlog);
    SetNonBlocking(listen_fd_);
    port_ = BoundPort(listen_fd_);
    int pfd[2];
    if (::pipe(pfd) < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ThrowErrno("pipe");
    }
    wake_r_ = pfd[0];
    wake_w_ = pfd[1];
    SetNonBlocking(wake_r_);
    SetNonBlocking(wake_w_);
    io_ = std::thread([this] { IoLoop(); });
  }

  /// The port the server listens on (after Start()).
  uint16_t port() const { return port_; }

  /// Asks the IO loop to drain and exit. Async-signal-safe: one atomic
  /// store and one write(2) — the server binary calls this from its
  /// SIGINT/SIGTERM handler.
  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    if (wake_w_ >= 0) {
      const char b = 's';
      [[maybe_unused]] ssize_t n = ::write(wake_w_, &b, 1);
    }
  }

  /// Graceful shutdown: stop accepting, finish queued work (up to
  /// drain_timeout_ms), flush, close, join. Idempotent.
  void Stop() {
    if (!io_.joinable()) return;
    RequestStop();
    io_.join();
    workers_->DrainTasks();
    if (wake_r_ >= 0) ::close(wake_r_);
    if (wake_w_ >= 0) ::close(wake_w_);
    wake_r_ = wake_w_ = -1;
  }

  /// A point-in-time snapshot of the server-side registry (conn.*, req.*,
  /// coalesce.*, bytes.*; gauges refreshed).
  obs::MetricsSnapshot StatsSnapshot() const {
    ServerObs& ob = *obs_;
    ob.registry.SetGauge(
        ob.g_connections,
        static_cast<int64_t>(open_conns_.load(std::memory_order_relaxed)));
    ob.registry.SetGauge(
        ob.g_inflight,
        static_cast<int64_t>(inflight_.load(std::memory_order_relaxed)));
    return ob.registry.Snapshot();
  }

  /// The stats document the kStats opcode and the HTTP route both serve:
  /// {"server": <server metrics>, "store": <store metrics>} in the
  /// obs::MetricsJson schema.
  std::string StatsJson() const {
    std::string out = "{\n\"server\":\n";
    out += obs::MetricsJson(StatsSnapshot());
    out += ",\n\"store\":\n";
    out += obs::MetricsJson(store_.StatsSnapshot());
    out += "\n}";
    return out;
  }

 private:
  // --- IO loop -------------------------------------------------------------

  void IoLoop() {
    Poller poller;
    poller_ = &poller;
    poller.Add(listen_fd_, /*read=*/true, /*write=*/false);
    poller.Add(wake_r_, /*read=*/true, /*write=*/false);
    std::vector<Poller::Event> events;
    uint64_t last_idle_sweep = obs::NowNs();
    uint64_t drain_deadline = 0;
    bool draining = false;
    while (true) {
      poller.Wait(&events, 50);
      const uint64_t now = obs::NowNs();
      for (const Poller::Event& ev : events) {
        if (ev.fd == wake_r_) {
          char buf[256];
          while (::read(wake_r_, buf, sizeof(buf)) > 0) {
          }
          continue;
        }
        if (ev.fd == listen_fd_) {
          if (!draining && ev.readable) AcceptNew(now);
          continue;
        }
        auto it = conns_.find(ev.fd);
        if (it == conns_.end()) continue;
        // A copy, not a reference: CloseConn (reachable from every handler
        // below) erases the map node this iterator points into.
        const std::shared_ptr<Conn> conn = it->second;
        if (ev.hangup && !ev.readable) {
          CloseConn(conn);
          continue;
        }
        if (ev.readable && !draining) OnReadable(conn, now);
        if (conn->closed) continue;
        if (ev.writable) FlushOut(conn);
        if (conn->closed) continue;
        TryDispatch(conn);
        MaybeFinish(conn);
        if (!conn->closed) UpdateInterest(conn, draining);
      }
      HandleCompletions(now, draining);
      if (stop_.load(std::memory_order_acquire) && !draining) {
        draining = true;
        drain_deadline =
            now + uint64_t{options_.drain_timeout_ms} * 1'000'000;
        poller.Remove(listen_fd_);
        ::close(listen_fd_);
        listen_fd_ = -1;
        // Stop reading everywhere; queued work keeps executing.
        for (auto& [fd, conn] : conns_) UpdateInterest(conn, draining);
      }
      if (draining) {
        bool all_idle = true;
        for (auto& [fd, conn] : conns_) {
          if (!ConnIdle(*conn)) {
            all_idle = false;
            break;
          }
        }
        if (all_idle || now >= drain_deadline) break;
        continue;
      }
      if (options_.idle_timeout_ms > 0 &&
          now - last_idle_sweep > 1'000'000'000) {
        last_idle_sweep = now;
        IdleSweep(now);
      }
    }
    // Drain epilogue: every response that could be flushed has been (or
    // the deadline passed); close whatever remains.
    std::vector<std::shared_ptr<Conn>> leftover;
    leftover.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) leftover.push_back(conn);
    for (auto& conn : leftover) CloseConn(conn);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    poller_ = nullptr;
  }

  static bool ConnIdle(const Conn& conn) {
    return conn.queue.empty() && conn.out.empty() && !conn.busy;
  }

  void AcceptNew(uint64_t now) {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          return;
        }
        return;  // transient accept failure; the loop will retry
      }
      if (conns_.size() >= options_.max_connections) {
        ::close(fd);
        obs_->registry.Count(obs_->c_rejected);
        continue;
      }
      SetNonBlocking(fd);
      SetNoDelay(fd);
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->last_activity = now;
      conns_.emplace(fd, conn);
      poller_->Add(fd, /*read=*/true, /*write=*/false);
      open_conns_.fetch_add(1, std::memory_order_relaxed);
      obs_->registry.Count(obs_->c_accepted);
    }
  }

  void IdleSweep(uint64_t now) {
    const uint64_t budget =
        uint64_t{options_.idle_timeout_ms} * 1'000'000;
    std::vector<std::shared_ptr<Conn>> victims;
    for (auto& [fd, conn] : conns_) {
      if (now - conn->last_activity > budget && ConnIdle(*conn)) {
        victims.push_back(conn);
      }
    }
    for (auto& conn : victims) {
      obs_->registry.Count(obs_->c_idle_closed);
      CloseConn(conn);
    }
  }

  // By value on purpose: callers often pass the shared_ptr stored inside
  // conns_, and the erase below would destroy a by-reference parameter
  // mid-function.
  void CloseConn(std::shared_ptr<Conn> conn) {  // NOLINT
    if (conn->closed) return;
    conn->closed = true;
    poller_->Remove(conn->fd);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    // Requests admitted but never dispatched release their admission
    // slots; executing requests release theirs at worker completion.
    if (!conn->queue.empty()) {
      inflight_.fetch_sub(conn->queue.size(), std::memory_order_relaxed);
      conn->queue.clear();
    }
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    obs_->registry.Count(obs_->c_closed);
  }

  void UpdateInterest(const std::shared_ptr<Conn>& conn, bool draining) {
    const bool read =
        !draining && !conn->read_shut &&
        conn->out_bytes < options_.max_frame_bytes * 2 &&
        conn->in.size() < options_.max_frame_bytes + kFrameHeaderBytes;
    const bool write = !conn->out.empty();
    if (read != conn->want_read || write != conn->want_write) {
      conn->want_read = read;
      conn->want_write = write;
      poller_->Update(conn->fd, read, write);
    }
  }

  void OnReadable(const std::shared_ptr<Conn>& conn, uint64_t now) {
    uint8_t buf[64 * 1024];
    while (!conn->read_shut &&
           conn->in.size() <
               options_.max_frame_bytes + kFrameHeaderBytes + sizeof(buf)) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        CloseConn(conn);
        return;
      }
      if (n == 0) {
        // FIN: the peer is done sending; finish its queued work, flush,
        // then close from our side.
        conn->read_shut = true;
        conn->close_after_drain = true;
        break;
      }
      conn->in.insert(conn->in.end(), buf, buf + n);
      obs_->registry.Count(obs_->c_bytes_in, static_cast<uint64_t>(n));
      conn->last_activity = now;
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    }
    if (!conn->closed) ParseInput(conn);
  }

  // --- Parsing (IO thread) -------------------------------------------------

  void ParseInput(const std::shared_ptr<Conn>& conn) {
    if (conn->mode == Conn::Mode::kUnknown) {
      if (conn->in.empty()) return;
      const uint8_t first = conn->in[0];
      if (first == 0x4E) {  // 'N' — binary magic
        conn->mode = Conn::Mode::kBinary;
      } else if (first == 'G') {
        conn->mode = Conn::Mode::kHttp;
      } else {
        obs_->registry.Count(obs_->c_bad_frames);
        SendError(conn, Opcode::kPing, 0, WireStatus::kBadRequest,
                  "unrecognized protocol");
        conn->close_after_drain = true;
        conn->read_shut = true;
        return;
      }
    }
    switch (conn->mode) {
      case Conn::Mode::kBinary: ParseBinary(conn); break;
      case Conn::Mode::kHttp: ParseHttp(conn); break;
      case Conn::Mode::kUnknown: break;
    }
  }

  /// Parses every complete frame in `conn->in` from a read offset, then
  /// drops the parsed bytes with one erase, so a pipelined burst costs one
  /// shift of the unparsed tail per readable event instead of one per frame.
  void ParseBinary(const std::shared_ptr<Conn>& conn) {
    size_t at = 0;  // first unparsed byte of conn->in
    while (!conn->closed && conn->in.size() - at >= kFrameHeaderBytes) {
      const std::span<const uint8_t> rest(conn->in.data() + at,
                                          conn->in.size() - at);
      FrameHeader h;
      if (!DecodeFrameHeader(rest, &h)) {
        HardProtocolError(conn, 0, "bad frame magic");
        return;
      }
      if (h.version != kProtocolVersion) {
        HardProtocolError(conn, h.id, "unsupported protocol version");
        return;
      }
      if (h.payload_len > options_.max_frame_bytes) {
        // A forged length word: do NOT wait for that many bytes.
        HardProtocolError(conn, h.id, "frame exceeds max_frame_bytes");
        return;
      }
      const size_t frame = kFrameHeaderBytes + h.payload_len;
      if (rest.size() < frame) break;  // await the rest
      const std::span<const uint8_t> header = rest.first(kFrameHeaderBytes);
      const std::span<const uint8_t> payload =
          rest.subspan(kFrameHeaderBytes, h.payload_len);
      if (!VerifyFrameCrc(header, payload)) {
        // The stream's framing can no longer be trusted.
        HardProtocolError(conn, h.id, "frame CRC mismatch");
        return;
      }
      at += frame;
      if (!IsValidOpcode(h.opcode)) {
        obs_->registry.Count(obs_->c_bad_frames);
        SendError(conn, Opcode::kPing, h.id, WireStatus::kBadRequest,
                  "unknown opcode");
        continue;
      }
      Request req;
      req.op = static_cast<Opcode>(h.opcode);
      req.id = h.id;
      std::string parse_error;
      if (!ParsePayload(payload, &req, &parse_error)) {
        obs_->registry.Count(obs_->c_bad_frames);
        SendError(conn, req.op, h.id, WireStatus::kBadRequest, parse_error);
      } else {
        Admit(conn, std::move(req));
      }
    }
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(at));
    TryDispatch(conn);
    FlushOut(conn);
    if (!conn->closed) UpdateInterest(conn, false);
  }

  /// Binary payload grammar per opcode (docs/FORMAT.md).
  bool ParsePayload(std::span<const uint8_t> payload, Request* req,
                    std::string* error) {
    PayloadReader r(payload);
    switch (req->op) {
      case Opcode::kPing:
      case Opcode::kSize:
      case Opcode::kStats:
        break;
      case Opcode::kAccess:
        req->a = r.U64();
        break;
      case Opcode::kAccessBatch: {
        const uint32_t n = r.U32();
        if (uint64_t{n} * 8 > payload.size()) {
          *error = "probe count disagrees with payload size";
          return false;
        }
        r.U64Vec(n, &req->idx);
        break;
      }
      case Opcode::kDecompressRange:
      case Opcode::kRangeSum:
        req->a = r.U64();
        req->b = r.U64();
        break;
      case Opcode::kDecompressRanges: {
        const uint32_t n = r.U32();
        if (uint64_t{n} * 16 > payload.size()) {
          *error = "range count disagrees with payload size";
          return false;
        }
        req->ranges.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
          req->ranges[i].from = r.U64();
          req->ranges[i].len = r.U64();
        }
        break;
      }
    }
    if (!r.ok() || !r.AtEnd()) {
      *error = "malformed payload";
      return false;
    }
    return true;
  }

  void ParseHttp(const std::shared_ptr<Conn>& conn) {
    static constexpr std::string_view kEnd = "\r\n\r\n";
    const std::string_view text(
        reinterpret_cast<const char*>(conn->in.data()), conn->in.size());
    const size_t end = text.find(kEnd);
    if (end == std::string_view::npos) {
      if (conn->in.size() > 8192) {
        obs_->registry.Count(obs_->c_bad_frames);
        conn->Queue(Text("HTTP/1.0 400 Bad Request\r\n\r\n"));
        conn->close_after_drain = true;
        conn->read_shut = true;
        FlushOut(conn);
      }
      return;
    }
    obs_->registry.Count(obs_->c_http_requests);
    const std::string_view request_line =
        text.substr(0, text.find("\r\n"));
    conn->read_shut = true;  // one request per HTTP connection
    conn->close_after_drain = true;
    conn->in.clear();
    const bool is_stats = request_line.rfind("GET /stats", 0) == 0 ||
                          request_line.rfind("GET /metrics", 0) == 0 ||
                          request_line.rfind("GET / ", 0) == 0;
    if (!is_stats) {
      conn->Queue(Text("HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n"
                       "Connection: close\r\n\r\n"));
      FlushOut(conn);
      if (!conn->closed) {
        MaybeFinish(conn);
        if (!conn->closed) UpdateInterest(conn, false);
      }
      return;
    }
    Request req;
    req.op = Opcode::kStats;
    Admit(conn, std::move(req));
    TryDispatch(conn);
    if (!conn->closed) UpdateInterest(conn, false);
  }

  /// A framing-level failure the stream cannot recover from: best-effort
  /// typed error response, then close after it drains.
  void HardProtocolError(const std::shared_ptr<Conn>& conn, uint64_t id,
                         const std::string& message) {
    obs_->registry.Count(obs_->c_bad_frames);
    SendError(conn, Opcode::kPing, id, WireStatus::kBadRequest, message);
    conn->in.clear();
    conn->read_shut = true;
    conn->close_after_drain = true;
    FlushOut(conn);
    if (!conn->closed) {
      MaybeFinish(conn);
      if (!conn->closed) UpdateInterest(conn, false);
    }
  }

  // --- Admission & dispatch (IO thread) ------------------------------------

  void Admit(const std::shared_ptr<Conn>& conn, Request req) {
    obs_->registry.Count(obs_->c_requests);
    obs_->registry.Count(obs_->c_op[static_cast<uint8_t>(req.op)]);
    // Ping and Stats bypass the gate: the health probe and the stats
    // endpoint are exactly what an operator needs while the server sheds.
    const bool gated =
        req.op != Opcode::kPing && req.op != Opcode::kStats;
    const size_t inflight = inflight_.load(std::memory_order_relaxed);
    if (gated &&
        (inflight >= options_.max_inflight ||
         conn->queue.size() >= options_.max_queued_per_conn)) {
      obs_->registry.Count(obs_->c_shed);
      SendError(conn, req.op, req.id, WireStatus::kOverloaded,
                "shed by admission control");
      return;
    }
    inflight_.fetch_add(1, std::memory_order_relaxed);
    conn->queue.push_back(std::move(req));
  }

  /// Runs the connection's queue forward while no work item is in flight.
  /// A work item is a run of consecutive Access requests (up to
  /// kMaxCoalescedRun) or one request of any other opcode. An item that
  /// RunsInline() is answered here, while the pass's range budget lasts;
  /// any other becomes the connection's one work item on the pool.
  /// Whatever arrived while the previous item executed forms the next run,
  /// so pipelining clients batch without any wait. A loop over at most
  /// max_queued_per_conn requests.
  ///
  /// The budget: one pass answers at most kMaxInlineValues range values
  /// inline (~20 µs of decode). The next range goes to the pool, which sets
  /// busy and ends the pass. So when a client pipelines ranges, the IO
  /// thread returns to its other connections after each inline range
  /// instead of answering the whole burst first.
  void TryDispatch(const std::shared_ptr<Conn>& conn) {
    uint64_t budget = kMaxInlineValues;
    while (!conn->closed && !conn->busy && !conn->queue.empty()) {
      size_t run = 1;
      if (conn->queue.front().op == Opcode::kAccess) {
        while (run < conn->queue.size() &&
               conn->queue[run].op == Opcode::kAccess &&
               run < kMaxCoalescedRun) {
          ++run;
        }
      }
      const auto first = conn->queue.begin();
      const auto last = first + static_cast<ptrdiff_t>(run);
      std::vector<Request> items(std::make_move_iterator(first),
                                 std::make_move_iterator(last));
      conn->queue.erase(first, last);
      const uint64_t values =
          items[0].op == Opcode::kDecompressRange ? items[0].b : 0;
      if (RunsInline(items) && values <= budget) {
        budget -= values;
        Buffer out;
        Execute(conn->mode, items, &out);
        AnsweredInline(conn, run, std::move(out));
        continue;
      }
      conn->busy = true;
      workers_->Submit([this, conn, mode = conn->mode,
                        items = std::move(items)]() mutable {
        ExecuteItem(std::move(conn), mode, items);
      });
    }
  }

  /// Whether the IO thread answers a work item itself. The rule: an item
  /// runs inline when its store work costs less than the two thread
  /// hand-offs a pool round trip adds (a condvar wake to reach a worker,
  /// the wake pipe and an epoll return to come back; ~23 µs measured on
  /// range_scan). The decision reads only the opcode and the item's length,
  /// against fixed caps:
  ///   - ping and size: always (no store work);
  ///   - an Access run: up to kMaxInlineRun probes;
  ///   - range: up to kMaxInlineValues values, ~20 µs of decode;
  ///   - access_batch, ranges, range_sum (it fans out on the store's pool)
  ///     and stats: never. perfbench sends access_batch only at 256 probes
  ///     (inlining those doubled point_lookup's read_p50_us) and no ranges
  ///     requests, so neither has a measured inline cap.
  /// Length caps are checked before the bound checks, so a past-end or
  /// oversized range that fits them gets its typed error inline.
  static bool RunsInline(std::span<const Request> item) {
    const Request& req = item.front();
    switch (req.op) {
      case Opcode::kPing:
      case Opcode::kSize:
        return true;
      case Opcode::kAccess:
        return item.size() <= kMaxInlineRun;
      case Opcode::kDecompressRange:
        return req.b <= kMaxInlineValues;
      case Opcode::kAccessBatch:
      case Opcode::kDecompressRanges:
      case Opcode::kRangeSum:
      case Opcode::kStats:
        return false;
    }
    return false;
  }

  /// Books `n` requests the IO thread answered into `out`.
  void AnsweredInline(const std::shared_ptr<Conn>& conn, size_t n,
                      Buffer out) {
    inflight_.fetch_sub(n, std::memory_order_relaxed);
    obs_->registry.Count(obs_->c_exec_inline, n);
    conn->Queue(std::move(out));
  }

  /// IO-thread epilogue for a connection that owes nothing more.
  void MaybeFinish(const std::shared_ptr<Conn>& conn) {
    if (!conn->closed && conn->close_after_drain && ConnIdle(*conn)) {
      CloseConn(conn);
    }
  }

  /// Sends queued buffers in place: one sendmsg gathers up to kMaxIov of
  /// them, the first from its unsent offset, until the socket pushes back.
  void FlushOut(const std::shared_ptr<Conn>& conn) {
    while (!conn->out.empty()) {
      iovec iov[kMaxIov];
      size_t k = 0;
      for (const Buffer& buf : conn->out) {
        if (k == kMaxIov) break;
        const size_t skip = k == 0 ? conn->out_sent : 0;
        iov[k].iov_base = const_cast<uint8_t*>(buf.data() + skip);
        iov[k].iov_len = buf.size() - skip;
        ++k;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = k;
      const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        CloseConn(conn);
        return;
      }
      obs_->registry.Count(obs_->c_bytes_out, static_cast<uint64_t>(n));
      conn->Consume(static_cast<size_t>(n));
    }
  }

  void HandleCompletions(uint64_t now, bool draining) {
    std::vector<Completion> done;
    {
      std::lock_guard<std::mutex> lk(comp_mu_);
      done.swap(completed_);
    }
    for (auto& [conn, buf] : done) {
      if (conn->closed) continue;
      conn->busy = false;
      conn->Queue(std::move(buf));
      conn->last_activity = now;
      TryDispatch(conn);
      FlushOut(conn);
      if (conn->closed) continue;
      MaybeFinish(conn);
      if (!conn->closed) UpdateInterest(conn, draining);
    }
  }

  // --- Execution (IO thread for inline items, worker threads otherwise) ----

  /// Answers one work item into `out`, wherever it runs: an Access run
  /// through ExecuteAccessRun, any other request through ExecuteOne. Either
  /// way its service time lands in its "op.<name>" histogram.
  void Execute(Conn::Mode mode, std::span<const Request> items,
               Buffer* out) {
    if (items[0].op == Opcode::kAccess) {
      ExecuteAccessRun(items, out);
      return;
    }
    const uint64_t t0 = obs::NowNs();
    ExecuteOne(mode, items[0], out);
    obs_->registry.Record(obs_->h_op[static_cast<uint8_t>(items[0].op)],
                          obs::NowNs() - t0);
  }

  /// A pooled work item: Execute, then hand the buffer to the IO thread.
  void ExecuteItem(std::shared_ptr<Conn> conn, Conn::Mode mode,
                   std::span<const Request> items) {
    Buffer out;
    Execute(mode, items, &out);
    inflight_.fetch_sub(items.size(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(comp_mu_);
      completed_.push_back({std::move(conn), std::move(out)});
    }
    const char b = 'c';
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &b, 1);
  }

  /// A run of Access requests: every probe inside the snapshot's size rides
  /// one batch call on that snapshot, and each request still gets its own
  /// response in request order: its value, kOutOfRange past the size, or
  /// the store's error if the batch threw. The run's service time lands in
  /// the "op.access" histogram once; a run of more than one also counts as
  /// a coalesced batch.
  void ExecuteAccessRun(std::span<const Request> items, Buffer* out) {
    const uint64_t t0 = obs::NowNs();
    const auto snap = store_.snapshot();
    const uint64_t size = snap->size();
    std::vector<uint64_t> idx;
    idx.reserve(items.size());
    for (const Request& r : items) {
      if (r.a < size) idx.push_back(r.a);
    }
    std::vector<int64_t> values(idx.size());
    WireStatus failure = WireStatus::kOk;
    std::string failure_msg;
    try {
      snap->AccessBatch(idx, values);
    } catch (const Error& e) {
      failure = FailureStatus(e);
      failure_msg = e.what();
    } catch (const std::exception& e) {
      failure = WireStatus::kInternal;
      failure_msg = e.what();
    }
    size_t answered = 0;  // next unread entry of `values`
    for (const Request& r : items) {
      if (failure != WireStatus::kOk) {
        AppendError(Conn::Mode::kBinary, r.op, r.id, failure, failure_msg,
                    out);
      } else if (r.a >= size) {
        AppendError(Conn::Mode::kBinary, r.op, r.id, WireStatus::kOutOfRange,
                    "index past store size", out);
      } else {
        AppendValueResponse(r.id, values[answered++], out);
      }
    }
    if (items.size() > 1) {
      obs_->registry.Count(obs_->c_coalesced_batches);
      obs_->registry.Count(obs_->c_coalesced_probes, items.size());
      obs_->registry.Record(obs_->h_batch, items.size());
    }
    obs_->registry.Record(obs_->h_op[static_cast<uint8_t>(Opcode::kAccess)],
                          obs::NowNs() - t0);
  }

  /// The wire status of a store Error: a quarantined shard is kUnavailable,
  /// anything else kInternal.
  static WireStatus FailureStatus(const Error& e) {
    return e.code() == StatusCode::kUnavailable ? WireStatus::kUnavailable
                                                : WireStatus::kInternal;
  }

  /// Answers one request into `out`, which arrives empty: a value-carrying
  /// response is then the buffer's first frame, so its payload starts 24
  /// bytes into a fresh heap block and the store decodes into it directly.
  void ExecuteOne(Conn::Mode mode, const Request& req, Buffer* out) {
    try {
      switch (req.op) {
        case Opcode::kAccess:
          break;  // answered by ExecuteAccessRun
        case Opcode::kPing:
          AppendOk(req.op, req.id, {}, out);
          return;
        case Opcode::kSize: {
          std::vector<uint8_t> payload;
          PayloadWriter w(&payload);
          w.U64(store_.size());
          AppendOk(req.op, req.id, payload, out);
          return;
        }
        case Opcode::kStats: {
          const std::string stats = StatsJson();
          if (mode == Conn::Mode::kHttp) {
            AppendText(out,
                       "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
                       "Content-Length: " + std::to_string(stats.size()) +
                           "\r\nConnection: close\r\n\r\n");
            AppendText(out, stats);
          } else {
            AppendOk(req.op, req.id,
                     {reinterpret_cast<const uint8_t*>(stats.data()),
                      stats.size()},
                     out);
          }
          return;
        }
        case Opcode::kAccessBatch: {
          const auto snap = store_.snapshot();
          const uint64_t size = snap->size();
          if (!std::ranges::all_of(
                  req.idx, [size](uint64_t i) { return i < size; })) {
            AppendError(mode, req.op, req.id, WireStatus::kOutOfRange,
                        "probe past store size", out);
            return;
          }
          AppendValuesResponse(req.op, req.id, req.idx.size(), out,
                               [&](int64_t* values) {
                                 snap->AccessBatch(
                                     req.idx, {values, req.idx.size()});
                               });
          return;
        }
        case Opcode::kDecompressRange:
        case Opcode::kDecompressRanges:
        case Opcode::kRangeSum: {
          std::span<const IndexRange> ranges;
          IndexRange single{req.a, req.b};
          if (req.op == Opcode::kDecompressRanges) {
            ranges = req.ranges;
          } else {
            ranges = {&single, 1};
          }
          // The bounds and the answer come from one snapshot. The first
          // range that is past the end or overflows the response frame
          // decides the error, the bound first.
          const auto snap = store_.snapshot();
          const uint64_t size = snap->size();
          const uint64_t cap = req.op == Opcode::kRangeSum
                                   ? UINT64_MAX
                                   : options_.max_frame_bytes / 8;
          uint64_t total = 0;
          for (const IndexRange& r : ranges) {
            if (r.len > size || r.from > size - r.len) {
              AppendError(mode, req.op, req.id, WireStatus::kOutOfRange,
                          "range past store size", out);
              return;
            }
            if (r.len > cap - total) {
              AppendError(mode, req.op, req.id, WireStatus::kBadRequest,
                          "response would exceed max_frame_bytes", out);
              return;
            }
            total += r.len;
          }
          if (req.op == Opcode::kRangeSum) {
            AppendValueResponse(req.id, snap->RangeSum(req.a, req.b), out,
                                /*sum=*/true);
          } else {
            AppendValuesResponse(req.op, req.id, total, out,
                                 [&](int64_t* values) {
                                   snap->DecompressRanges(ranges, values);
                                 });
          }
          return;
        }
      }
      AppendError(mode, req.op, req.id, WireStatus::kBadRequest,
                  "unknown opcode", out);
    } catch (const Error& e) {
      AppendError(mode, req.op, req.id, FailureStatus(e), e.what(), out);
    } catch (const std::exception& e) {
      AppendError(mode, req.op, req.id, WireStatus::kInternal, e.what(),
                  out);
    }
  }

  // --- Response formatting (worker or IO thread; writes to a local) --------

  /// Success envelope: a kOk frame carrying `payload`.
  void AppendOk(Opcode op, uint64_t id, std::span<const uint8_t> payload,
                Buffer* out) {
    AppendFrame(out, op, static_cast<uint16_t>(WireStatus::kOk), id,
                payload);
  }

  void AppendValueResponse(uint64_t id, int64_t value, Buffer* out,
                           bool sum = false) {
    uint8_t payload[8];
    wire_internal::PutU64(payload, static_cast<uint64_t>(value));
    AppendOk(sum ? Opcode::kRangeSum : Opcode::kAccess, id, payload, out);
  }

  /// A kOk frame of `n` int64 values that `fill` writes straight into the
  /// frame's payload (the wire's little-endian int64 is the host layout).
  /// If `fill` throws, `out` is left as it was.
  template <class Fill>
  void AppendValuesResponse(Opcode op, uint64_t id, size_t n, Buffer* out,
                            const Fill& fill) {
    const size_t at = out->size();
    out->resize(at + kFrameHeaderBytes + n * 8);
    uint8_t* frame = out->data() + at;
    uint8_t* payload = frame + kFrameHeaderBytes;
    NEATS_DCHECK(reinterpret_cast<uintptr_t>(payload) % alignof(int64_t) ==
                 0);
    try {
      fill(reinterpret_cast<int64_t*>(payload));
    } catch (...) {
      out->resize(at);
      throw;
    }
    FinishFrame(frame, op, static_cast<uint16_t>(WireStatus::kOk), id,
                n * 8);
  }

  static void AppendText(Buffer* out, std::string_view text) {
    out->insert(out->end(), text.begin(), text.end());
  }

  static Buffer Text(std::string_view text) {
    return Buffer(text.begin(), text.end());
  }

  /// Error envelope. Binary: a frame with status `s` carrying `message`.
  /// HTTP: a bare 503 (the one HTTP route, /stats, failed).
  void AppendError(Conn::Mode mode, Opcode op, uint64_t id, WireStatus s,
                   const std::string& message, Buffer* out) {
    obs_->registry.Count(obs_->c_errors);
    if (mode == Conn::Mode::kHttp) {
      AppendText(out,
                 "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\n"
                 "Connection: close\r\n\r\n");
      return;
    }
    AppendFrame(out, op, static_cast<uint16_t>(s), id,
                {reinterpret_cast<const uint8_t*>(message.data()),
                 message.size()});
  }

  /// IO-thread-side immediate error (sheds, parse failures): same
  /// formatting, queued on the connection as its own buffer.
  void SendError(const std::shared_ptr<Conn>& conn, Opcode op, uint64_t id,
                 WireStatus s, const std::string& message) {
    Buffer out;
    AppendError(conn->mode, op, id, s, message, &out);
    conn->Queue(std::move(out));
  }

  /// Largest coalesced Access run fed to one store AccessBatch call.
  static constexpr size_t kMaxCoalescedRun = 512;

  /// Longest Access run the IO thread answers itself: ~8 µs of batch
  /// decode at the store's per-probe cost. Not more: inlining 256-probe
  /// access_batch requests doubled point_lookup's read_p50_us (22–24 →
  /// 46–55 µs): its scalar reads queued behind each batch.
  static constexpr size_t kMaxInlineRun = 64;

  /// Longest range the IO thread answers itself, and the range values one
  /// TryDispatch pass may answer inline: 4096 × the store's 3.4–4.4 ns
  /// cursor decode per value, ≈ 17–20 µs, under the ~23 µs a pool round
  /// trip adds. Inlining range_scan's 4096-value ranges cut its
  /// read_p50_us by ~30%.
  static constexpr uint64_t kMaxInlineValues = 4096;

  /// Most queued buffers one sendmsg gathers.
  static constexpr size_t kMaxIov = 64;

  const NeatsStore& store_;
  NeatsServerOptions options_;
  std::unique_ptr<ServerObs> obs_;
  std::unique_ptr<ThreadPool> workers_;

  int listen_fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  uint16_t port_ = 0;
  std::thread io_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> inflight_{0};
  std::atomic<size_t> open_conns_{0};

  // IO-thread state.
  Poller* poller_ = nullptr;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  // Worker -> IO completions: each finished work item's connection and
  // its response buffer.
  using Completion = std::pair<std::shared_ptr<Conn>, Buffer>;
  std::mutex comp_mu_;
  std::vector<Completion> completed_;
};

}  // namespace neats::net
