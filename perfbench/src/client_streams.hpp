// Closed-loop client streams: one connection, `depth` requests in flight
// per round (a round is sent in one write so the server's coalescer sees
// the whole run), every response verified against the generated ground
// truth before the next round is sent.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/client.hpp"

namespace perfbench {

/// Requests per stream covered by its determinism fingerprint.
inline constexpr uint64_t kFingerprintOps = 256;

/// One request of a stream: its frame and how to check the answer.
struct Op {
  neats::net::Opcode op = neats::net::Opcode::kPing;
  std::vector<uint8_t> payload;
  uint64_t values = 0;  // values the answer carries or covers
  /// True when the response payload is the right answer.
  std::function<bool(const std::vector<uint8_t>&)> check;
};

/// Counters and latencies of one stream. Latencies (ns, one histogram per
/// sub-window of the measured window) and `values` only count requests
/// sent inside the measured window; attempted/failed count every request,
/// warm-up included. Its memory does not grow with the run's length.
struct StreamStats {
  std::vector<LatencyHistogram> windows;
  uint64_t values = 0;
  uint64_t requests = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // error status (shed included) or wrong answer
  uint64_t wrong = 0;
  uint64_t hash = 0;  // fingerprint of the first requests' frames
  std::string error;  // first failure, for the report

  /// Every sub-window's latencies in one histogram.
  LatencyHistogram All() const {
    LatencyHistogram all;
    for (const LatencyHistogram& h : windows) all.Merge(h);
    return all;
  }

  /// Adds `o`'s counters, and its latencies sub-window by sub-window.
  void Merge(const StreamStats& o) {
    windows.resize(std::max(windows.size(), o.windows.size()));
    for (size_t k = 0; k < o.windows.size(); ++k) {
      windows[k].Merge(o.windows[k]);
    }
    values += o.values;
    requests += o.requests;
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    if (error.empty()) error = o.error;
  }
};

/// The time window a stream measures in: requests sent before `start` are
/// warm-up, the stream stops sending at `end` (or when `stop` is set).
/// [start, end) is cut into `parts` equal sub-windows.
struct Window {
  uint64_t start = 0;
  uint64_t end = 0;
  const std::atomic<bool>* stop = nullptr;
  int parts = 1;
};

inline std::vector<uint8_t> U64Payload(std::initializer_list<uint64_t> words) {
  std::vector<uint8_t> payload;
  neats::net::PayloadWriter w(&payload);
  for (uint64_t v : words) w.U64(v);
  return payload;
}

/// Runs `next` ops in rounds of `depth` until the window closes. Each
/// request becomes a span named `span_name` under `conn_span` when the
/// tracer is on. Connection-level failures end the stream and count as
/// one failed request.
inline StreamStats RunStream(uint16_t port, const Window& w, int depth,
                             const std::function<Op()>& next,
                             const char* span_name, Tracer& tracer,
                             int32_t conn_span) {
  using neats::net::Client;
  StreamStats st;
  st.windows.resize(static_cast<size_t>(w.parts));
  const uint64_t part_ns = (w.end - w.start) / static_cast<uint64_t>(w.parts);
  Hash fingerprint;
  uint64_t next_id = 1;
  try {
    Client client = Client::Connect("127.0.0.1", port);
    std::vector<Op> ops(static_cast<size_t>(depth));
    std::vector<uint8_t> frames;
    while (true) {
      const uint64_t now = NowNs();
      if (now >= w.end ||
          (w.stop != nullptr && w.stop->load(std::memory_order_acquire))) {
        break;
      }
      const bool measured = now >= w.start;
      frames.clear();
      const uint64_t first_id = next_id;
      for (Op& op : ops) {
        op = next();
        if (st.attempted < kFingerprintOps) {
          fingerprint.Add(static_cast<uint64_t>(op.op));
          for (uint8_t b : op.payload) fingerprint.Add(b);
        }
        neats::net::AppendFrame(&frames, op.op, 0, next_id++, op.payload);
      }
      const uint64_t t_send = NowNs();
      neats::net::SendAll(client.fd(), frames);
      for (size_t j = 0; j < ops.size(); ++j) {
        const Client::Response r = client.ReadResponse();
        const uint64_t t_recv = NowNs();
        ++st.attempted;
        bool ok = r.id == first_id + j;
        if (ok && r.status != neats::net::WireStatus::kOk) {
          ok = false;
          if (st.error.empty()) {
            st.error = std::string("status ") +
                       neats::net::WireStatusName(r.status);
          }
        } else if (ok && !ops[j].check(r.payload)) {
          ok = false;
          ++st.wrong;
          if (st.error.empty()) {
            st.error = std::string("wrong answer to ") +
                       neats::net::OpcodeName(ops[j].op);
          }
        }
        if (!ok) ++st.failed;
        if (measured) {
          const size_t k = std::min<uint64_t>((t_send - w.start) / part_ns,
                                              st.windows.size() - 1);
          st.windows[k].Record(t_recv - t_send);
          st.values += ops[j].values;
          ++st.requests;
        }
        tracer.Record(span_name, conn_span, first_id + j, t_send, t_recv);
      }
    }
  } catch (const std::exception& e) {
    ++st.attempted;
    ++st.failed;
    if (st.error.empty()) st.error = e.what();
  }
  st.hash = fingerprint.value();
  return st;
}

/// Checks a single-value answer.
inline bool ValueIs(const std::vector<uint8_t>& payload, int64_t expect) {
  neats::net::PayloadReader r(payload);
  const int64_t v = r.I64();
  return r.ok() && r.AtEnd() && v == expect;
}

/// Checks a values answer against `expect[0..n)`.
inline bool ValuesAre(const std::vector<uint8_t>& payload,
                      const int64_t* expect, size_t n) {
  if (payload.size() != n * 8) return false;
  for (size_t i = 0; i < n; ++i) {
    int64_t v;
    std::memcpy(&v, payload.data() + i * 8, 8);
    if (v != expect[i]) return false;
  }
  return true;
}

}  // namespace perfbench
