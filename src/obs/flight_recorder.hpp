// The per-query flight recorder: a fixed-size lock-free ring of recent
// trace events (op kind, shard, codec, tier hit, duration, status), so a
// kUnavailable burst or a quarantined scenario comes with its last-N-
// operations context instead of a bare error string.
//
// Concurrency model: writers claim a slot with one relaxed fetch_add on
// the global ticket counter, then publish through a per-slot seqlock (odd
// version = write in progress). Every slot field is a relaxed atomic word,
// so concurrent readers and lapping writers are race-free under TSan; a
// reader that observes a version change mid-copy discards that slot, and a
// writer that would lap a still-writing slot drops its event rather than
// blocking (the ring is diagnostics, not an audit log — under pathological
// lapping pressure losing one event beats stalling a query). Dump() is
// wait-free for writers and returns events oldest-first.
//
// The store records into the ring only on sampled ops, cold-path ops
// (append/flush/seal/scrub), and every error — so the hot access path pays
// the fetch_add only when it is being timed anyway.

#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/events.hpp"

namespace neats::obs {

/// Which serving tier answered an access-class op.
enum class TraceTier : uint8_t {
  kNone = 0,   // not applicable (append, flush, errors before routing)
  kSealed,     // a sealed shard's native codec path
  kPending,    // raw values of a chunk still sealing
  kTail,       // raw hot tail
};

inline const char* TraceTierName(TraceTier t) {
  switch (t) {
    case TraceTier::kNone: return "-";
    case TraceTier::kSealed: return "sealed";
    case TraceTier::kPending: return "pending";
    case TraceTier::kTail: return "tail";
  }
  return "?";
}

/// One decoded trace event (the ring stores it packed).
struct TraceEvent {
  uint64_t seq = 0;       // global op ticket; orders events across threads
  EventId op = EventId::kAccess;
  TraceTier tier = TraceTier::kNone;
  uint16_t status = 0;    // 0 = ok; else the neats::StatusCode numeric
  uint32_t codec = kNoCodec;  // CodecId numeric, kNoCodec when unrouted
  uint64_t shard = kNoShard;  // shard ordinal, kNoShard when unrouted
  uint64_t arg = 0;       // op argument: index / range start / value count
  uint32_t len = 0;       // probe or value count (saturated)
  uint32_t duration_ns = 0;  // 0 when untimed (error events), saturated

  static constexpr uint32_t kNoCodec = 0xffffffffu;
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit FlightRecorder(size_t capacity)
      : slots_(std::bit_ceil(std::max<size_t>(capacity, 2))) {}

  size_t capacity() const { return slots_.size(); }

  /// Total events ever recorded (including any dropped by lapping).
  uint64_t recorded() const { return next_.load(std::memory_order_relaxed); }

  void Record(EventId op, TraceTier tier, uint16_t status, uint32_t codec,
              uint64_t shard, uint64_t arg, uint64_t len, uint64_t dur_ns) {
    const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & (slots_.size() - 1)];
    uint64_t v = s.ver.load(std::memory_order_relaxed);
    if ((v & 1) != 0) return;  // lapped a mid-write slot: drop, don't block
    if (!s.ver.compare_exchange_strong(v, v + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;
    }
    s.seq.store(ticket, std::memory_order_relaxed);
    s.meta.store(Pack(op, tier, status, codec), std::memory_order_relaxed);
    s.shard.store(shard, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.lendur.store(Saturate32(len) | (uint64_t{Saturate32(dur_ns)} << 32),
                   std::memory_order_relaxed);
    s.ver.store(v + 2, std::memory_order_release);
  }

  /// A consistent copy of the ring's surviving events, oldest-first. Safe
  /// concurrently with writers; slots caught mid-write are skipped.
  std::vector<TraceEvent> Dump() const {
    std::vector<TraceEvent> out;
    out.reserve(slots_.size());
    for (const Slot& s : slots_) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        const uint64_t v1 = s.ver.load(std::memory_order_acquire);
        if (v1 == 0) break;        // never written
        if ((v1 & 1) != 0) continue;  // mid-write; retry
        TraceEvent e;
        e.seq = s.seq.load(std::memory_order_relaxed);
        const uint64_t meta = s.meta.load(std::memory_order_relaxed);
        e.shard = s.shard.load(std::memory_order_relaxed);
        e.arg = s.arg.load(std::memory_order_relaxed);
        const uint64_t lendur = s.lendur.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.ver.load(std::memory_order_relaxed) != v1) continue;
        e.op = static_cast<EventId>(meta & 0xff);
        e.tier = static_cast<TraceTier>((meta >> 8) & 0xff);
        e.status = static_cast<uint16_t>((meta >> 16) & 0xffff);
        e.codec = static_cast<uint32_t>(meta >> 32);
        e.len = static_cast<uint32_t>(lendur & 0xffffffffu);
        e.duration_ns = static_cast<uint32_t>(lendur >> 32);
        out.push_back(e);
        break;
      }
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.seq < b.seq;
              });
    return out;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> ver{0};  // seqlock: odd = write in progress
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> meta{0};
    std::atomic<uint64_t> shard{0};
    std::atomic<uint64_t> arg{0};
    std::atomic<uint64_t> lendur{0};
  };

  static uint64_t Pack(EventId op, TraceTier tier, uint16_t status,
                       uint32_t codec) {
    return static_cast<uint64_t>(op) |
           (static_cast<uint64_t>(tier) << 8) |
           (static_cast<uint64_t>(status) << 16) |
           (static_cast<uint64_t>(codec) << 32);
  }

  static uint32_t Saturate32(uint64_t v) {
    return v > 0xffffffffu ? 0xffffffffu : static_cast<uint32_t>(v);
  }

  std::atomic<uint64_t> next_{0};
  std::vector<Slot> slots_;
};

/// The last `limit` events as human-readable lines (the payload of a
/// dump-on-quarantine log event, and `neats_cli stats` output).
inline std::string TraceText(const std::vector<TraceEvent>& events,
                             size_t limit = 16) {
  std::string out;
  const size_t begin = events.size() > limit ? events.size() - limit : 0;
  for (size_t i = begin; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += "  #" + std::to_string(e.seq) + " " + EventName(e.op) +
           " tier=" + TraceTierName(e.tier);
    if (e.shard != kNoShard) out += " shard=" + std::to_string(e.shard);
    out += " arg=" + std::to_string(e.arg) +
           " len=" + std::to_string(e.len) +
           " dur_ns=" + std::to_string(e.duration_ns) +
           " status=" + std::to_string(e.status) + "\n";
  }
  if (out.empty()) out = "  (no trace events recorded)\n";
  return out;
}

}  // namespace neats::obs
