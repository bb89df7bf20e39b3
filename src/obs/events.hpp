// Event identifiers shared by the whole observability layer: the flight
// recorder stamps each trace event with one, the structured log hook
// (obs::LogSink) reports warnings under one, and the store's RepairReport
// carries the same ids — so a quarantine seen in a log line, a trace dump,
// and recovery_report() is one identity, not three spellings.

#pragma once

#include <cstdint>

namespace neats::obs {

/// What happened. The first block is query/ingest op kinds (the flight
/// recorder's bread and butter); the second is lifecycle/recovery events
/// that also flow through the log sink.
enum class EventId : uint8_t {
  // Op kinds.
  kAccess = 0,
  kAccessBatch,
  kRange,        // DecompressRange / DecompressRanges
  kRangeSum,
  kAppend,
  kFlush,
  kSeal,
  kScrub,
  // Lifecycle / recovery.
  kWalReplay,        // records replayed at OpenDir
  kWalTorn,          // torn final WAL record discarded
  kWalGap,           // unanchored WAL records discarded
  kQuarantine,       // a shard stopped serving
  kQuarantineLift,   // Scrub returned a shard to service
  kScrubRepair,      // one shard re-sealed from the WAL
  kOpenWarning,      // any other non-fatal OpenDir note
  kTraceDump,        // a flight-recorder dump emitted to the log sink
};

inline const char* EventName(EventId id) {
  switch (id) {
    case EventId::kAccess: return "access";
    case EventId::kAccessBatch: return "access_batch";
    case EventId::kRange: return "range";
    case EventId::kRangeSum: return "range_sum";
    case EventId::kAppend: return "append";
    case EventId::kFlush: return "flush";
    case EventId::kSeal: return "seal";
    case EventId::kScrub: return "scrub";
    case EventId::kWalReplay: return "wal_replay";
    case EventId::kWalTorn: return "wal_torn";
    case EventId::kWalGap: return "wal_gap";
    case EventId::kQuarantine: return "quarantine";
    case EventId::kQuarantineLift: return "quarantine_lift";
    case EventId::kScrubRepair: return "scrub_repair";
    case EventId::kOpenWarning: return "open_warning";
    case EventId::kTraceDump: return "trace_dump";
  }
  return "unknown";
}

enum class Severity : uint8_t { kInfo = 0, kWarn, kError };

inline const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kInfo: return "I";
    case Severity::kWarn: return "W";
    case Severity::kError: return "E";
  }
  return "?";
}

/// "No shard" sentinel for events not tied to one shard.
inline constexpr uint64_t kNoShard = ~uint64_t{0};

}  // namespace neats::obs
