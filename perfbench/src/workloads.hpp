// The benchmark's workloads. Each runs against this library in-process:
// a NeatsStore behind a net::NeatsServer on an ephemeral loopback port
// (two worker threads), loaded by at most three client threads so clients,
// the server's IO thread and its workers fit a 4-core machine.

#pragma once

#include <cstdint>
#include <string>

#include "bench_util.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // store directories live (and die) here
  std::string trace_out;  // traced runs write their spans here
};

/// Sealed ~1Mi-value ECG store: scalar access (8 in flight) + 256-probe
/// access_batch.
RunResult RunPointLookup(const Config& cfg);

/// Same store shape: 4096-value range reads + 256Ki-value range sums.
RunResult RunRangeScan(const Config& cfg);

/// Dir-backed kAuto store under a closed-loop appender (WAL fsync per
/// Append) with a trailing scalar reader.
RunResult RunIngestMixed(const Config& cfg);

}  // namespace perfbench
