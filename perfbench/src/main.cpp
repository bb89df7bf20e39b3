// neats_perfbench — the repository benchmark (perfbench/README.md).
//
//   neats_perfbench --workload point_lookup|range_scan|ingest_mixed
//                   --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--trace-out FILE]
//
// Prints a human-readable report (environment, per-workload metric names,
// determinism fingerprints), then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// any answer was wrong or any request failed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench_util.hpp"
#include "workloads.hpp"

#ifndef NEATS_PERFBENCH_BUILD_TYPE
#define NEATS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Config;
using perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: neats_perfbench --workload "
               "point_lookup|range_scan|ingest_mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE]\n");
  return 2;
}

std::string Units(const std::string& name) {
  if (name == "setup_s") return "s";
  if (name == "peak_rss_mib") return "MiB";
  if (name == "bits_per_value") return "bits/value";
  if (name.ends_with("_us")) return "us";
  if (name.ends_with("_mvalues_s")) return "Mvalues/s";
  return "";
}

std::string LayerUnits(const std::string& name) {
  if (name.ends_with("_ns_per_probe")) return "ns/probe";
  if (name.ends_with("_ns_per_value")) return "ns/value";
  if (name.ends_with("_ns")) return "ns";
  if (name.ends_with("_us") || name.ends_with("_us_p50") ||
      name.starts_with("net.server_op_p50_us.")) {
    return "us";
  }
  if (name.ends_with("_ms") || name.starts_with("codecs.compress_ms") ||
      name.ends_with("_ms_per_shard")) {
    return "ms";
  }
  if (name.ends_with("ratio") || name.ends_with("hit_rate") ||
      name.ends_with("_per_append") || name.ends_with("_per_batch")) {
    return "ratio";
  }
  return "count";
}

void PrintResult(const RunResult& r, bool trace) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  const auto& names =
      trace ? perfbench::LayerNames() : perfbench::EndToEndNames();
  const auto& values = trace ? r.layer : r.e2e;
  bool first = true;
  for (const std::string& name : names) {
    const auto it = values.find(name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v,
                  (trace ? LayerUnits(name) : Units(name)).c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else if (arg == "--work-dir") {
      cfg.work_dir = v;
    } else if (arg == "--trace-out") {
      cfg.trace_out = v;
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || cfg.work_dir.empty() || cfg.seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  cfg.trace = trace == 1;

  RunResult result;
  try {
    if (cfg.workload == "point_lookup") {
      result = perfbench::RunPointLookup(cfg);
    } else if (cfg.workload == "range_scan") {
      result = perfbench::RunRangeScan(cfg);
    } else if (cfg.workload == "ingest_mixed") {
      result = perfbench::RunIngestMixed(cfg);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neats_perfbench: %s\n", e.what());
    return 1;
  }

  std::printf(
      "env: nproc=%ld cpu=\"%s\" l2=%s l3=%s build=%s store_fs=%s "
      "wal=on fsync=per-append workload=%s seed=%llu seconds=%g trace=%d\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), perfbench::CpuModel().c_str(),
      perfbench::CacheSize(2).c_str(), perfbench::CacheSize(3).c_str(),
      NEATS_PERFBENCH_BUILD_TYPE,
      perfbench::FilesystemOf(cfg.work_dir).c_str(), cfg.workload.c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.seconds, trace);
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("failed_ratio=%.6g (%llu failed of %llu attempted, %llu wrong)\n",
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.wrong));
  if (cfg.trace) {
    for (const std::string& name : perfbench::LayerNames()) {
      const auto it = result.layer.find(name);
      std::printf("layer %-40s %.6g\n", name.c_str(),
                  it == result.layer.end() ? 0.0 : it->second);
    }
    if (!cfg.trace_out.empty()) {
      perfbench::WriteSpans(result.spans, cfg.trace_out);
    }
  }
  PrintResult(result, cfg.trace);
  return result.failed == 0 ? 0 : 1;
}
