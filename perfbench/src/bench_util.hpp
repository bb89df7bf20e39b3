// Shared machinery of the repository benchmark: clocks, latency summaries,
// the seeded probe-stream generator, the in-memory span recorder with
// self-time accounting, the environment record, and the metric sheet that
// every run fills in (perfbench/README.md lists each name and what it
// should move).

#pragma once

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/latency_histogram.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

using neats::obs::NowNs;

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The scenario engine's seeded SplitMix64 streams: one generator per
/// client stream, seeded from (run seed, stream tag), so a stream replays
/// identically in the workload and in the traced ladder.
using neats::scenario::Rng;

/// FNV-1a over 64-bit words: fingerprints of data and probe streams.
class Hash {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void Add(std::span<const int64_t> values) {
    for (int64_t v : values) Add(static_cast<uint64_t>(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) +
                       static_cast<double>(v[n / 2])) / 2;
}

using neats::obs::LatencyHistogram;

/// "p50=81.2us p99=140.3us tail=p99.9:171.0us n=123456": median, p99 and
/// the highest percentile that still has at least ten samples beyond it,
/// together with the sample count (histogram in nanoseconds).
inline std::string LatencyText(const LatencyHistogram& h) {
  double tail_q = 0.5;
  for (double q : {0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(h.count()) * (1 - q) >= 10) tail_q = q;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "p50=%.1fus p99=%.1fus tail=p%g:%.1fus n=%llu",
                static_cast<double>(h.p50()) / 1e3,
                static_cast<double>(h.p99()) / 1e3, tail_q * 100,
                static_cast<double>(h.Percentile(tail_q)) / 1e3,
                static_cast<unsigned long long>(h.count()));
  return buf;
}

/// Aggregates one statistic over sub-windows of a run: the mean of its
/// best quartile band (ranks 1/8 to 3/8 from the best end: the lowest
/// latencies, the highest rates). On a shared machine outside load only
/// ever slows a sub-window, so the best quartile tracks the program rather
/// than its neighbours, while a real regression moves every sub-window.
/// Averaging the band keeps the histogram's bucket steps out of the result.
inline double BestQuartile(std::vector<double> v, bool lower_is_better) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (!lower_is_better) std::reverse(v.begin(), v.end());
  const size_t lo = v.size() / 8;
  const size_t hi = std::max(lo + 1, (3 * v.size() + 7) / 8);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}
inline double BestQuartileLatency(std::vector<double> v) {
  return BestQuartile(std::move(v), true);
}
inline double BestQuartileRate(std::vector<double> v) {
  return BestQuartile(std::move(v), false);
}

/// The end-to-end statistics of one stream: one latency histogram per
/// equal sub-window of the measured window; p50, p90 and the value rate
/// are computed per sub-window and aggregated with the best-quartile rule.
struct Windowed {
  double p50_ns = 0, p90_ns = 0, values_per_s = 0;

  static Windowed Of(const std::vector<LatencyHistogram>& parts,
                     double part_seconds, double values_per_request) {
    std::vector<double> p50, p90, rate;
    for (const LatencyHistogram& h : parts) {
      if (h.count() == 0) continue;
      p50.push_back(static_cast<double>(h.p50()));
      p90.push_back(static_cast<double>(h.Percentile(0.90)));
      rate.push_back(static_cast<double>(h.count()) * values_per_request /
                     part_seconds);
    }
    return {BestQuartileLatency(p50), BestQuartileLatency(p90),
            BestQuartileRate(rate)};
  }
};

// --- Tracing ----------------------------------------------------------------

/// One span: a timed interval at a layer boundary in the benchmark's own
/// code. `parent` indexes the recorder's span vector (-1 = root); `id` is
/// the client request id or ladder step the span belongs to.
struct Span {
  const char* name;
  int32_t parent;
  uint64_t id;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// Per-thread in-memory span recorder. Disabled recorders cost one branch
/// per call site, so the untraced run never records anything.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  int32_t Begin(const char* name, int32_t parent, uint64_t id) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, id, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// A span whose interval was measured by the caller.
  int32_t Record(const char* name, int32_t parent, uint64_t id,
                 uint64_t start_ns, uint64_t end_ns) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, id, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }

  /// Appends spans recorded elsewhere (another thread's, after it
  /// joined); their root spans are re-parented under `parent` (-1 keeps
  /// them roots).
  void Absorb(const std::vector<Span>& other, int32_t parent) {
    const int32_t base = static_cast<int32_t>(spans_.size());
    for (Span s : other) {
      s.parent = s.parent < 0 ? parent : s.parent + base;
      spans_.push_back(s);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Inclusive and self time per span name. A span's self time is its
/// duration minus the part of its interval its children cover (children
/// may overlap, e.g. pipelined requests, so covered time is the union).
struct SpanTotals {
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  std::vector<uint64_t> durations;
};

inline std::map<std::string, SpanTotals> SelfTimes(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, at = s.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, at);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        at = b;
      }
    }
    SpanTotals& t = out[s.name];
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, covered);
    t.durations.push_back(dur);
  }
  return out;
}

/// Writes spans as CSV (name,id,parent,start_ns,end_ns) at the end of a
/// traced run.
inline void WriteSpans(const std::vector<Span>& spans,
                       const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  f << "name,id,parent,start_ns,end_ns\n";
  for (const Span& s : spans) {
    f << s.name << ',' << s.id << ',' << s.parent << ',' << s.start_ns << ','
      << s.end_ns << '\n';
  }
}

// --- Environment --------------------------------------------------------------

inline std::string ReadFirstLine(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

inline std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of the cache at `level` as sysfs reports it for cpu0 ("2048K").
inline std::string CacheSize(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (ReadFirstLine(base + "/level") == std::to_string(level) &&
        ReadFirstLine(base + "/type") != "Instruction") {
      return ReadFirstLine(base + "/size");
    }
  }
  return "unknown";
}

inline std::string FilesystemOf(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "fs-0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

inline double PeakRssMib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Results ------------------------------------------------------------------

/// What one run reports. `e2e` uses the role names of BENCHMARK.json (the
/// same eight on every workload); `layer` the per-layer sheet; `report`
/// the human-readable lines printed before the JSON result, which carry
/// the per-workload metric names, the environment and the determinism
/// fingerprints.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors + sheds + wrong answers
  uint64_t wrong = 0;   // wrong answers alone
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> report;
  std::vector<Span> spans;

  void Line(const std::string& s) { report.push_back(s); }
};

/// Every end-to-end metric, in BENCHMARK.json order.
inline const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = {
      "setup_s",        "peak_rss_mib",  "bits_per_value",
      "read_p50_us",    "read_p90_us",   "read_mvalues_s",
      "bulk_mvalues_s", "bulk_p90_us"};
  return names;
}

inline const char* const kCodecNames[] = {
    "neats", "neats-lossy-exact", "leco", "alp", "gorilla", "chimp"};

/// Every per-layer metric, in BENCHMARK.json order. A workload that does
/// not exercise a layer's operation reports 0 for it (README.md).
inline const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "succinct.ef_predecessor_ns",
        "succinct.ef_scanner_ns_per_probe",
        "core.access_ns",
        "core.access_batch_ns_per_probe",
        "core.range_ns_per_value",
        "core.range_sum_ns_per_value",
        "core.partition_ms_per_shard",
        "core.compress_ms_per_shard",
        "core.fragments_per_shard"};
    for (const char* c : kCodecNames) {
      n.push_back(std::string("codecs.compress_ms_per_shard.") + c);
    }
    for (const char* c : kCodecNames) {
      n.push_back(std::string("codecs.shards.") + c);
    }
    for (const char* m :
         {"store.access_ns", "store.access_batch_ns_per_probe",
          "store.range_ns_per_value", "store.range_sum_ns_per_value",
          "store.append_us_p50", "store.flush_ms", "store.pending_seals_max",
          "store.seal.count", "store.cache.hit_rate", "store.cache.evictions",
          "io.fsync_us", "io.wal_fsyncs_per_append",
          "obs.access_overhead_ratio", "net.frame_roundtrip_ns",
          "net.ping_p50_us", "net.server_op_p50_us.access",
          "net.server_op_p50_us.access_batch", "net.server_op_p50_us.range",
          "net.server_op_p50_us.range_sum", "net.coalesce.probes_per_batch",
          "net.req.shed", "self.core.access_ns", "self.store.access_ns",
          "self.obs.access_ns", "self.net.access_us",
          "self.core.access_batch_ns_per_probe",
          "self.store.access_batch_ns_per_probe",
          "self.store.range_ns_per_value",
          "self.store.range_sum_ns_per_value", "self.net.wire_queue_us",
          "self.client.busy_ratio", "trace.overhead_ratio",
          "trace.spans"}) {
      n.push_back(m);
    }
    return n;
  }();
  return names;
}

}  // namespace perfbench
