// Serializers for a MetricsSnapshot: a JSON object (what the server's
// stats endpoint returns and what `neats_cli stats` prints) and a
// human-readable text table. Histograms are emitted under "ops", one
// object per op (count / p50_ns / p99_ns / p999_ns / max_ns).

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace neats::obs {

namespace stats_internal {

/// Metric names are ASCII identifiers by construction; escape the few JSON
/// metacharacters anyway so a hostile name can't break the document.
inline void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace stats_internal

/// The snapshot as one JSON object:
///   {"counters": {...}, "gauges": {...}, "ops": {"access": {...}, ...}}
/// The result carries no trailing newline.
inline std::string MetricsJson(const MetricsSnapshot& s) {
  using stats_internal::AppendJsonString;
  std::string out;
  const std::string pad = "  ";
  out += "{\n" + pad + "\"counters\": {";
  for (size_t i = 0; i < s.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad + "  ";
    AppendJsonString(&out, s.counters[i].first);
    out += ": " + std::to_string(s.counters[i].second);
  }
  out += "},\n" + pad + "\"gauges\": {";
  for (size_t i = 0; i < s.gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += pad + "  ";
    AppendJsonString(&out, s.gauges[i].first);
    out += ": " + std::to_string(s.gauges[i].second);
  }
  out += "},\n" + pad + "\"ops\": {";
  for (size_t i = 0; i < s.histograms.size(); ++i) {
    const LatencyHistogram& h = s.histograms[i].second;
    out += i == 0 ? "\n" : ",\n";
    out += pad + "  ";
    AppendJsonString(&out, s.histograms[i].first);
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.1f", h.mean());
    out += ": {\"count\": " + std::to_string(h.count()) +
           ", \"p50_ns\": " + std::to_string(h.p50()) +
           ", \"p99_ns\": " + std::to_string(h.p99()) +
           ", \"p999_ns\": " + std::to_string(h.p999()) +
           ", \"max_ns\": " + std::to_string(h.max()) +
           ", \"mean_ns\": " + mean + "}";
  }
  out += "}\n}";
  return out;
}

/// The snapshot as aligned human-readable lines (the CLI's default view).
/// Zero-valued counters are elided — a fresh store would otherwise print a
/// page of zeros.
inline std::string MetricsText(const MetricsSnapshot& s) {
  std::string out;
  out += "gauges:\n";
  for (const auto& [name, v] : s.gauges) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-24s %lld\n", name.c_str(),
                  static_cast<long long>(v));
    out += line;
  }
  out += "counters (nonzero):\n";
  bool any = false;
  for (const auto& [name, v] : s.counters) {
    if (v == 0) continue;
    any = true;
    char line[128];
    std::snprintf(line, sizeof(line), "  %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += line;
  }
  if (!any) out += "  (none)\n";
  out += "op latencies (sampled):\n";
  for (const auto& [name, h] : s.histograms) {
    if (h.count() == 0) continue;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-16s count=%-8llu p50=%lluns p99=%lluns max=%lluns\n",
                  name.c_str(),
                  static_cast<unsigned long long>(h.count()),
                  static_cast<unsigned long long>(h.p50()),
                  static_cast<unsigned long long>(h.p99()),
                  static_cast<unsigned long long>(h.max()));
    out += line;
  }
  return out;
}

}  // namespace neats::obs
