// neats_scenarios — the scenario-engine runner (ROADMAP item 5b).
//
// Runs named, seeded, self-verifying production-workload scenarios from
// the ScenarioRegistry against a real NeatsStore and reports per-op
// latency percentiles. Every failure prints a one-line repro
// ("scenario=X seed=Y ...") and exits non-zero.
//
//   ./neats_scenarios                        # all scenarios, smoke scale
//   ./neats_scenarios --list                 # registered scenario names
//   ./neats_scenarios --scenario dashboard_fanout --seed 7 --scale 4
//   ./neats_scenarios --scale 8 --out scenario_report.json   # soak sweep
//
// The JSON written by --out is the same per-scenario object the schema-7
// bench report embeds under "scenarios".

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/latency_histogram.hpp"
#include "scenario/scenarios.hpp"

namespace {

using neats::obs::LatencyHistogram;
using neats::scenario::BuiltinScenarios;
using neats::scenario::RunScenario;
using neats::scenario::Scenario;
using neats::scenario::ScenarioOptions;
using neats::scenario::ScenarioResult;

void PrintResult(const ScenarioResult& r) {
  std::printf("%-28s seed=%llu scale=%llu readers=%d wall=%.2fs "
              "ingested=%llu verified=%llu unavailable=%llu\n",
              r.name.c_str(),
              static_cast<unsigned long long>(r.options.seed),
              static_cast<unsigned long long>(r.options.scale),
              r.options.readers, r.wall_seconds,
              static_cast<unsigned long long>(r.values_ingested),
              static_cast<unsigned long long>(r.reads_verified),
              static_cast<unsigned long long>(r.unavailable_reads));
  for (const auto& [op, h] : r.ops) {
    std::printf("  %-24s n=%-9llu p50=%-8llu p99=%-8llu p999=%-8llu "
                "max=%llu ns\n",
                op.c_str(), static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.p50()),
                static_cast<unsigned long long>(h.p99()),
                static_cast<unsigned long long>(h.p999()),
                static_cast<unsigned long long>(h.max()));
  }
  for (const std::string& note : r.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  // The store's own view of the same run, when the scenario attached one:
  // per-op percentiles as the instrumented store measured them, next to
  // the workload-side numbers above.
  for (const auto& [op, h] : r.store_metrics.histograms) {
    if (h.count() == 0) continue;
    std::printf("  store/%-18s n=%-9llu p50=%-8llu p99=%-8llu p999=%-8llu "
                "max=%llu ns\n",
                op.c_str(), static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.p50()),
                static_cast<unsigned long long>(h.p99()),
                static_cast<unsigned long long>(h.p999()),
                static_cast<unsigned long long>(h.max()));
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--scenario NAME] [--seed S] [--scale K] "
               "[--readers R] [--out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioOptions options;
  std::string only;
  std::string out_path;
  bool list = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto value = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::exit(Usage(argv[0]));
      }
      return argv[++a];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--scenario") {
      only = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--scale") {
      options.scale = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--readers") {
      options.readers = std::atoi(value());
    } else if (arg == "--out") {
      out_path = value();
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.scale == 0 || options.readers < 1) return Usage(argv[0]);

  const neats::scenario::ScenarioRegistry& registry = BuiltinScenarios();
  if (list) {
    for (const Scenario& s : registry.All()) {
      std::printf("%-28s %s\n", s.name.c_str(), s.description.c_str());
    }
    return 0;
  }

  std::vector<const Scenario*> to_run;
  if (!only.empty()) {
    const Scenario* s = registry.Find(only);
    if (s == nullptr) {
      std::fprintf(stderr, "unknown scenario: %s (try --list)\n",
                   only.c_str());
      return 2;
    }
    to_run.push_back(s);
  } else {
    for (const Scenario& s : registry.All()) to_run.push_back(&s);
  }

  std::vector<ScenarioResult> results;
  for (const Scenario* s : to_run) {
    try {
      results.push_back(RunScenario(*s, options));
      PrintResult(results.back());
    } catch (const std::exception& e) {
      // The message already leads with the repro line (scenario=X seed=Y).
      std::fprintf(stderr, "FAILED: %s\n", e.what());
      return 1;
    }
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    neats::scenario::WriteScenarioReport(out, results);
    std::printf("wrote %s (%zu scenarios)\n", out_path.c_str(),
                results.size());
  }
  return 0;
}
