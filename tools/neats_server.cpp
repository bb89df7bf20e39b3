// neats_server — the networked serving front-end (ROADMAP item 1).
//
// Fronts one NeatsStore over TCP: binary frames and an HTTP GET /stats
// route on the same port (src/net/server.hpp has the protocol and
// threading story). Serves either a store directory or a
// synthetic dataset, so a demo needs no data files:
//
//   ./neats_server --synthetic 200000                # ECG-shaped data
//   ./neats_server --dir /var/lib/neats/series0     # a flushed store
//   ./neats_server --port 7777 --workers 8 --max-inflight 4096
//
// Prints "listening on HOST:PORT" once ready (with --port-file the port
// also lands in a file — CI's ephemeral-port smoke step uses that), then
// serves until SIGINT/SIGTERM, which triggers a graceful drain: stop
// accepting, finish in-flight requests, flush buffers, close, and — when
// the store came from --dir — Flush() the hot tail durably.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "datasets/generators.hpp"
#include "net/server.hpp"
#include "store/neats_store.hpp"

namespace {

neats::net::NeatsServer* g_server = nullptr;
volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) {
  g_stop = 1;
  if (g_server != nullptr) g_server->RequestStop();  // async-signal-safe
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--dir DIR | --synthetic N] [--dataset CODE] [--host H]\n"
      "          [--port P] [--port-file FILE] [--workers N]\n"
      "          [--max-inflight N] [--idle-timeout-ms MS]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string dataset = "ECG";
  std::string port_file;
  uint64_t synthetic = 0;
  neats::net::NeatsServerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dir") {
      dir = next();
    } else if (arg == "--synthetic") {
      synthetic = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--host") {
      options.host = next();
    } else if (arg == "--port") {
      options.port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--workers") {
      options.worker_threads = std::atoi(next());
    } else if (arg == "--max-inflight") {
      options.max_inflight = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else {
      return Usage(argv[0]);
    }
  }
  if (!dir.empty() && synthetic > 0) return Usage(argv[0]);
  if (dir.empty() && synthetic == 0) synthetic = 200000;

  try {
    neats::NeatsStore store =
        dir.empty() ? neats::NeatsStore()
                    : neats::NeatsStore::OpenDir(dir);
    if (dir.empty()) {
      const neats::Dataset ds =
          neats::MakeDataset(dataset, static_cast<size_t>(synthetic));
      store.Append(ds.values);
      std::fprintf(stderr, "serving synthetic %s: %zu values\n",
                   ds.code.c_str(), ds.values.size());
    } else {
      std::fprintf(stderr, "serving %s: %llu values%s\n", dir.c_str(),
                   static_cast<unsigned long long>(store.size()),
                   store.degraded() ? " (DEGRADED — run Scrub)" : "");
    }

    neats::net::NeatsServer server(store, options);
    server.Start();
    g_server = &server;
    std::signal(SIGINT, OnSignal);
    std::signal(SIGTERM, OnSignal);

    std::printf("listening on %s:%u\n", options.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream f(port_file, std::ios::trunc);
      f << server.port() << "\n";
    }

    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "draining...\n");
    server.Stop();
    g_server = nullptr;
    if (!dir.empty()) store.Flush();  // durable hot tail before exit
    std::fprintf(stderr, "drained; bye\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neats_server: %s\n", e.what());
    return 1;
  }
  return 0;
}
