// ingest_mixed: a directory-backed kAuto store (WAL on, one fsync per
// Append) fed by one closed-loop appender while one connection reads the
// most recent shard's worth of acknowledged values until the last Append
// returns. A cycle ingests one fixed seeded contrast series into a fresh
// store and ends when Flush returns, so every cycle seals identical
// shards; the run repeats cycles until its time is up.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "client_streams.hpp"
#include "datasets/generators.hpp"
#include "ladder.hpp"
#include "net/server.hpp"
#include "store/neats_store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using neats::CodecId;
using neats::net::Opcode;

constexpr uint64_t kShardSize = uint64_t{1} << 14;
constexpr uint64_t kKinds = 4;
constexpr uint64_t kRounds = 2;  // segments per cycle = kKinds * kRounds
constexpr uint64_t kValues = kShardSize * kKinds * kRounds;
constexpr uint64_t kAppendBatch = 1024;
constexpr int kSetupReps = 127;  // ~12 ms each, so ~1.5 s of set-ups
constexpr int kReadDepth = 8;
constexpr uint64_t kReadStream = 5, kHoldStream = 6;

// One shard-sized segment per kind, cycling: ECG and IT seal as NeaTS (or
// NeaTS-L), DP as LeCo, and a sample-and-hold stock ticker (a price
// repeated until the next trade) as Gorilla — so kAuto picks several
// codecs, including a block codec.
const char* const kKindCodes[kKinds] = {"ECG", "DP", "IT", "US"};

std::vector<int64_t> ContrastSeries(uint64_t seed) {
  std::vector<std::vector<int64_t>> kinds;
  for (const char* code : kKindCodes) {
    kinds.push_back(
        neats::MakeDataset(code, kShardSize * kRounds, seed).values);
  }
  Rng hold(seed, kHoldStream);
  std::vector<int64_t>& ticker = kinds[kKinds - 1];
  for (size_t i = 0; i < ticker.size();) {
    const int64_t price = ticker[i];
    for (uint64_t run = 1 + hold.Below(32); run > 0 && i < ticker.size();
         --run) {
      ticker[i++] = price;
    }
  }
  std::vector<int64_t> series;
  series.reserve(kValues);
  for (uint64_t r = 0; r < kRounds; ++r) {
    for (const auto& k : kinds) {
      series.insert(series.end(), k.begin() + r * kShardSize,
                    k.begin() + (r + 1) * kShardSize);
    }
  }
  return series;
}

neats::NeatsStoreOptions StoreOptions(bool metrics) {
  neats::NeatsStoreOptions o;
  o.shard_size = kShardSize;
  o.seal_policy = neats::SealPolicy::kAuto;  // every registered codec
  o.seal_threads = 2;
  o.wal = true;
  o.metrics = metrics;
  o.log_sink = neats::obs::NullLogSink();
  return o;
}

neats::net::NeatsServerOptions ServerOptions() {
  neats::net::NeatsServerOptions so;
  so.worker_threads = 2;
  return so;
}

struct Cycle {
  double ingest_s = 0;
  double read_s = 0;
  LatencyHistogram appends;  // Append call latencies (ns)
  StreamStats read;          // one sub-window: the whole cycle
  uint64_t draws = 0;        // seeded draws the reader made
  uint64_t draws_hash = 0;   // fingerprint of the first kFingerprintOps
  uint64_t pending_max = 0;
  double bits = 0;
  std::vector<size_t> codec_shards;
  neats::obs::MetricsSnapshot store_snap, server_snap;
  std::vector<uint64_t> read_probes;  // first probes the reader sent
  std::vector<Span> spans;
};

/// Fingerprint of the first `n` draws of the reader's seeded generator.
uint64_t DrawsHash(uint64_t seed, uint64_t n) {
  Rng replay(seed, kReadStream);
  Hash h;
  for (uint64_t i = 0; i < n; ++i) h.Add(replay.Next());
  return h.value();
}

/// One ingest cycle into a fresh store at `dir`. The directory is left in
/// place (flushed) for the caller to inspect or remove.
Cycle RunCycle(const std::vector<int64_t>& series, const std::string& dir,
               uint64_t seed, uint64_t cycle_id, bool traced,
               RunResult& out) {
  Cycle c;
  std::filesystem::remove_all(dir);
  auto store = std::make_unique<neats::NeatsStore>(
      neats::NeatsStore::CreateDir(dir, StoreOptions(true)));
  auto server =
      std::make_unique<neats::net::NeatsServer>(*store, ServerOptions());
  server->Start();

  Tracer tr(traced), tr_read(traced);
  const int32_t root = tr.Begin("ingest.cycle", -1, cycle_id);
  std::atomic<uint64_t> acked{0};
  std::atomic<bool> stop{false};
  Rng rng(seed, kReadStream);
  Hash draws;
  // The draws are fixed by the seed; the index a draw picks depends on how
  // far the appender has got, so only the draws are fingerprinted.
  auto next = [&]() {
    const uint64_t hi = acked.load(std::memory_order_acquire);
    const uint64_t lo = hi > kShardSize ? hi - kShardSize : 0;
    const uint64_t r = rng.Next();
    if (c.draws++ < kFingerprintOps) draws.Add(r);
    const uint64_t i = lo + r % (hi - lo);
    if (traced && c.read_probes.size() < 4096) c.read_probes.push_back(i);
    const int64_t expect = series[i];
    return Op{Opcode::kAccess, U64Payload({i}), 1,
              [expect](const std::vector<uint8_t>& p) {
                return ValueIs(p, expect);
              }};
  };
  std::thread reader;
  // Stops and joins the reader on every way out of the cycle.
  struct StopReader {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~StopReader() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
  } stop_reader{stop, reader};
  uint64_t read_start = 0;

  const uint64_t t_first = NowNs();
  for (uint64_t at = 0; at < kValues; at += kAppendBatch) {
    const uint64_t t0 = NowNs();
    store->Append(std::span<const int64_t>(series).subspan(at, kAppendBatch));
    const uint64_t t1 = NowNs();
    c.appends.Record(t1 - t0);
    acked.store(at + kAppendBatch, std::memory_order_release);
    if (traced) {
      tr.Record("store.append", root, at / kAppendBatch, t0, t1);
      c.pending_max = std::max<uint64_t>(c.pending_max,
                                         store->num_pending_seals());
    }
    if (at == 0) {
      read_start = NowNs();
      reader = std::thread([&] {
        Window w{0, ~uint64_t{0}, &stop};
        const int32_t conn = tr_read.Begin("conn.read", -1, cycle_id);
        c.read = RunStream(server->port(), w, kReadDepth, next, "net.access",
                           tr_read, conn);
        tr_read.End(conn);
      });
    }
  }
  // The reader runs beside the appends only: Flush holds the store's
  // writer lock while it drains the seal backlog, so a read spanning it
  // would stall for the whole drain (store.flush_ms reports that time).
  stop.store(true, std::memory_order_release);
  reader.join();
  c.read_s = Seconds(NowNs() - read_start);
  c.draws_hash = draws.value();
  const int32_t flush = tr.Begin("store.flush", root, cycle_id);
  store->Flush();
  tr.End(flush);
  c.ingest_s = Seconds(NowNs() - t_first);
  tr.End(root);

  // Everything acknowledged must read back exactly after the Flush.
  std::vector<int64_t> back(kValues);
  store->DecompressRange(0, kValues, back.data());
  if (store->size() != kValues || back != series) {
    ++out.wrong;
    ++out.failed;
    out.Line("WRONG store contents after Flush in cycle " +
             std::to_string(cycle_id));
  }
  c.store_snap = store->StatsSnapshot();
  c.server_snap = server->StatsSnapshot();
  server->Stop();
  server.reset();
  store.reset();

  const ShardViews views = ShardViews::Open(dir);
  c.bits = views.BitsPerValue();
  for (uint32_t id = 0; id < neats::kNumCodecIds; ++id) {
    c.codec_shards.push_back(views.CountCodec(static_cast<CodecId>(id)));
  }
  if (traced) {
    tr.Absorb(tr_read.spans(), root);
    c.spans = tr.spans();
  }
  return c;
}

/// Same seed, same cycle: a cycle must seal the reference cycle's shards,
/// and its reader must have drawn the seeded stream.
void CheckCycle(const Cycle& ref, const Cycle& c, uint64_t seed,
                RunResult& out) {
  if (c.bits != ref.bits || c.codec_shards != ref.codec_shards) {
    ++out.failed;
    out.Line("NONDETERMINISTIC seal: cycles sealed different shards");
  }
  if (c.draws_hash !=
      DrawsHash(seed, std::min<uint64_t>(c.draws, kFingerprintOps))) {
    ++out.failed;
    out.Line("NONDETERMINISTIC probe stream: the reader's draws differ from "
             "the seeded replay");
  }
}

/// The cycles of one measurement, folded as each finishes so the run's
/// memory does not grow with their number. Each cycle is one sub-window.
struct CycleSet {
  std::vector<double> read_p50, read_p90, read_rate;  // per cycle
  std::vector<double> append_p90, ingest_mvalues_s;   // per cycle
  StreamStats reads;         // every cycle's reads
  LatencyHistogram appends;  // every cycle's Append calls
  double read_s = 0;
  uint64_t pending_max = 0;
  size_t count = 0;
  Tracer spans{false};  // the traced cycles' spans, Absorb()ed as they end
  Cycle last;

  void Add(Cycle c) {
    ++count;
    ingest_mvalues_s.push_back(static_cast<double>(kValues) / c.ingest_s /
                               1e6);
    append_p90.push_back(static_cast<double>(c.appends.Percentile(0.90)));
    appends.Merge(c.appends);
    const LatencyHistogram r = c.read.All();
    if (r.count() > 0) {
      read_p50.push_back(static_cast<double>(r.p50()));
      read_p90.push_back(static_cast<double>(r.Percentile(0.90)));
      read_rate.push_back(static_cast<double>(r.count()) / c.read_s);
    }
    reads.Merge(c.read);
    read_s += c.read_s;
    pending_max = std::max(pending_max, c.pending_max);
    spans.Absorb(c.spans, -1);
    c.spans.clear();
    last = std::move(c);
  }
};

/// Runs cycles until `seconds` have passed (at least one), each checked
/// against the reference cycle.
CycleSet RunCycles(const std::vector<int64_t>& series, const Config& cfg,
                   double seconds, bool traced, const Cycle& ref,
                   uint64_t* next_id, RunResult& out) {
  CycleSet set;
  const std::string dir = cfg.work_dir + "/ingest-cycle";
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    Cycle c = RunCycle(series, dir, cfg.seed, (*next_id)++, traced, out);
    CheckCycle(ref, c, cfg.seed, out);
    set.Add(std::move(c));
  } while (NowNs() < end);
  return set;
}

}  // namespace

RunResult RunIngestMixed(const Config& cfg) {
  RunResult out;
  std::filesystem::create_directories(cfg.work_dir);
  const std::string dir = cfg.work_dir + "/ingest-cycle";

  // Setup: generate the series + create the store + start the server.
  // Set-up times are bimodal on a shared machine (the CPU's speed flips
  // between a fast and a slow level), so their median jumps between runs;
  // the best quartile of many repetitions holds still.
  std::vector<double> setup;
  std::vector<int64_t> series;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t t0 = NowNs();
    series = ContrastSeries(cfg.seed);
    const std::string setup_dir = dir + "-setup";
    std::filesystem::remove_all(setup_dir);
    {
      neats::NeatsStore store =
          neats::NeatsStore::CreateDir(setup_dir, StoreOptions(true));
      neats::net::NeatsServer server(store, ServerOptions());
      server.Start();
      setup.push_back(Seconds(NowNs() - t0));
      server.Stop();
    }
    std::filesystem::remove_all(setup_dir);
  }

  // The warm-up cycle is the reference every measured cycle must match.
  uint64_t cycle_id = 0;
  const Cycle ref = RunCycle(series, dir, cfg.seed, cycle_id++, false, out);
  CheckCycle(ref, ref, cfg.seed, out);
  const double untraced_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const CycleSet cycles =
      RunCycles(series, cfg, untraced_seconds, false, ref, &cycle_id, out);
  // The program's memory at the end of the measured cycles (what the
  // benchmark itself keeps per cycle has a fixed size).
  const double peak_rss_mib = PeakRssMib();
  CycleSet traced;
  if (cfg.trace) {
    traced = RunCycles(series, cfg, cfg.seconds / 2, true, ref, &cycle_id, out);
  }

  out.attempted += cycle_id * (kValues / kAppendBatch);
  for (const StreamStats& st :
       {std::cref(ref.read), std::cref(cycles.reads), std::cref(traced.reads)}) {
    out.attempted += st.attempted;
    out.failed += st.failed;
    out.wrong += st.wrong;
    if (!st.error.empty()) out.Line("stream failure: " + st.error);
  }

  size_t codecs_used = 0, block_shards = 0;
  for (uint32_t id = 0; id < neats::kNumCodecIds; ++id) {
    codecs_used += ref.codec_shards[id] > 0;
  }
  for (CodecId id : {CodecId::kAlp, CodecId::kGorilla, CodecId::kChimp}) {
    block_shards += ref.codec_shards[static_cast<size_t>(id)];
  }
  if (codecs_used < 2 || block_shards == 0) {
    ++out.failed;
    out.Line("kAuto sealed fewer than 2 codecs or no block codec");
  }

  const LatencyHistogram rl = cycles.reads.All();

  out.e2e["setup_s"] = BestQuartileLatency(setup);
  out.e2e["peak_rss_mib"] = peak_rss_mib;
  out.e2e["bits_per_value"] = ref.bits;
  out.e2e["read_p50_us"] = BestQuartileLatency(cycles.read_p50) / 1e3;
  out.e2e["read_p90_us"] = BestQuartileLatency(cycles.read_p90) / 1e3;
  out.e2e["read_mvalues_s"] = BestQuartileRate(cycles.read_rate) / 1e6;
  out.e2e["bulk_mvalues_s"] = BestQuartileRate(cycles.ingest_mvalues_s);
  out.e2e["bulk_p90_us"] = BestQuartileLatency(cycles.append_p90) / 1e3;

  char buf[512];
  std::snprintf(buf, sizeof(buf), "access: %s; access_mvalues_s=%.4f",
                LatencyText(rl).c_str(),
                static_cast<double>(rl.count()) / cycles.read_s / 1e6);
  out.Line(buf);
  std::snprintf(buf, sizeof(buf),
                "ingest: ingest_mvalues_s=%.4f (best quartile of %zu cycles "
                "of %llu values); append %s",
                BestQuartileRate(cycles.ingest_mvalues_s), cycles.count,
                static_cast<unsigned long long>(kValues),
                LatencyText(cycles.appends).c_str());
  out.Line(buf);
  out.Line("flush policy: WAL on, one fsync per Append of 1024 values, "
           "Flush after the last batch; kAuto over every codec, "
           "seal_threads=2, shard_size=16384");
  Hash data;
  data.Add(series);
  std::string codecs;
  for (uint32_t id = 0; id < neats::kNumCodecIds; ++id) {
    codecs += std::string(" shards.") + kCodecNames[id] + "=" +
              std::to_string(ref.codec_shards[id]);
  }
  std::snprintf(buf, sizeof(buf),
                "determinism: bits_per_value=%.17g%s data_hash=%016llx "
                "read_draws_hash=%016llx",
                ref.bits, codecs.c_str(),
                static_cast<unsigned long long>(data.value()),
                static_cast<unsigned long long>(
                    DrawsHash(cfg.seed, kFingerprintOps)));
  out.Line(buf);

  if (!cfg.trace) {
    std::filesystem::remove_all(dir);
    return out;
  }

  // --- Traced run: per-layer metrics from the traced cycles + the ladder ----
  auto& L = out.layer;
  const Cycle& last = traced.last;
  for (uint32_t id = 0; id < neats::kNumCodecIds; ++id) {
    L[std::string("codecs.shards.") + kCodecNames[id]] =
        static_cast<double>(last.codec_shards[id]);
  }
  Tracer& all = traced.spans;
  const auto totals = SelfTimes(all.spans());
  if (auto it = totals.find("store.append"); it != totals.end()) {
    L["store.append_us_p50"] = Median(it->second.durations) / 1e3;
  }
  if (auto it = totals.find("store.flush"); it != totals.end()) {
    L["store.flush_ms"] = Median(it->second.durations) / 1e6;
  }
  if (auto it = totals.find("conn.read"); it != totals.end()) {
    L["self.client.busy_ratio"] =
        it->second.total_ns > 0
            ? static_cast<double>(it->second.self_ns) / it->second.total_ns
            : 0;
  }
  L["store.pending_seals_max"] = static_cast<double>(traced.pending_max);
  L["store.seal.count"] = Counter(last.store_snap, "seal.count");
  const double hits = Counter(last.store_snap, "cache.hits");
  const double lookups = hits + Counter(last.store_snap, "cache.misses");
  L["store.cache.hit_rate"] = lookups > 0 ? hits / lookups : 0;
  L["store.cache.evictions"] = Counter(last.store_snap, "cache.evictions");
  const double append_calls = Counter(last.store_snap, "append.calls");
  L["io.wal_fsyncs_per_append"] =
      append_calls > 0 ? Counter(last.store_snap, "wal.fsyncs") / append_calls
                       : 0;
  L["net.server_op_p50_us.access"] = ServerOpP50Us(last.server_snap, "access");
  const double batches = Counter(last.server_snap, "coalesce.batches");
  L["net.coalesce.probes_per_batch"] =
      batches > 0 ? Counter(last.server_snap, "coalesce.probes") / batches : 0;
  L["net.req.shed"] = Counter(last.server_snap, "req.shed");
  const double read_p50_ns = static_cast<double>(rl.p50());
  L["self.net.wire_queue_us"] =
      read_p50_ns / 1e3 - ServerOpP50Us(last.server_snap, "access");
  L["trace.overhead_ratio"] =
      read_p50_ns > 0
          ? static_cast<double>(traced.reads.All().p50()) / read_p50_ns
          : 0;

  // Ladder over the last traced cycle's flushed store and the probes its
  // reader sent (NeaTS shards only for the succinct/core rungs).
  const ShardViews views = ShardViews::Open(dir);
  L["core.fragments_per_shard"] = views.FragmentsPerShard();
  {
    neats::NeatsStore store =
        neats::NeatsStore::OpenDir(dir, StoreOptions(true));
    neats::NeatsStore store_nm =
        neats::NeatsStore::OpenDir(dir, StoreOptions(false));
    neats::net::NeatsServer server(store, ServerOptions());
    server.Start();
    Tracer tr(true);
    const int32_t root = tr.Begin("ladder", -1, 0);
    LadderCtx ctx{out, tr, root, series, views, store, store_nm, server.port()};
    PointLadder(ctx, last.read_probes);
    std::vector<std::span<const int64_t>> chunks;
    for (uint64_t k = 0; k < kKinds; ++k) {
      chunks.push_back(
          std::span<const int64_t>(series).subspan(k * kShardSize, kShardSize));
    }
    CompressLadder(out, tr, root, chunks);
    L["io.fsync_us"] = FsyncUs(dir);
    L["net.ping_p50_us"] = PingP50Us(server.port());
    L["net.frame_roundtrip_ns"] = FrameRoundtripNs();
    tr.End(root);
    server.Stop();
    all.Absorb(tr.spans(), -1);
  }
  std::filesystem::remove_all(dir);
  L["trace.spans"] = static_cast<double>(all.spans().size());
  out.spans = all.spans();
  return out;
}

}  // namespace perfbench
