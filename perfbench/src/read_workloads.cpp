// point_lookup and range_scan: one sealed, mmap-reopened NeaTS store of
// seeded ECG data served by an in-process server; two client connections
// run closed loops against it, every answer checked against the generated
// values (point values directly, sums against prefix sums).

#include <filesystem>
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

using neats::IndexRange;
using neats::net::Opcode;

constexpr uint64_t kValues = uint64_t{1} << 20;       // ~1Mi values
constexpr uint64_t kShardSize = uint64_t{1} << 16;    // 16 shards
constexpr int kSetupReps = 3;
constexpr uint64_t kBatch = 256;
constexpr uint64_t kRangeLen = 4096;
constexpr uint64_t kSumLen = uint64_t{256} << 10;     // spans >= 4 shards
constexpr double kWarmupSeconds = 1.0;
constexpr int kSubWindows = 20;

// Stream tags: one seeded generator per client stream.
constexpr uint64_t kPointStream = 1, kBatchStream = 2, kRangeStream = 3,
                   kSumStream = 4;

/// The served store: ground truth, the reopened store and its server.
struct Served {
  std::string dir;
  std::vector<int64_t> truth;
  std::vector<int64_t> prefix;  // prefix[i] = sum of truth[0, i)
  std::unique_ptr<neats::NeatsStore> store;
  std::unique_ptr<neats::net::NeatsServer> server;

  ~Served() {
    if (server != nullptr) server->Stop();
    server.reset();
    store.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

neats::NeatsStoreOptions StoreOptions(int seal_threads, bool metrics) {
  neats::NeatsStoreOptions o;
  o.shard_size = kShardSize;
  o.seal_threads = seal_threads;
  o.metrics = metrics;
  o.log_sink = neats::obs::NullLogSink();
  return o;
}

/// generate + compress + flush + reopen (OpenDir, mmap zero-copy) + server
/// start: what setup_s times. Compression uses every core (nothing else
/// runs yet); the reopened store keeps a 2-thread pool, so multi-shard
/// range sums fan out past parallel_query_values while the caller, one
/// pool worker, the server's IO thread and its other worker still fit
/// four cores.
std::unique_ptr<Served> Setup(const Config& cfg, int rep) {
  auto s = std::make_unique<Served>();
  s->dir = cfg.work_dir + "/" + cfg.workload + "-setup" + std::to_string(rep);
  std::filesystem::remove_all(s->dir);
  s->truth = neats::MakeDataset("ECG", kValues, cfg.seed).values;
  {
    neats::NeatsStore build =
        neats::NeatsStore::CreateDir(s->dir, StoreOptions(4, true));
    build.Append(s->truth);
    build.Flush();
  }
  s->store = std::make_unique<neats::NeatsStore>(
      neats::NeatsStore::OpenDir(s->dir, StoreOptions(2, true)));
  neats::net::NeatsServerOptions so;
  so.worker_threads = 2;
  s->server = std::make_unique<neats::net::NeatsServer>(*s->store, so);
  s->server->Start();
  return s;
}

/// Runs the setup kSetupReps times (keeping the last) and checks that each
/// repetition built the identical store. setup_s is the best quartile of
/// the repetitions, the rule every timing of the benchmark follows.
std::unique_ptr<Served> RepeatedSetup(const Config& cfg, RunResult& out,
                                      double* setup_s) {
  std::vector<double> secs;
  std::unique_ptr<Served> served;
  double bits = -1;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served.reset();
    const uint64_t t0 = NowNs();
    served = Setup(cfg, rep);
    secs.push_back(Seconds(NowNs() - t0));
    const double b = ShardViews::Open(served->dir).BitsPerValue();
    if (bits >= 0 && b != bits) {
      ++out.failed;
      out.Line("NONDETERMINISTIC setup: bits_per_value differs across reps");
    }
    bits = b;
  }
  served->prefix.assign(served->truth.size() + 1, 0);
  for (size_t i = 0; i < served->truth.size(); ++i) {
    served->prefix[i + 1] = served->prefix[i] + served->truth[i];
  }
  *setup_s = BestQuartileLatency(secs);
  return served;
}

// --- Seeded op generators (the workload and the ladder share them) ----------

std::function<Op()> PointOps(const Served& s, uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed, kPointStream);
  return [&s, rng] {
    const uint64_t i = rng->Below(kValues);
    const int64_t expect = s.truth[i];
    return Op{Opcode::kAccess, U64Payload({i}), 1,
              [expect](const std::vector<uint8_t>& p) { return ValueIs(p, expect); }};
  };
}

std::vector<uint64_t> NextBatch(Rng& rng) {
  std::vector<uint64_t> idx(kBatch);
  for (uint64_t& i : idx) i = rng.Below(kValues);
  return idx;
}

std::function<Op()> BatchOps(const Served& s, uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed, kBatchStream);
  return [&s, rng] {
    const std::vector<uint64_t> idx = NextBatch(*rng);
    std::vector<uint8_t> payload;
    neats::net::PayloadWriter w(&payload);
    w.U32(static_cast<uint32_t>(idx.size()));
    std::vector<int64_t> expect;
    for (uint64_t i : idx) {
      w.U64(i);
      expect.push_back(s.truth[i]);
    }
    return Op{Opcode::kAccessBatch, std::move(payload), kBatch,
              [expect = std::move(expect)](const std::vector<uint8_t>& p) {
                return ValuesAre(p, expect.data(), expect.size());
              }};
  };
}

IndexRange NextRange(Rng& rng, uint64_t len) {
  return {rng.Below(kValues - len + 1), len};
}

std::function<Op()> RangeOps(const Served& s, uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed, kRangeStream);
  return [&s, rng] {
    const IndexRange r = NextRange(*rng, kRangeLen);
    const int64_t* expect = s.truth.data() + r.from;
    return Op{Opcode::kDecompressRange, U64Payload({r.from, r.len}), r.len,
              [expect](const std::vector<uint8_t>& p) {
                return ValuesAre(p, expect, kRangeLen);
              }};
  };
}

std::function<Op()> SumOps(const Served& s, uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed, kSumStream);
  return [&s, rng] {
    const IndexRange r = NextRange(*rng, kSumLen);
    const int64_t expect = s.prefix[r.from + r.len] - s.prefix[r.from];
    return Op{Opcode::kRangeSum, U64Payload({r.from, r.len}), r.len,
              [expect](const std::vector<uint8_t>& p) { return ValueIs(p, expect); }};
  };
}

/// Fingerprint of a stream's first requests, from a fresh generator.
uint64_t StreamHash(const std::function<Op()>& next) {
  Hash h;
  for (uint64_t i = 0; i < kFingerprintOps; ++i) {
    const Op op = next();
    h.Add(static_cast<uint64_t>(op.op));
    for (uint8_t b : op.payload) h.Add(b);
  }
  return h.value();
}

/// The two streams of a read workload, run concurrently on their own
/// connections.
struct Streams {
  const char* read_name;  // workload-specific metric stems, for the report
  const char* bulk_name;
  int read_depth;
  std::function<std::function<Op()>(const Served&, uint64_t)> read_ops;
  std::function<std::function<Op()>(const Served&, uint64_t)> bulk_ops;
  const char* read_span;
  const char* bulk_span;
  const char* read_server_op;
  double read_values;  // values per request of each stream
  double bulk_values;
};

struct Measured {
  StreamStats read, bulk;
  double seconds = 0;
  std::vector<Span> spans;
};

Measured Measure(const Served& s, const Config& cfg, const Streams& sp,
                 double warmup, double seconds, bool traced) {
  Measured m;
  Window w;
  w.start = NowNs() + static_cast<uint64_t>(warmup * 1e9);
  w.end = w.start + static_cast<uint64_t>(seconds * 1e9);
  w.parts = kSubWindows;
  m.seconds = seconds;
  const uint16_t port = s.server->port();
  const uint64_t t_begin = NowNs();
  Tracer tr_read(traced), tr_bulk(traced);
  std::thread read([&] {
    const int32_t conn = tr_read.Begin("conn.read", -1, 1);
    m.read = RunStream(port, w, sp.read_depth, sp.read_ops(s, cfg.seed),
                       sp.read_span, tr_read, conn);
    tr_read.End(conn);
  });
  std::thread bulk([&] {
    const int32_t conn = tr_bulk.Begin("conn.bulk", -1, 2);
    m.bulk = RunStream(port, w, 1, sp.bulk_ops(s, cfg.seed), sp.bulk_span,
                       tr_bulk, conn);
    tr_bulk.End(conn);
  });
  read.join();
  bulk.join();
  if (traced) {
    Tracer all(true);
    const int32_t root = all.Record("workload", -1, 0, t_begin, NowNs());
    all.Absorb(tr_read.spans(), root);
    all.Absorb(tr_bulk.spans(), root);
    m.spans = all.spans();
  }
  return m;
}

double Mps(uint64_t values, double seconds) {
  return static_cast<double>(values) / seconds / 1e6;
}

RunResult RunRead(const Config& cfg, const Streams& sp) {
  RunResult out;
  std::filesystem::create_directories(cfg.work_dir);
  double setup_s = 0;
  std::unique_ptr<Served> s = RepeatedSetup(cfg, out, &setup_s);
  const ShardViews views = ShardViews::Open(s->dir);

  // Determinism fingerprints: the data and each stream's first requests.
  Hash data;
  data.Add(s->truth);
  const uint64_t read_hash = StreamHash(sp.read_ops(*s, cfg.seed));
  const uint64_t bulk_hash = StreamHash(sp.bulk_ops(*s, cfg.seed));

  const double untraced_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Measured m = Measure(*s, cfg, sp, kWarmupSeconds, untraced_seconds, false);
  // The program's memory at the end of the measured window: setup plus
  // serving (the streams' histograms have a fixed size).
  const double peak_rss_mib = PeakRssMib();
  if (m.read.hash != read_hash || m.bulk.hash != bulk_hash) {
    ++out.failed;
    out.Line("NONDETERMINISTIC probe stream: sent requests differ from the "
             "seeded replay");
  }
  Measured traced;
  if (cfg.trace) {
    traced = Measure(*s, cfg, sp, 0.25, cfg.seconds / 2, true);
  }
  const neats::obs::MetricsSnapshot server_snap = s->server->StatsSnapshot();
  const neats::obs::MetricsSnapshot store_snap = s->store->StatsSnapshot();

  for (const Measured* part : {&m, &traced}) {
    for (const StreamStats* st : {&part->read, &part->bulk}) {
      out.attempted += st->attempted;
      out.failed += st->failed;
      out.wrong += st->wrong;
      if (!st->error.empty()) out.Line("stream failure: " + st->error);
    }
  }
  const LatencyHistogram rl = m.read.All();
  const LatencyHistogram bl = m.bulk.All();

  out.e2e["setup_s"] = setup_s;
  out.e2e["peak_rss_mib"] = peak_rss_mib;
  out.e2e["bits_per_value"] = views.BitsPerValue();
  const double part_s = m.seconds / kSubWindows;
  const Windowed rw = Windowed::Of(m.read.windows, part_s, sp.read_values);
  const Windowed bw = Windowed::Of(m.bulk.windows, part_s, sp.bulk_values);
  out.e2e["read_p50_us"] = rw.p50_ns / 1e3;
  out.e2e["read_p90_us"] = rw.p90_ns / 1e3;
  out.e2e["read_mvalues_s"] = rw.values_per_s / 1e6;
  out.e2e["bulk_mvalues_s"] = bw.values_per_s / 1e6;
  out.e2e["bulk_p90_us"] = bw.p90_ns / 1e3;

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s: %s (%.0f req/s); %s_mvalues_s=%.4f",
                sp.read_name, LatencyText(rl).c_str(),
                static_cast<double>(m.read.requests) / m.seconds,
                sp.read_name, Mps(m.read.values, m.seconds));
  out.Line(buf);
  std::snprintf(buf, sizeof(buf), "%s: %s; %s_mvalues_s=%.4f", sp.bulk_name,
                LatencyText(bl).c_str(), sp.bulk_name,
                Mps(m.bulk.values, m.seconds));
  out.Line(buf);
  std::snprintf(buf, sizeof(buf),
                "determinism: bits_per_value=%.17g fragments_per_shard=%.17g "
                "shards.neats=%zu data_hash=%016llx read_stream_hash=%016llx "
                "bulk_stream_hash=%016llx",
                views.BitsPerValue(), views.FragmentsPerShard(),
                views.CountCodec(neats::CodecId::kNeats),
                static_cast<unsigned long long>(data.value()),
                static_cast<unsigned long long>(read_hash),
                static_cast<unsigned long long>(bulk_hash));
  out.Line(buf);

  // This workload never reaches a block codec: every shard is NeaTS, so the
  // decoded-block cache must see no lookups at all.
  const double cache_lookups =
      Counter(store_snap, "cache.hits") + Counter(store_snap, "cache.misses");
  if (cache_lookups != 0) {
    ++out.failed;
    out.Line("UNEXPECTED block-cache lookups on an all-NeaTS store");
  }

  if (!cfg.trace) return out;

  // --- Traced run: per-layer ladder over the same seeded inputs -------------
  auto& L = out.layer;
  L["core.fragments_per_shard"] = views.FragmentsPerShard();
  for (uint32_t id = 0; id < neats::kNumCodecIds; ++id) {
    L[std::string("codecs.shards.") + kCodecNames[id]] = static_cast<double>(
        views.CountCodec(static_cast<neats::CodecId>(id)));
  }
  L["store.cache.hit_rate"] = 0;  // asserted: no lookups
  L["store.cache.evictions"] = Counter(store_snap, "cache.evictions");
  for (const char* op : {"access", "access_batch", "range", "range_sum"}) {
    L[std::string("net.server_op_p50_us.") + op] = ServerOpP50Us(server_snap, op);
  }
  const double batches = Counter(server_snap, "coalesce.batches");
  L["net.coalesce.probes_per_batch"] =
      batches > 0 ? Counter(server_snap, "coalesce.probes") / batches : 0;
  L["net.req.shed"] = Counter(server_snap, "req.shed");
  const double read_p50_ns = static_cast<double>(rl.p50());
  L["self.net.wire_queue_us"] =
      read_p50_ns / 1e3 - ServerOpP50Us(server_snap, sp.read_server_op);
  L["trace.overhead_ratio"] =
      read_p50_ns > 0
          ? static_cast<double>(traced.read.All().p50()) / read_p50_ns
          : 0;
  {
    const auto totals = SelfTimes(traced.spans);
    uint64_t conn_total = 0, conn_self = 0;
    for (const char* name : {"conn.read", "conn.bulk"}) {
      auto it = totals.find(name);
      if (it == totals.end()) continue;
      conn_total += it->second.total_ns;
      conn_self += it->second.self_ns;
    }
    L["self.client.busy_ratio"] =
        conn_total > 0 ? static_cast<double>(conn_self) / conn_total : 0;
  }

  neats::NeatsStore store_nm =
      neats::NeatsStore::OpenDir(s->dir, StoreOptions(2, false));
  Tracer tr(true);
  const int32_t root = tr.Begin("ladder", -1, 0);
  LadderCtx ctx{out, tr, root, s->truth, views, *s->store, store_nm,
                s->server->port()};
  if (cfg.workload == "point_lookup") {
    Rng points(cfg.seed, kPointStream), batch_rng(cfg.seed, kBatchStream);
    std::vector<uint64_t> probes(64 * 256);
    for (uint64_t& i : probes) i = points.Below(kValues);
    PointLadder(ctx, probes);
    std::vector<std::vector<uint64_t>> batches(64);
    for (auto& b : batches) b = NextBatch(batch_rng);
    BatchLadder(ctx, batches);
  } else {
    Rng range_rng(cfg.seed, kRangeStream), sum_rng(cfg.seed, kSumStream);
    std::vector<IndexRange> ranges(256), sums(32);
    for (IndexRange& r : ranges) r = NextRange(range_rng, kRangeLen);
    for (IndexRange& r : sums) r = NextRange(sum_rng, kSumLen);
    RangeLadder(ctx, ranges, sums, s->prefix);
  }
  CompressLadder(out, tr, root, {std::span<const int64_t>(s->truth).first(kShardSize)});
  L["io.fsync_us"] = FsyncUs(s->dir);
  L["net.ping_p50_us"] = PingP50Us(s->server->port());
  L["net.frame_roundtrip_ns"] = FrameRoundtripNs();
  tr.End(root);

  Tracer all(true);
  all.Absorb(traced.spans, -1);
  all.Absorb(tr.spans(), -1);
  L["trace.spans"] = static_cast<double>(all.spans().size());
  out.spans = all.spans();
  return out;
}

}  // namespace

RunResult RunPointLookup(const Config& cfg) {
  Streams sp{"access", "batch", 8, PointOps, BatchOps,
             "net.access", "net.access_batch", "access", 1, kBatch};
  return RunRead(cfg, sp);
}

RunResult RunRangeScan(const Config& cfg) {
  Streams sp{"range", "range_sum", 1, RangeOps, SumOps,
             "net.range", "net.range_sum", "range", kRangeLen, kSumLen};
  return RunRead(cfg, sp);
}

}  // namespace perfbench
