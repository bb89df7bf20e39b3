#include "ladder.hpp"

#include <algorithm>
#include <cstring>

#include "codecs/codec_registry.hpp"
#include "core/partitioner.hpp"
#include "io/checksum.hpp"
#include "io/manifest.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"

namespace perfbench {

namespace {

using neats::CodecId;
using neats::IndexRange;

// Keeps timed results observable so the compiler cannot drop the calls.
volatile uint64_t g_sink = 0;

constexpr size_t kPointBlock = 256;

// Span names of the per-codec compress rungs, in CodecId order.
const char* const kCompressSpans[] = {
    "codecs.compress.neats", "codecs.compress.neats-lossy-exact",
    "codecs.compress.leco",  "codecs.compress.alp",
    "codecs.compress.gorilla", "codecs.compress.chimp"};

/// Counts mismatches of `got` against truth[idx[j]] as wrong answers.
void Verify(RunResult& out, std::span<const int64_t> got,
            std::span<const uint64_t> idx, const std::vector<int64_t>& truth,
            const char* rung) {
  for (size_t j = 0; j < idx.size(); ++j) {
    if (got[j] != truth[idx[j]]) {
      ++out.wrong;
      ++out.failed;
      out.Line(std::string("WRONG ladder answer on ") + rung + " at index " +
               std::to_string(idx[j]));
      return;
    }
  }
}

void VerifyRange(RunResult& out, const int64_t* got, const IndexRange& r,
                 const std::vector<int64_t>& truth, const char* rung) {
  if (!std::equal(got, got + r.len, truth.begin() + r.from)) {
    ++out.wrong;
    ++out.failed;
    out.Line(std::string("WRONG ladder answer on ") + rung + " at range " +
             std::to_string(r.from));
  }
}

/// Times `body` as one rung span under `step`; returns its duration (ns).
template <typename Body>
uint64_t Rung(Tracer& tr, const char* name, int32_t step, uint64_t id,
              Body&& body) {
  const uint64_t t0 = NowNs();
  body();
  const uint64_t t1 = NowNs();
  tr.Record(name, step, id, t0, t1);
  return t1 - t0;
}

}  // namespace

// --- ShardViews ---------------------------------------------------------------

ShardViews ShardViews::Open(const std::string& dir) {
  neats::io::FileSystem& fs = neats::io::PosixFileSystem();
  ShardViews v;
  const neats::io::MappedRegion manifest_bytes =
      fs.OpenRead(dir + "/" + neats::StoreManifest::FileName());
  const neats::StoreManifest manifest =
      neats::StoreManifest::Deserialize(manifest_bytes.bytes());
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    const neats::StoreManifest::Shard& row = manifest.shards[s];
    v.first.push_back(row.first);
    v.count.push_back(row.count);
    v.codec.push_back(row.codec);
    v.blob_bytes += row.blob_bytes;
    v.maps.push_back(
        fs.OpenRead(dir + "/" + neats::StoreManifest::ShardFileName(s)));
    if (row.codec != CodecId::kNeats) {
      v.neats.push_back(nullptr);
      v.starts.emplace_back();
      continue;
    }
    const neats::TrailerInfo trailer =
        neats::CheckChecksumTrailer(v.maps.back().bytes());
    NEATS_REQUIRE(trailer.state == neats::TrailerState::kValid,
                  "shard blob fails its checksum");
    v.neats.push_back(
        std::make_unique<neats::Neats>(neats::Neats::View(trailer.payload)));
    const neats::Neats& n = *v.neats.back();
    std::vector<uint64_t> starts(n.num_fragments());
    for (size_t f = 0; f < starts.size(); ++f) {
      starts[f] = n.GetFragment(f).start;
    }
    v.starts.emplace_back(starts, row.count);
  }
  return v;
}

size_t ShardViews::Route(uint64_t i) const {
  return static_cast<size_t>(
      std::upper_bound(first.begin(), first.end(), i) - first.begin() - 1);
}

double ShardViews::BitsPerValue() const {
  return size() == 0 ? 0
                     : static_cast<double>(blob_bytes) * 8.0 /
                           static_cast<double>(size());
}

double ShardViews::FragmentsPerShard() const {
  uint64_t fragments = 0, shards = 0;
  for (const auto& n : neats) {
    if (n != nullptr) {
      fragments += n->num_fragments();
      ++shards;
    }
  }
  return shards == 0 ? 0
                     : static_cast<double>(fragments) /
                           static_cast<double>(shards);
}

size_t ShardViews::CountCodec(CodecId id) const {
  return static_cast<size_t>(std::count(codec.begin(), codec.end(), id));
}

// --- Rungs ----------------------------------------------------------------------
//
// Rungs run one after another over the whole input (rung-major): a rung
// that followed another over the same few probes would find their cache
// lines already hot. Every rung first runs once untimed (fresh mappings,
// caches and TLBs warm up), then once timed, one span per block under a
// "ladder.rung" span.

namespace {

/// Runs `body(b)` for every block b; returns each block's duration (ns).
template <typename Body>
std::vector<double> TimeRung(Tracer& tr, int32_t root, const char* name,
                             size_t blocks, Body&& body) {
  std::vector<double> ns;
  const int32_t rung = tr.Begin("ladder.rung", root, 0);
  for (size_t b = 0; b < blocks; ++b) {
    const uint64_t t0 = NowNs();
    body(b);
    const uint64_t t1 = NowNs();
    tr.Record(name, rung, b, t0, t1);
    ns.push_back(static_cast<double>(t1 - t0));
  }
  tr.End(rung);
  return ns;
}

/// Median of per-block durations divided by `per_block` items.
double PerItem(const std::vector<double>& ns, double per_block) {
  return Median(ns) / per_block;
}

}  // namespace

void PointLadder(LadderCtx& c, std::span<const uint64_t> probes) {
  std::vector<uint64_t> kept;
  for (uint64_t p : probes) {
    if (c.views.neats[c.views.Route(p)] != nullptr) kept.push_back(p);
  }
  const size_t blocks = kept.size() / kPointBlock;
  kept.resize(blocks * kPointBlock);
  std::vector<size_t> shard(kept.size());
  std::vector<uint64_t> local(kept.size());
  for (size_t j = 0; j < kept.size(); ++j) {
    shard[j] = c.views.Route(kept[j]);
    local[j] = kept[j] - c.views.first[shard[j]];
  }
  std::vector<int64_t> got(kept.size());
  neats::net::Client client = neats::net::Client::Connect("127.0.0.1", c.port);
  uint64_t sink = 0;
  std::vector<double> ef, core, store, store_nm, net;
  // Adapts a per-probe body into a per-block one.
  auto each = [](auto f) {
    return [f](size_t b) mutable {
      for (size_t j = b * kPointBlock; j < (b + 1) * kPointBlock; ++j) f(j);
    };
  };
  Tracer cold(false);
  for (int pass = 0; pass < 2; ++pass) {
    Tracer& tr = pass == 0 ? cold : c.tracer;
    ef = TimeRung(tr, c.root, "succinct.ef_predecessor", blocks, each([&](size_t j) {
      const auto [f, start] = c.views.starts[shard[j]].Predecessor(local[j]);
      sink += f + start;
    }));
    core = TimeRung(tr, c.root, "core.access", blocks, each([&](size_t j) {
      got[j] = c.views.neats[shard[j]]->Access(local[j]);
    }));
    Verify(c.out, got, kept, c.truth, "core.access");
    store = TimeRung(tr, c.root, "store.access", blocks, each([&](size_t j) {
      got[j] = c.store.Access(kept[j]);
    }));
    Verify(c.out, got, kept, c.truth, "store.access");
    store_nm = TimeRung(tr, c.root, "store.access.nometrics", blocks,
                        each([&](size_t j) { got[j] = c.store_nm.Access(kept[j]); }));
    Verify(c.out, got, kept, c.truth, "store.access.nometrics");
  }
  net = TimeRung(c.tracer, c.root, "net.access.serial", blocks, each([&](size_t j) {
    got[j] = client.Access(kept[j]);
  }));
  c.out.attempted += kept.size();
  Verify(c.out, got, kept, c.truth, "net.access.serial");
  g_sink = g_sink + sink;
  const double n = kPointBlock;
  auto& m = c.out.layer;
  m["succinct.ef_predecessor_ns"] = PerItem(ef, n);
  m["core.access_ns"] = PerItem(core, n);
  m["store.access_ns"] = PerItem(store, n);
  m["obs.access_overhead_ratio"] =
      Median(store_nm) > 0 ? Median(store) / Median(store_nm) : 0;
  m["self.core.access_ns"] = PerItem(core, n) - PerItem(ef, n);
  m["self.store.access_ns"] = PerItem(store_nm, n) - PerItem(core, n);
  m["self.obs.access_ns"] = PerItem(store, n) - PerItem(store_nm, n);
  m["self.net.access_us"] = (PerItem(net, n) - PerItem(store, n)) / 1e3;
}

void BatchLadder(LadderCtx& c,
                 const std::vector<std::vector<uint64_t>>& batches) {
  // Per batch: the probes (NeaTS shards only), and — since sorting and
  // per-shard grouping are the store's work — their sorted shard-local
  // form, which the core and succinct rungs start from.
  struct Prepared {
    std::vector<uint64_t> probes, sorted, local;
    std::vector<std::pair<size_t, size_t>> groups;  // (shard, begin)
    std::vector<int64_t> got;
    size_t GroupEnd(size_t g) const {
      return g + 1 < groups.size() ? groups[g + 1].second : sorted.size();
    }
  };
  std::vector<Prepared> prep;
  for (const std::vector<uint64_t>& batch : batches) {
    Prepared p;
    for (uint64_t i : batch) {
      if (c.views.neats[c.views.Route(i)] != nullptr) p.probes.push_back(i);
    }
    if (p.probes.empty()) continue;
    p.sorted = p.probes;
    std::sort(p.sorted.begin(), p.sorted.end());
    for (uint64_t i : p.sorted) {
      const size_t s = c.views.Route(i);
      if (p.groups.empty() || p.groups.back().first != s) {
        p.groups.push_back({s, p.local.size()});
      }
      p.local.push_back(i - c.views.first[s]);
    }
    p.got.resize(p.probes.size());
    prep.push_back(std::move(p));
  }
  if (prep.empty()) return;
  const double per = static_cast<double>(prep[0].probes.size());
  uint64_t sink = 0;
  std::vector<double> scanner, core, store;
  Tracer cold(false);
  for (int pass = 0; pass < 2; ++pass) {
    Tracer& tr = pass == 0 ? cold : c.tracer;
    scanner = TimeRung(tr, c.root, "succinct.ef_scanner", prep.size(), [&](size_t b) {
      const Prepared& p = prep[b];
      for (size_t g = 0; g < p.groups.size(); ++g) {
        neats::EliasFano::PredecessorScanner sc(c.views.starts[p.groups[g].first]);
        for (size_t j = p.groups[g].second; j < p.GroupEnd(g); ++j) {
          sink += sc.Next(p.local[j]).first;
        }
      }
    });
    core = TimeRung(tr, c.root, "core.access_batch", prep.size(), [&](size_t b) {
      Prepared& p = prep[b];
      for (size_t g = 0; g < p.groups.size(); ++g) {
        const size_t at = p.groups[g].second;
        c.views.neats[p.groups[g].first]->AccessBatch(
            std::span<const uint64_t>(p.local.data() + at, p.GroupEnd(g) - at),
            p.got.data() + at);
      }
    });
    for (const Prepared& p : prep) Verify(c.out, p.got, p.sorted, c.truth, "core.access_batch");
    store = TimeRung(tr, c.root, "store.access_batch", prep.size(), [&](size_t b) {
      c.store.AccessBatch(prep[b].probes, prep[b].got);
    });
    for (const Prepared& p : prep) Verify(c.out, p.got, p.probes, c.truth, "store.access_batch");
  }
  g_sink = g_sink + sink;
  auto& m = c.out.layer;
  m["succinct.ef_scanner_ns_per_probe"] = PerItem(scanner, per);
  m["core.access_batch_ns_per_probe"] = PerItem(core, per);
  m["store.access_batch_ns_per_probe"] = PerItem(store, per);
  m["self.core.access_batch_ns_per_probe"] =
      PerItem(core, per) - PerItem(scanner, per);
  m["self.store.access_batch_ns_per_probe"] =
      PerItem(store, per) - PerItem(core, per);
}

void RangeLadder(LadderCtx& c, std::span<const IndexRange> ranges,
                 std::span<const IndexRange> sums,
                 const std::vector<int64_t>& prefix) {
  const ShardViews& v = c.views;
  // [from, from + len) split at shard boundaries: (shard, local, take).
  using Pieces = std::vector<std::tuple<size_t, uint64_t, uint64_t>>;
  auto pieces = [&](const IndexRange& r, Pieces* out) {
    uint64_t at = r.from, left = r.len;
    while (left > 0) {
      const size_t s = v.Route(at);
      if (v.neats[s] == nullptr) return false;
      const uint64_t local = at - v.first[s];
      const uint64_t take = std::min(left, v.count[s] - local);
      out->emplace_back(s, local, take);
      at += take;
      left -= take;
    }
    return true;
  };
  std::vector<IndexRange> rs, ss;
  std::vector<Pieces> rp, sp;
  for (const IndexRange& r : ranges) {
    Pieces p;
    if (pieces(r, &p)) {
      rs.push_back(r);
      rp.push_back(std::move(p));
    }
  }
  for (const IndexRange& r : sums) {
    Pieces p;
    if (pieces(r, &p)) {
      ss.push_back(r);
      sp.push_back(std::move(p));
    }
  }
  if (rs.empty() || ss.empty()) return;
  std::vector<std::vector<int64_t>> got(rs.size());
  for (size_t b = 0; b < rs.size(); ++b) got[b].resize(rs[b].len);
  std::vector<int64_t> sum_got(ss.size());
  auto check_ranges = [&](const char* rung) {
    for (size_t b = 0; b < rs.size(); ++b) {
      VerifyRange(c.out, got[b].data(), rs[b], c.truth, rung);
    }
  };
  auto check_sums = [&](const char* rung) {
    for (size_t b = 0; b < ss.size(); ++b) {
      if (sum_got[b] != prefix[ss[b].from + ss[b].len] - prefix[ss[b].from]) {
        ++c.out.wrong;
        ++c.out.failed;
        c.out.Line(std::string("WRONG ladder answer on ") + rung +
                   " at range " + std::to_string(ss[b].from));
        return;
      }
    }
  };
  std::vector<double> core_range, store_range, core_sum, store_sum;
  Tracer cold(false);
  for (int pass = 0; pass < 2; ++pass) {
    Tracer& tr = pass == 0 ? cold : c.tracer;
    core_range = TimeRung(tr, c.root, "core.range", rs.size(), [&](size_t b) {
      int64_t* out = got[b].data();
      for (const auto& [s, local, take] : rp[b]) {
        v.neats[s]->DecompressRange(local, take, out);
        out += take;
      }
    });
    check_ranges("core.range");
    store_range = TimeRung(tr, c.root, "store.range", rs.size(), [&](size_t b) {
      c.store.DecompressRange(rs[b].from, rs[b].len, got[b].data());
    });
    check_ranges("store.range");
    core_sum = TimeRung(tr, c.root, "core.range_sum", ss.size(), [&](size_t b) {
      int64_t sum = 0;
      for (const auto& [s, local, take] : sp[b]) {
        sum += v.neats[s]->RangeSum(local, take);
      }
      sum_got[b] = sum;
    });
    check_sums("core.range_sum");
    store_sum = TimeRung(tr, c.root, "store.range_sum", ss.size(), [&](size_t b) {
      sum_got[b] = c.store.RangeSum(ss[b].from, ss[b].len);
    });
    check_sums("store.range_sum");
  }
  const double rl = static_cast<double>(rs[0].len);
  const double sl = static_cast<double>(ss[0].len);
  auto& m = c.out.layer;
  m["core.range_ns_per_value"] = PerItem(core_range, rl);
  m["store.range_ns_per_value"] = PerItem(store_range, rl);
  m["core.range_sum_ns_per_value"] = PerItem(core_sum, sl);
  m["store.range_sum_ns_per_value"] = PerItem(store_sum, sl);
  m["self.store.range_ns_per_value"] =
      PerItem(store_range, rl) - PerItem(core_range, rl);
  m["self.store.range_sum_ns_per_value"] =
      PerItem(store_sum, sl) - PerItem(core_sum, sl);
}

void CompressLadder(RunResult& out, Tracer& tracer, int32_t root,
                    const std::vector<std::span<const int64_t>>& chunks) {
  double partition = 0, compress = 0;
  std::vector<double> codec_ms(neats::kNumCodecIds, 0);
  const neats::NeatsOptions options;
  for (size_t k = 0; k < chunks.size(); ++k) {
    const std::span<const int64_t> chunk = chunks[k];
    // Neats::Compress partitions the series shifted to positive values
    // (log-domain kinds need y > 0); the partition rung does the same.
    const int64_t lo = *std::min_element(chunk.begin(), chunk.end());
    std::vector<int64_t> shifted(chunk.begin(), chunk.end());
    if (lo < 1) {
      for (int64_t& y : shifted) y += 1 - lo;
    }
    const int32_t step = tracer.Begin("ladder.chunk", root, k);
    size_t fragments = 0;
    partition += Rung(tracer, "core.partition", step, k, [&] {
      fragments = neats::PartitionLossless(shifted).size();
    }) / 1e6;
    compress += Rung(tracer, "core.compress", step, k, [&] {
      fragments += neats::Neats::Compress(chunk, options).num_fragments();
    }) / 1e6;
    g_sink = g_sink + fragments;
    for (CodecId id : neats::CodecRegistry::All()) {
      std::vector<uint8_t> blob;
      codec_ms[static_cast<size_t>(id)] +=
          Rung(tracer, kCompressSpans[static_cast<size_t>(id)], step, k, [&] {
            neats::CodecRegistry::Compress(id, chunk, options)->Serialize(&blob);
          }) / 1e6;
      g_sink = g_sink + blob.size();
    }
    tracer.End(step);
  }
  const double n = static_cast<double>(chunks.size());
  out.layer["core.partition_ms_per_shard"] = partition / n;
  out.layer["core.compress_ms_per_shard"] = compress / n;
  for (uint32_t id = 0; id < neats::kNumCodecIds; ++id) {
    out.layer[std::string("codecs.compress_ms_per_shard.") + kCodecNames[id]] =
        codec_ms[id] / n;
  }
}

double FsyncUs(const std::string& dir) {
  neats::io::FileSystem& fs = neats::io::PosixFileSystem();
  // One WAL record of a 1024-value Append: 8 KiB of values plus framing.
  const std::vector<uint8_t> record(1024 * 8 + 64, 0x5A);
  const std::string path = dir + "/fsync-probe.tmp";
  std::vector<uint64_t> us;
  for (int rep = 0; rep < 32; ++rep) {
    std::unique_ptr<neats::io::WritableFile> f = fs.Create(path);
    f->Write(record);
    const uint64_t t0 = NowNs();
    f->Sync();
    us.push_back(NowNs() - t0);
    f->Close();
  }
  fs.Remove(path);
  return Median(us) / 1e3;
}

double PingP50Us(uint16_t port) {
  neats::net::Client client = neats::net::Client::Connect("127.0.0.1", port);
  std::vector<uint64_t> ns;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t t0 = NowNs();
    client.Ping();
    ns.push_back(NowNs() - t0);
  }
  return Median(ns) / 1e3;
}

double FrameRoundtripNs() {
  using namespace neats::net;
  std::vector<uint8_t> payload;
  PayloadWriter(&payload).U64(123456789);
  std::vector<uint8_t> frame;
  std::vector<double> reps;
  constexpr int kIters = 20000;
  for (int rep = 0; rep < 16; ++rep) {
    uint64_t ok = 0;
    const uint64_t t0 = NowNs();
    for (int i = 0; i < kIters; ++i) {
      frame.clear();
      AppendFrame(&frame, Opcode::kAccess, 0, static_cast<uint64_t>(i),
                  payload);
      FrameHeader h;
      const std::span<const uint8_t> bytes(frame);
      ok += DecodeFrameHeader(bytes, &h) &&
            VerifyFrameCrc(bytes.first(kFrameHeaderBytes),
                           bytes.subspan(kFrameHeaderBytes));
    }
    reps.push_back(static_cast<double>(NowNs() - t0) / kIters);
    NEATS_REQUIRE(ok == kIters, "frame round trip failed");
  }
  return Median(reps);
}

double ServerOpP50Us(const neats::obs::MetricsSnapshot& snap,
                     const std::string& op) {
  const neats::obs::LatencyHistogram* h = snap.histogram("op." + op);
  return h == nullptr ? 0 : static_cast<double>(h->p50()) / 1e3;
}

double Counter(const neats::obs::MetricsSnapshot& snap,
               const std::string& name) {
  const uint64_t* v = snap.counter(name);
  return v == nullptr ? 0 : static_cast<double>(*v);
}

}  // namespace perfbench
