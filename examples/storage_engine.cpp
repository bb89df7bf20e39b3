// A miniature time-series storage engine built on the public facade
// (neats/neats.hpp) and the serving layer underneath it, the deployment
// pattern of Sec. IV-C1 grown into a subsystem: values stream into a
// write-ahead hot tail, full chunks seal into compressed shards in the
// background (thread pool) — under the `auto` seal policy each chunk is
// compressed with every candidate codec and the smallest blob wins, so one
// store mixes codecs per shard — Flush() persists one blob per shard plus a
// manifest (v2, with per-shard codec ids), and OpenStoreDir() serves the
// whole store zero-copy (where the codec supports it) through mmap: point,
// batch, multi-range and (approximate) aggregate queries all route through
// one sharded index, whatever codec holds each shard. The final act is a
// durability drill on the deterministic fault-injection filesystem: a
// power cut mid-flush on a disk whose fsync lies, a degraded reopen that
// quarantines the damaged shard while the rest keep serving, and a
// Scrub() that repairs it from the write-ahead log.
//
//   $ ./build/example_storage_engine

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "datasets/generators.hpp"
#include "io/fault_fs.hpp"
#include "neats/neats.hpp"

namespace {

// The drill's store geometry: small shards, inline seals (so a mid-seal
// crash unwinds on the appending thread), one fixed codec.
neats::NeatsStoreOptions DrillOptions(neats::io::FaultFs* fs) {
  neats::NeatsStoreOptions options;
  options.shard_size = 512;
  options.seal_threads = 1;
  options.codec = neats::CodecId::kGorilla;
  options.fs = fs;
  return options;
}

// Create "drill" on `fs`, append `values` (WAL-acked), and Flush.
void DrillIngest(neats::io::FaultFs& fs, const std::vector<int64_t>& values) {
  neats::NeatsStore store =
      neats::NeatsStore::CreateDir("drill", DrillOptions(&fs));
  store.Append(values);
  store.Flush();
}

}  // namespace

int main() {
  const size_t kShardLen = 50000;
  const size_t kShards = 6;
  neats::Dataset ds = neats::MakeDataset("AP", kShardLen * (kShards - 1));
  // Give the last shard a regime NeaTS is the wrong tool for — short runs
  // of repeated random levels, where an XOR codec pays one bit per repeat —
  // so the auto seal policy below has a real choice to make. At 24 values
  // per level Gorilla's blob is ~25% smaller than NeaTS's; by 40 the two
  // are within 1%.
  {
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    std::int64_t level = 0;
    for (size_t i = 0; i < kShardLen; ++i) {
      if (i % 24 == 0) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        level = static_cast<std::int64_t>(state >> 16);
      }
      ds.values.push_back(level);
    }
  }
  const double raw_mb =
      static_cast<double>(ds.values.size()) * 8.0 / (1024.0 * 1024.0);

  // A throwaway store directory (timestamp-suffixed so concurrent runs in
  // the shared temp dir cannot collide); removed before exit.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("neats_store_" +
        std::to_string(static_cast<unsigned long long>(
            std::chrono::steady_clock::now().time_since_epoch().count()))))
          .string();

  bool ok = true;
  {
    // --- Ingestion: ragged appends, background sealing, auto codec. ---
    neats::NeatsStoreOptions options;
    options.shard_size = kShardLen;
    options.seal_threads = 0;  // one sealer per hardware thread
    options.seal_policy = neats::SealPolicy::kAuto;
    options.codec_candidates = {neats::CodecId::kNeats,
                                neats::CodecId::kLeco,
                                neats::CodecId::kGorilla};
    neats::Result<neats::NeatsStore> created =
        neats::CreateStoreDir(dir, options);
    if (!created.ok()) {
      std::fprintf(stderr, "create failed: %s\n",
                   created.status().message().c_str());
      return 1;
    }
    neats::NeatsStore store = std::move(created.value());

    neats::Timer timer;
    size_t at = 0;
    const size_t slices[] = {9973, 20011, 4999, 35117};  // ragged ingest
    size_t slice = 0;
    while (at < ds.values.size()) {
      size_t n = std::min(slices[slice++ % 4], ds.values.size() - at);
      store.Append({ds.values.data() + at, n});
      at += n;
    }
    std::printf(
        "appended %zu points in %.3f s (%.2f MB/s); "
        "%zu shards sealed, %zu sealing, %llu in the hot tail\n",
        ds.values.size(), timer.ElapsedSeconds(),
        raw_mb / timer.ElapsedSeconds(), store.num_shards(),
        store.num_pending_seals(),
        static_cast<unsigned long long>(store.tail_size()));

    // Queries are served while seals are still in flight: sealed shards
    // from the compressed form, everything else from the raw chunks.
    for (size_t probe : {size_t{123}, kShardLen + 999, kShardLen * kShards - 5}) {
      ok &= store.Access(probe) == ds.values[probe];
    }
    std::printf("mid-ingest point queries: %s\n", ok ? "ok" : "MISMATCH");

    // --- Flush: seal the tail, write blobs + manifest. ---
    timer.Reset();
    store.Flush();
    std::printf("flushed to %s in %.3f s: %zu shards, %.2f%% of raw\n",
                dir.c_str(), timer.ElapsedSeconds(), store.num_shards(),
                100.0 * static_cast<double>(store.SizeInBits()) /
                    (64.0 * static_cast<double>(ds.values.size())));
  }

  // --- Reopen (zero-copy where the shard codec supports it) and serve
  // every query shape through the Status-returning facade path. ---
  neats::Result<neats::NeatsStore> reopened = neats::OpenStoreDir(dir);
  if (!reopened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 reopened.status().message().c_str());
    return 1;
  }
  neats::NeatsStore store = std::move(reopened.value());
  ok &= store.size() == ds.values.size();
  ok &= store.num_shards() == kShards;

  // The auto policy's per-shard choices (recorded in the manifest).
  std::printf("per-shard codecs:");
  bool mixed = false;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    std::printf(" %s", neats::CodecName(store.shard_codec(s)));
    mixed |= store.shard_codec(s) != store.shard_codec(0);
  }
  std::printf("%s\n", mixed ? "  (mixed-codec store)" : "");
  ok &= mixed;

  // Point queries across shard boundaries.
  for (size_t probe : {size_t{0}, kShardLen - 1, kShardLen,
                       kShardLen * 3 + 17, kShardLen * kShards - 1}) {
    ok &= store.Access(probe) == ds.values[probe];
  }

  // Batched access: unsorted, duplicated, cross-shard probes in one call.
  std::vector<uint64_t> probes;
  for (size_t j = 0; j < 4096; ++j) {
    probes.push_back((j * 2654435761u) % ds.values.size());
  }
  probes.push_back(probes[0]);  // duplicate
  std::vector<int64_t> got(probes.size());
  neats::Timer timer;
  store.AccessBatch(probes, got);
  double batch_s = timer.ElapsedSeconds();
  for (size_t j = 0; j < probes.size(); ++j) {
    ok &= got[j] == ds.values[probes[j]];
  }
  std::printf("batch of %zu probes: %.0f ns/probe, %s\n", probes.size(),
              1e9 * batch_s / static_cast<double>(probes.size()),
              ok ? "ok" : "MISMATCH");

  // Multi-range decompression straddling a shard boundary.
  neats::IndexRange ranges[] = {{kShardLen - 100, 200},
                                {kShardLen * 4 - 50, 150},
                                {10, 25}};
  size_t total_len = 0;
  for (const auto& r : ranges) total_len += r.len;
  std::vector<int64_t> window(total_len);
  store.DecompressRanges(ranges, window.data());
  size_t off = 0;
  for (const auto& r : ranges) {
    for (uint64_t j = 0; j < r.len; ++j) {
      ok &= window[off + j] == ds.values[r.from + j];
    }
    off += r.len;
  }
  std::printf("multi-range decompression (3 ranges, 2 shard-spanning): %s\n",
              ok ? "ok" : "MISMATCH");

  // Exact vs approximate aggregates over a boundary-spanning window.
  const uint64_t from = kShardLen * 2 - 5000, len = 10000;
  int64_t exact = store.RangeSum(from, len);
  auto approx = store.ApproximateRangeSum(from, len);
  ok &= std::abs(approx.value - static_cast<double>(exact)) <=
        approx.error_bound + 1e-6;
  std::printf("range sum [%llu, +%llu): exact %lld, approx %.0f (±%.0f)\n",
              static_cast<unsigned long long>(from),
              static_cast<unsigned long long>(len),
              static_cast<long long>(exact), approx.value,
              approx.error_bound);

  // Full integrity sweep over the mmap-served store.
  for (size_t k = 0; k < ds.values.size(); k += 97) {
    ok &= store.Access(k) == ds.values[k];
  }
  std::printf("zero-copy integrity sweep: %s\n", ok ? "ok" : "MISMATCH");

  // Append after reopen: the store keeps growing across sessions.
  store.Append({ds.values.data(), 1000});
  if (neats::Status flushed = neats::FlushStore(store); !flushed.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", flushed.message().c_str());
    return 1;
  }
  ok &= store.size() == ds.values.size() + 1000;
  ok &= store.Access(ds.values.size() + 123) == ds.values[123];
  std::printf("append-after-reopen (+1000 values, re-flushed): %s\n",
              ok ? "ok" : "MISMATCH");

  // --- Durability drill: power cut + lying fsync, degraded reopen,
  // Scrub() repair — on the fault-injection filesystem, so the "disk" and
  // the crash are deterministic and nothing real is harmed. ---
  std::vector<int64_t> drill(ds.values.begin(), ds.values.begin() + 1536);

  // Pass 0 on a throwaway FaultFs: trace a clean run to find the op where
  // Flush() truncates the WAL (the first op after the manifest's directory
  // sync) — the worst possible moment for the power to go out.
  uint64_t reset_op = 0;
  {
    neats::io::FaultFs probe({.seed = 7});
    DrillIngest(probe, drill);
    for (const auto& entry : probe.trace()) {
      if (entry.kind == neats::io::FaultFs::OpKind::kSyncDir) {
        reset_op = entry.index + 1;
      }
    }
  }

  neats::io::FaultFs fs({.seed = 7});
  fs.LieOnSyncPath(neats::StoreManifest::ShardFileName(0));  // fsync that lies
  fs.KillAtOp(reset_op);  // power cut after the manifest commit
  bool crashed = false;
  try {
    DrillIngest(fs, drill);
  } catch (const neats::io::CrashFault&) {
    crashed = true;  // the "process" died mid-Flush
  }
  ok &= crashed;
  fs.Crash();  // everything the lying fsync never persisted is gone
  {
    // The seeded tear may keep the whole blob by luck; make the cut real.
    const std::string shard0 = "drill/" + neats::StoreManifest::ShardFileName(0);
    std::vector<uint8_t> torn = fs.ReadRaw(shard0);
    torn.resize(torn.size() / 2);
    fs.SetRaw(shard0, std::move(torn));
  }

  // Reopen: the damaged shard is quarantined, not fatal — the store comes
  // up degraded and keeps serving everything else.
  neats::Result<neats::NeatsStore> recovered =
      neats::OpenStoreDir("drill", DrillOptions(&fs));
  if (!recovered.ok()) {
    std::fprintf(stderr, "degraded open failed: %s\n",
                 recovered.status().message().c_str());
    return 1;
  }
  neats::NeatsStore hurt = std::move(recovered.value());
  ok &= hurt.degraded();
  ok &= hurt.recovery_report().quarantined.size() == 1;
  std::printf("post-crash reopen: degraded, shard %zu quarantined (%s)\n",
              hurt.recovery_report().quarantined[0].shard,
              hurt.recovery_report().quarantined[0].error.c_str());

  // A query into the quarantined range fails with a typed, catchable
  // status; healthy shards still serve bit-identical values.
  neats::Result<int64_t> blocked =
      neats::Checked([&] { return hurt.Access(5); });
  ok &= !blocked.ok() &&
        blocked.status().code() == neats::StatusCode::kUnavailable;
  for (size_t k = 512; k < drill.size(); k += 37) {
    ok &= hurt.Access(k) == drill[k];
  }
  std::printf("degraded serving: quarantined range -> kUnavailable, "
              "healthy shards %s\n", ok ? "ok" : "MISMATCH");

  // Scrub: the WAL still covers the damaged shard (the crash landed before
  // the WAL reset), so the repair recompresses it and clears quarantine.
  neats::Status scrubbed = neats::ScrubStore(hurt);
  ok &= scrubbed.ok() && !hurt.degraded();
  for (size_t k = 0; k < drill.size(); k += 37) {
    ok &= hurt.Access(k) == drill[k];
  }
  std::printf("Scrub(): shard repaired from the WAL, full store %s\n",
              ok ? "ok" : "MISMATCH");

  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
