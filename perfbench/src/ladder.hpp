// The traced run's ladder: the workload's own seeded probes, ranges and
// chunks replayed through each layer's public calls in turn (succinct ->
// core -> store -> net), one span per rung per step, so each layer's self
// time is its rung minus the rung below on identical inputs.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/neats.hpp"
#include "io/fs.hpp"
#include "obs/metrics.hpp"
#include "store/neats_store.hpp"
#include "succinct/elias_fano.hpp"

namespace perfbench {

/// A flushed store directory opened shard by shard, outside the store:
/// the manifest's routing rows, and for NeaTS shards a zero-copy view of
/// the blob plus an Elias-Fano index over its fragment starts.
struct ShardViews {
  std::vector<uint64_t> first, count;
  std::vector<neats::CodecId> codec;
  std::vector<neats::io::MappedRegion> maps;
  std::vector<std::unique_ptr<neats::Neats>> neats;  // null: other codec
  std::vector<neats::EliasFano> starts;
  uint64_t blob_bytes = 0;  // stored payload bytes over every shard

  static ShardViews Open(const std::string& dir);
  size_t Route(uint64_t i) const;
  uint64_t size() const { return first.empty() ? 0 : first.back() + count.back(); }
  double BitsPerValue() const;
  /// Mean fragment count over the NeaTS shards (0 when there are none).
  double FragmentsPerShard() const;
  size_t CountCodec(neats::CodecId id) const;
};

/// What every ladder step needs: the run's result sheet, its tracer (the
/// ladder only runs traced) and the span steps hang under.
struct LadderCtx {
  RunResult& out;
  Tracer& tracer;
  int32_t root;
  const std::vector<int64_t>& truth;
  const ShardViews& views;
  const neats::NeatsStore& store;     // metrics on (as the server serves)
  const neats::NeatsStore& store_nm;  // the same directory, metrics off
  uint16_t port;
};

/// Scalar point rungs over `probes` (blocks of 256): EF predecessor, codec
/// Access, store Access with and without metrics, serial client Access.
/// Probes routed to non-NeaTS shards are skipped on every rung.
void PointLadder(LadderCtx& c, std::span<const uint64_t> probes);

/// Batch rungs over each batch: EF PredecessorScanner and sorted codec
/// AccessBatch per shard, then the store's unsorted AccessBatch.
void BatchLadder(LadderCtx& c,
                 const std::vector<std::vector<uint64_t>>& batches);

/// Range rungs: codec DecompressRange / RangeSum per covered shard against
/// the store's DecompressRange / RangeSum (with fan-out).
void RangeLadder(LadderCtx& c, std::span<const neats::IndexRange> ranges,
                 std::span<const neats::IndexRange> sums,
                 const std::vector<int64_t>& prefix);

/// Partition / NeaTS compress / every codec's compress+serialize on each
/// chunk (ms per chunk, mean over the chunks).
void CompressLadder(RunResult& out, Tracer& tracer, int32_t root,
                    const std::vector<std::span<const int64_t>>& chunks);

/// Median fsync latency (us) of a WAL-record-sized write through the
/// io::FileSystem seam, in `dir`.
double FsyncUs(const std::string& dir);

/// Median round trip (us) of Client::Ping on a fresh connection.
double PingP50Us(uint16_t port);

/// ns to frame, decode and CRC-check one access request.
double FrameRoundtripNs();

/// Server-side op histogram median in us (0 when the op never ran).
double ServerOpP50Us(const neats::obs::MetricsSnapshot& snap,
                     const std::string& op);
double Counter(const neats::obs::MetricsSnapshot& snap,
               const std::string& name);

}  // namespace perfbench
