// The NeaTS lossless compressor (paper, Sec. III-C).
//
// Compressed layout (format v5) — the tuple ⟨S, B, O, C, K, P⟩ of the paper,
// plus a per-fragment displacement D introduced by this implementation:
//
//   S  fragment start positions, Elias-Fano coded (O(1) access and, through
//      its load-time bucket index, O(1) predecessor).
//   C  the corrections themselves, bit-packed back to back.
//   P  per-kind concatenation of the function parameters.
//   the fragment directory (src/succinct/fragment_directory.hpp): one
//      bit-packed record per fragment holding its correction width B[i],
//      correction offset O[i] into C, dense kind id K[i], displacement
//      D[i] = start - origin (non-zero only for fragments born as suffix
//      edges, whose parameters keep the original fit origin), and the
//      offset of its parameters in its kind's P array.
//
// The directory is the only copy of B/O/K/D. Queries resolve the fragment
// with one Elias-Fano predecessor lookup on S and then read a single directory
// record instead of probing four separate structures. Because queries read
// the records unchecked, the loader validates every record against S, C and
// P in one O(m) walk (ValidateDirectory).
//
// Full decompression is Algorithm 2; random access is Algorithm 3; range
// decompression combines one random access with a forward scan.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/touch_probe.hpp"
#include "core/partitioner.hpp"
#include "functions/approximator.hpp"
#include "functions/decode_lanes.hpp"
#include "functions/kinds.hpp"
#include "succinct/bit_stream.hpp"
#include "succinct/elias_fano.hpp"
#include "succinct/fragment_directory.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// Compression options for Neats::Compress.
struct NeatsOptions {
  PartitionOptions partition;
};

/// A half-open index range [from, from + len) of the decompressed series —
/// the unit of the multi-range query APIs (Neats::DecompressRanges and the
/// store layer's batch surface).
struct IndexRange {
  uint64_t from = 0;
  uint64_t len = 0;
};

/// A lossless, randomly-accessible compressed representation of an integer
/// time series.
class Neats {
 public:
  Neats() = default;

  /// Compresses `values`. Values must lie within ±2^61 (see kMaxAbsValue).
  static Neats Compress(std::span<const int64_t> values,
                        const NeatsOptions& options = {}) {
    return CompressImpl(ShiftView(values), options.partition);
  }

  /// SNeaTS (paper, Sec. IV-C1): runs the partitioner on the first
  /// `sample_fraction` of the series (at least 1000 values), ranks the
  /// (kind, eps) pairs by the values their fragments cover, and compresses
  /// the whole series over the cross product of the kinds and the epsilons
  /// of the `top_pairs` best-ranked pairs (not over those pairs alone).
  /// Ties in the ranking fall to the smaller (kind id, eps), so the output
  /// is a pure function of `values` and the arguments. A series shorter
  /// than twice its sample skips it and runs the full search, since the
  /// sample run would cost more than it saves. `sample_fraction` must lie
  /// in [0, 1].
  static Neats CompressWithModelSelection(std::span<const int64_t> values,
                                          const NeatsOptions& options = {},
                                          double sample_fraction = 0.1,
                                          size_t top_pairs = 5);

  /// Number of values.
  uint64_t size() const { return n_; }

  /// Number of fragments in the partition.
  size_t num_fragments() const { return m_; }

  /// Algorithm 3: the value at index k, in O(rank) time. The fragment index
  /// and its start position come out of one fused Elias-Fano predecessor
  /// lookup; everything else the decode needs — kind, parameter offset,
  /// displacement, correction width and correction offset — is a single
  /// directory record, so the metadata resolution costs one extra cache line.
  int64_t Access(uint64_t k) const {
    NEATS_DCHECK(k < n_);
    auto [i, start] = starts_.Predecessor(k);
    return DecodeAt(i, start, k);
  }

  /// Batched Algorithm 3: decodes the values at positions `idx` — which must
  /// be non-decreasing (duplicates allowed; callers with unsorted probes sort
  /// first, as NeatsStore::AccessBatch does) — into out[0..idx.size()).
  /// Consecutive probes covered by the same fragment decode from one cached
  /// state: the fragment is resolved by the Elias-Fano PredecessorScanner
  /// (the O(1) bucket-index predecessor, as scalar Access pays) and its
  /// directory record is read once per fragment run, so the per-probe cost
  /// of a dense sorted batch approaches the lookup + predict + correction
  /// read alone. Unlike the cursor path, the fragment *end* is never
  /// computed — a change of predecessor index marks a probe crossing into
  /// the next fragment, saving the extra select per fragment that sparse
  /// batches would otherwise pay over scalar Access.
  void AccessBatch(std::span<const uint64_t> idx, int64_t* out) const {
    FragState st;
    size_t cur = SIZE_MAX;
    EliasFano::PredecessorScanner scanner(starts_);
    for (size_t p = 0; p < idx.size(); ++p) {
      NEATS_DCHECK(idx[p] < n_ && (p == 0 || idx[p - 1] <= idx[p]));
      auto [i, start] = scanner.Next(idx[p]);
      if (i != cur) {
        st = LoadFragmentState(i, start);
        cur = i;
      }
      out[p] = DecodeFragValue(st, idx[p]);
    }
  }

  /// Multi-range decompression: concatenates the values of every range into
  /// `out` (sized to the sum of the lengths), sharing one cursor across the
  /// whole batch — consecutive ranges that land in nearby fragments reuse
  /// the cached decode state through the cursor's monotone-seek hop chain
  /// instead of paying a fresh rank per range.
  void DecompressRanges(std::span<const IndexRange> ranges, int64_t* out) const;

  /// Sequential-access cursor over the decompressed values; see the class
  /// definition below. Iteration and monotone seeks skip the per-call
  /// FragmentIndexOf rank that Access pays.
  class Cursor;

  /// Algorithm 2: appends all n values to `out` (cleared first).
  void Decompress(std::vector<int64_t>* out) const {
    out->resize(n_);
    DecompressRange(0, n_, out->data());
  }

  /// Decompresses values[k, k + len) into out (one cursor seek + scan).
  void DecompressRange(uint64_t k, uint64_t len, int64_t* out) const;

  /// Total size of the compressed representation in bits — exactly the
  /// serialized size (8 * Serialize output bytes), kept in lockstep with the
  /// writer so benches and the CLI report what lands on disk.
  size_t SizeInBits() const {
    size_t bits = HeaderSizeInBits() + 64 + corrections_.size() * 64 + 64;
    for (const auto& p : params_) bits += 64 + p.size() * 64;
    if (m_ > 0) bits += starts_.SizeInBits();
    return bits + directory_.SizeInBitsAt(bits);
  }

  /// Result of an approximate aggregate: the estimate plus a hard bound on
  /// its distance from the exact answer.
  struct ApproximateAggregate {
    double value;
    double error_bound;
  };

  /// Approximate sum over values[from, from+len) computed from the learned
  /// functions alone — the corrections (and hence most of the compressed
  /// payload) are never touched, which is the aggregate-query direction the
  /// paper suggests as future work (Sec. VI). Each skipped correction lies
  /// in [-2^(B[i]-1), 2^(B[i]-1) - 1], so the result is off by at most
  /// len_i * 2^(B[i]-1) per covered fragment; the bound returned is exact.
  ApproximateAggregate ApproximateRangeSum(uint64_t from, uint64_t len) const {
    NEATS_DCHECK(from + len <= n_);
    ApproximateAggregate agg{0.0, 0.0};
    if (len == 0) return agg;
    size_t i = FragmentIndexOf(from);
    uint64_t covered = 0;
    while (covered < len) {
      uint64_t start = FragmentStart(i);
      uint64_t end = FragmentEnd(i);
      uint64_t lo = std::max(from + covered, start);
      uint64_t hi = std::min(from + len, end);
      const FragmentDirectory::Record& rec = directory_[i];
      FunctionKind kind = kind_table_[rec.kind];
      const double* params = params_[rec.kind].data() + rec.param_index;
      uint64_t origin = start - rec.displacement;
      for (uint64_t k = lo; k < hi; ++k) {
        agg.value += static_cast<double>(
            PredictFloor(kind, params, static_cast<int64_t>(k - origin) + 1));
      }
      int bits = rec.correction_bits;
      double max_corr = bits == 0 ? 0.0
                                  : static_cast<double>(uint64_t{1} << (bits - 1));
      agg.error_bound += static_cast<double>(hi - lo) * max_corr;
      covered += hi - lo;
      ++i;
    }
    agg.value -= static_cast<double>(shift_) * static_cast<double>(len);
    return agg;
  }

  /// Exact sum over values[from, from+len), streamed through a cursor in
  /// fixed-size chunks — no O(len) allocation.
  int64_t RangeSum(uint64_t from, uint64_t len) const;

  /// Serializes the compressed representation to bytes in format v5
  /// (docs/FORMAT.md): a flat, 8-byte-aligned little-endian word stream of
  /// header, S, C, P and the fragment directory. Every succinct structure is
  /// stored together with its rank/select directories, so View can open the
  /// blob zero-copy — no deserialization copy.
  void Serialize(std::vector<uint8_t>* out) const {
    out->clear();
    WordWriter w(out);
    w.Put(kMagicV2);
    w.Put(kFormatVersion);
    w.Put(n_);
    w.Put(static_cast<uint64_t>(m_));
    w.Put(static_cast<uint64_t>(shift_));
    w.Put(kind_table_.size());
    for (FunctionKind kind : kind_table_) w.Put(static_cast<uint64_t>(kind));
    if (m_ > 0) starts_.Serialize(w);
    w.PutArray(corrections_);
    w.Put(params_.size());
    for (const auto& p : params_) w.PutArray(p);
    directory_.Serialize(w);
  }

  /// Rebuilds a Neats object from Serialize output, copying the payload into
  /// owned storage. Only format v5 is read: a blob of any other version
  /// throws "unsupported NeaTS format version".
  static Neats Deserialize(std::span<const uint8_t> bytes) {
    return LoadFlat(bytes, /*borrow=*/false);
  }

  /// Opens a blob zero-copy: every payload array, the directory included, is
  /// a span into `bytes`, which must be 8-byte aligned (mmap and heap
  /// buffers both are) and must outlive the returned object and everything
  /// decoded from it. Accepts exactly what Deserialize accepts.
  static Neats View(std::span<const uint8_t> bytes) {
    return LoadFlat(bytes, /*borrow=*/true);
  }

  /// True when this object borrows its payload from an external buffer
  /// (i.e. it was produced by View rather than Compress/Deserialize): the
  /// corrections, every parameter array and the directory all point into
  /// it, so nothing was copied or rebuilt on open.
  bool borrowed() const {
    return corrections_.borrowed() && directory_.borrowed() &&
           std::all_of(params_.begin(), params_.end(),
                       [](const Storage<double>& p) { return p.borrowed(); });
  }

  /// SeriesCodec trait: View genuinely borrows the caller's buffer, so a
  /// store shard mapped from disk serves with no deserialization copy.
  static constexpr bool kZeroCopyView = true;

  /// Introspection: a decoded view of fragment i (for examples & benches).
  struct FragmentInfo {
    uint64_t start, end, origin;
    FunctionKind kind;
    int correction_bits;
    double params[3];
  };
  FragmentInfo GetFragment(size_t i) const {
    const FragmentDirectory::Record& rec = directory_[i];
    FragmentInfo info;
    info.start = FragmentStart(i);
    info.end = FragmentEnd(i);
    info.origin = info.start - rec.displacement;
    info.kind = kind_table_[rec.kind];
    info.correction_bits = static_cast<int>(rec.correction_bits);
    const double* p = params_[rec.kind].data() + rec.param_index;
    for (int j = 0; j < 3; ++j) {
      info.params[j] = j < NumParams(info.kind) ? p[j] : 0.0;
    }
    return info;
  }

 private:
  struct ShiftedValues {
    std::vector<int64_t> storage;
    std::span<const int64_t> shifted;
    int64_t shift = 0;
  };

  /// Applies the positivity shift of footnote 2: y' = y + shift with
  /// shift = 1 - min(y) when min(y) < 1, so log-domain kinds stay usable.
  static ShiftedValues ShiftView(std::span<const int64_t> values) {
    ShiftedValues sv;
    int64_t lo = 0;
    for (int64_t v : values) {
      NEATS_REQUIRE(v >= -kMaxAbsValue && v <= kMaxAbsValue,
                    "value outside ±2^61");
      lo = std::min(lo, v);
    }
    if (values.empty() || lo >= 1) {
      sv.shifted = values;
      return sv;
    }
    sv.shift = 1 - lo;
    sv.storage.reserve(values.size());
    for (int64_t v : values) sv.storage.push_back(v + sv.shift);
    sv.shifted = sv.storage;
    return sv;
  }

  /// Partitions the shifted series (empty `options.epsilons` derives the
  /// default E set from it: it depends only on max - min, so shifting does
  /// not change it) and lays the fragments out.
  static Neats CompressImpl(const ShiftedValues& sv,
                            const PartitionOptions& options) {
    Neats out;
    out.n_ = sv.shifted.size();
    if (sv.shifted.empty()) return out;
    out.shift_ = sv.shift;
    out.BuildLayout(sv.shifted, PartitionLossless(sv.shifted, options));
    return out;
  }

  /// Shared body of Deserialize (copy mode) and View (borrow mode). In
  /// borrow mode every GetArray returns a span into `bytes`.
  static Neats LoadFlat(std::span<const uint8_t> bytes, bool borrow) {
    WordReader r(bytes, borrow);
    const uint64_t magic = r.Get();
    NEATS_REQUIRE(magic != kMagicV1, "unsupported NeaTS format version");
    NEATS_REQUIRE(magic == kMagicV2, "not a NeaTS blob");
    NEATS_REQUIRE(r.Get() == kFormatVersion, "unsupported NeaTS format version");
    Neats out;
    out.n_ = r.Get();
    out.m_ = r.Get();
    // Bound n so every length*width product below stays far from uint64
    // wrap (2^56 values * 64 bits = 2^62) — a wrapped product could forge
    // the directory walk's offset check. Fragments exist iff values do.
    NEATS_REQUIRE(out.n_ <= (uint64_t{1} << 56) && out.m_ <= out.n_ &&
                      (out.m_ > 0) == (out.n_ > 0),
                  "corrupt NeaTS blob");
    out.shift_ = static_cast<int64_t>(r.Get());
    size_t kinds = r.Get();
    NEATS_REQUIRE(kinds <= static_cast<size_t>(kNumFunctionKinds),
                  "corrupt NeaTS blob");
    for (size_t i = 0; i < kinds; ++i) {
      uint64_t kind = r.Get();
      NEATS_REQUIRE(kind < static_cast<uint64_t>(kNumFunctionKinds),
                    "corrupt NeaTS blob");
      out.kind_table_.push_back(static_cast<FunctionKind>(kind));
    }
    if (out.m_ > 0) {
      out.starts_ = EliasFano::Load(r);
      // Fragment 0 must start at value 0 and the last start must lie in
      // [0, n): Access relies on both (a rank of 0 would underflow).
      NEATS_REQUIRE(out.starts_.size() == out.m_ &&
                        out.starts_.Access(0) == 0 &&
                        out.starts_.Access(out.m_ - 1) < out.n_,
                    "corrupt NeaTS blob");
    }
    out.corrections_ = r.GetArray<uint64_t>();
    size_t n_params = r.Get();
    NEATS_REQUIRE(n_params == kinds || (out.m_ == 0 && n_params == 0),
                  "corrupt NeaTS blob");
    out.params_.reserve(n_params);
    for (size_t i = 0; i < n_params; ++i) {
      out.params_.push_back(r.GetArray<double>());
    }
    out.directory_ = FragmentDirectory::Load(r);
    out.ValidateDirectory();
    return out;
  }

  /// The loader's one pass over the directory. Queries read records, the
  /// correction payload and the parameter arrays without bounds checks, so
  /// every record must agree with S, C and P: a known kind, a width of at
  /// most 64 bits, a correction offset equal to the running sum of
  /// length * width (ending exactly at the payload's bit size), a parameter
  /// offset equal to the kind's running count times its arity (ending
  /// exactly at each array's size), and a displacement that keeps the
  /// origin at or after value 0. Field widths and pad bits must be the
  /// canonical ones, so Serialize reproduces the input bytes. O(m) time;
  /// allocates nothing, so View stays zero-copy.
  void ValidateDirectory() const {
    NEATS_REQUIRE(directory_.size() == m_, "corrupt NeaTS blob");
    size_t count[kNumFunctionKinds] = {};
    FragmentDirectory::Record max;
    uint64_t total_bits = 0;
    uint64_t start = 0;  // fragment 0 starts at 0, checked with S
    for (size_t i = 0; i < m_; ++i) {
      const uint64_t end = FragmentEnd(i);
      const FragmentDirectory::Record rec = directory_[i];
      NEATS_REQUIRE(end > start && rec.kind < kind_table_.size() &&
                        rec.correction_bits <= 64 &&
                        rec.corr_offset == total_bits &&
                        rec.displacement <= start &&
                        rec.param_index ==
                            count[rec.kind] * static_cast<size_t>(NumParams(
                                                  kind_table_[rec.kind])),
                    "corrupt NeaTS blob");
      ++count[rec.kind];
      total_bits += (end - start) * rec.correction_bits;
      max.Widen(rec);
      start = end;
    }
    NEATS_REQUIRE(corrections_.size() == CeilDiv(total_bits, 64),
                  "corrupt NeaTS blob");
    for (size_t k = 0; k < params_.size(); ++k) {
      NEATS_REQUIRE(params_[k].size() ==
                        count[k] * static_cast<size_t>(NumParams(kind_table_[k])),
                    "corrupt NeaTS blob");
    }
    NEATS_REQUIRE(directory_.CanonicalFor(max), "corrupt NeaTS blob");
  }

  void BuildLayout(std::span<const int64_t> shifted,
                   const std::vector<Fragment>& fragments) {
    const size_t m = fragments.size();
    m_ = m;
    std::vector<int> kind_to_dense(kNumFunctionKinds, -1);  // used kinds only
    std::vector<std::vector<double>> params;  // one array per dense kind
    std::vector<uint64_t> starts(m);
    std::vector<FragmentDirectory::Record> records(m);
    BitWriter corrections;
    std::vector<int64_t> pred;  // one fragment's predictions

    for (size_t i = 0; i < m; ++i) {
      const Fragment& frag = fragments[i];
      const int raw = static_cast<int>(frag.kind);
      if (kind_to_dense[raw] < 0) {
        kind_to_dense[raw] = static_cast<int>(kind_table_.size());
        kind_table_.push_back(frag.kind);
        params.emplace_back();
      }
      std::vector<double>& kind_params = params[kind_to_dense[raw]];
      starts[i] = frag.start;
      FragmentDirectory::Record rec{};  // zero pad: canonical bytes
      rec.displacement = frag.start - frag.origin;
      rec.kind = static_cast<uint8_t>(kind_to_dense[raw]);
      rec.param_index = kind_params.size();
      for (int j = 0; j < NumParams(frag.kind); ++j) {
        kind_params.push_back(frag.params[j]);
      }
      // Residual pass 1: actual range (floating-point-safe width).
      pred.resize(frag.length());
      frag.PredictRun(frag.start, frag.length(), pred.data());
      int64_t lo = 0, hi = 0;
      for (uint64_t k = frag.start; k < frag.end; ++k) {
        int64_t r = shifted[k] - pred[k - frag.start];
        lo = std::min(lo, r);
        hi = std::max(hi, r);
      }
      int bits = ResidualBits(lo, hi);
      rec.correction_bits = static_cast<uint8_t>(bits);
      rec.corr_offset = corrections.bit_size();
      records[i] = rec;
      // Residual pass 2: emit with bias 2^(bits-1).
      int64_t bias = bits == 0 ? 0 : (int64_t{1} << (bits - 1));
      for (uint64_t k = frag.start; k < frag.end; ++k) {
        int64_t r = shifted[k] - pred[k - frag.start];
        corrections.Append(static_cast<uint64_t>(r + bias), bits);
      }
    }

    starts_ = EliasFano(starts, n_);
    corrections_ = Storage<uint64_t>(corrections.TakeWords());
    directory_ = FragmentDirectory(std::move(records));
    params_.reserve(params.size());
    for (auto& p : params) params_.emplace_back(std::move(p));
  }

  /// Index of the fragment covering position k (S.rank(k) - 1).
  size_t FragmentIndexOf(uint64_t k) const { return starts_.Rank(k) - 1; }

  uint64_t FragmentStart(size_t i) const { return starts_.Access(i); }
  uint64_t FragmentEnd(size_t i) const {
    return i + 1 < m_ ? FragmentStart(i + 1) : n_;
  }

  /// Decodes the value at position k of fragment i (whose start is already
  /// known) from the fragment's directory record: one contiguous record
  /// read supplies kind, parameter offset, displacement, correction width
  /// and correction offset.
  int64_t DecodeAt(size_t i, uint64_t start, uint64_t k) const {
    const FragmentDirectory::Record& rec = directory_[i];
    NEATS_TOUCH(kind_table_.data() + rec.kind);
    FunctionKind kind = kind_table_[rec.kind];
    const double* params = params_[rec.kind].data() + rec.param_index;
    NEATS_TOUCH(params);
    uint64_t origin = start - rec.displacement;
    int64_t pred = PredictFloor(kind, params, static_cast<int64_t>(k - origin) + 1);
    const int bits = rec.correction_bits;
    if (bits == 0) return pred - shift_;  // pure function: no corrections
    int64_t bias = int64_t{1} << (bits - 1);
    uint64_t o = rec.corr_offset + (k - start) * static_cast<uint64_t>(bits);
    NEATS_TOUCH(corrections_.data() + (o >> 6));
    int64_t c = static_cast<int64_t>(ReadBits(corrections_.data(), o, bits)) - bias;
    return pred + c - shift_;
  }

  /// Decoded per-fragment state, loaded once per fragment and carried by
  /// cursors: everything needed to decode any value of the fragment without
  /// touching the succinct indexes again.
  struct FragState {
    uint64_t start = 0, end = 0, origin = 0;
    uint64_t corr_base = 0;  // absolute bit offset of the first correction
    const double* params = nullptr;
    FunctionKind kind = FunctionKind::kLinear;
    int bits = 0;
    int64_t bias = 0;
  };

  /// The decode-relevant fields of fragment i (everything but `end`), from
  /// one directory record read. The batch kernel caches exactly this — it
  /// learns about fragment transitions from the predecessor scanner, so it
  /// never pays the extra starts select that computing `end` would cost.
  FragState LoadFragmentState(size_t i, uint64_t start) const {
    const FragmentDirectory::Record& rec = directory_[i];
    FragState s;
    s.start = start;
    s.kind = kind_table_[rec.kind];
    s.params = params_[rec.kind].data() + rec.param_index;
    s.bits = rec.correction_bits;
    s.bias = s.bits == 0 ? 0 : (int64_t{1} << (s.bits - 1));
    s.origin = start - rec.displacement;
    s.corr_base = rec.corr_offset;
    return s;
  }

  /// Loads fragment i given its start (already known to sequential callers —
  /// the next start is the previous end). Everything else comes out of the
  /// fragment's directory record in one read.
  FragState LoadFragment(size_t i, uint64_t start) const {
    FragState s = LoadFragmentState(i, start);
    s.end = FragmentEnd(i);
    return s;
  }

  /// Loads fragment i from scratch (one starts access + the record read).
  FragState LoadFragment(size_t i) const {
    return LoadFragment(i, FragmentStart(i));
  }

  /// Decodes the value at position k of the loaded fragment `s`
  /// (s.start <= k < s.end) — the one-value decode shared by Cursor::Value
  /// and the batch kernel's per-group loop.
  int64_t DecodeFragValue(const FragState& s, uint64_t k) const {
    int64_t pred = PredictFloor(s.kind, s.params,
                                static_cast<int64_t>(k - s.origin) + 1);
    uint64_t o = s.corr_base + (k - s.start) * static_cast<uint64_t>(s.bits);
    int64_t c =
        static_cast<int64_t>(ReadBits(corrections_.data(), o, s.bits)) - s.bias;
    return pred + c - shift_;
  }

  /// Decodes values[from, to) of a loaded fragment on the active decode
  /// lane (src/functions/decode_lanes.hpp): predictions, corrections and the
  /// bias/shift offset in one pass.
  void DecodeRun(const FragState& s, uint64_t from, uint64_t to,
                 int64_t* out) const {
    FragmentRun run;
    run.kind = s.kind;
    run.params = s.params;
    run.x0 = static_cast<int64_t>(from - s.origin) + 1;
    run.count = to - from;
    run.words = corrections_.data();
    run.num_words = corrections_.size();
    run.bit_offset =
        s.corr_base + (from - s.start) * static_cast<uint64_t>(s.bits);
    run.bits = s.bits;
    run.add = 0 - static_cast<uint64_t>(s.bias) - static_cast<uint64_t>(shift_);
    run.out = out;
    DecodeFragmentRun(run);
  }

  /// Bits of the serialized header: magic, version, n, m, shift,
  /// kind-table length, and one word per kind-table entry (matches the
  /// fixed-size prefix Serialize emits before the section list).
  size_t HeaderSizeInBits() const { return (6 + kind_table_.size()) * 64; }

  // The v1 magic, kept only so a v1 blob is rejected as an old version
  // rather than as foreign bytes.
  static constexpr uint64_t kMagicV1 = 0x5354414554414E45ULL;
  // Little-endian "NEATSv2\0": the mapped bytes of a blob start with the
  // ASCII name, so `head -c7` / file sniffers see it verbatim. The magic
  // names the format family; revisions bump the version word, and only the
  // current version is read (docs/FORMAT.md).
  static constexpr uint64_t kMagicV2 = 0x003276535441454EULL;
  static constexpr uint64_t kFormatVersion = 5;

  uint64_t n_ = 0;
  size_t m_ = 0;
  int64_t shift_ = 0;

  EliasFano starts_;  // S

  Storage<uint64_t> corrections_;  // C
  FragmentDirectory directory_;    // B/O/K/D + param offsets, one record each
  std::vector<FunctionKind> kind_table_;
  std::vector<Storage<double>> params_;  // P, one array per dense kind
};

/// Sequential-access cursor: caches the current fragment's decoded state
/// (kind, params, correction width, bit offsets) plus the fragment index.
/// next()/Read() advance fragment-to-fragment in O(1) — the next start is
/// the current end and everything else comes out of the next fragment's
/// directory record, so the S rank of Algorithm 3 is not paid. Monotone Seek() hops the chain the same way (in
/// either direction) and only falls back to a full rank for long jumps.
class Neats::Cursor {
 public:
  /// Positions the cursor at `position` (clamped to n = end-of-series).
  /// A non-zero start pays one FragmentIndexOf rank, like Access would —
  /// the hop heuristic of Seek only helps once the cursor is warm.
  explicit Cursor(const Neats& neats, uint64_t position = 0) : neats_(&neats) {
    if (neats_->m_ == 0) return;
    if (position >= neats_->n_) position = neats_->n_;
    if (position == neats_->n_ || position == 0) {
      // The first fragment starts at value 0.
      st_ = neats_->LoadFragment(0, 0);
      pos_ = position;
      return;
    }
    frag_ = neats_->FragmentIndexOf(position);
    st_ = neats_->LoadFragment(frag_);
    pos_ = position;
  }

  /// Current position in [0, n]; n means exhausted.
  uint64_t position() const { return pos_; }

  /// True once the cursor has moved past the last value.
  bool done() const { return pos_ >= neats_->n_; }

  /// The value at the current position (the cursor does not advance).
  int64_t Value() const {
    NEATS_DCHECK(!done());
    return neats_->DecodeFragValue(st_, pos_);
  }

  /// The value at the current position, then advances by one.
  int64_t Next() {
    int64_t v = Value();
    ++pos_;
    if (pos_ == st_.end && pos_ < neats_->n_) AdvanceFragment();
    return v;
  }

  /// Moves to position k (<= n). Seeks inside the current fragment (in either
  /// direction) reuse the cached decode state outright; seeks to nearby
  /// fragments hop the chain — forward or backward — in O(1) per fragment.
  /// Only a jump further than kMaxSeekHops fragments away falls back to the
  /// full FragmentIndexOf rank.
  void Seek(uint64_t k) {
    NEATS_DCHECK(k <= neats_->n_);
    if (k >= neats_->n_) {
      pos_ = neats_->n_;
      return;
    }
    if (k >= st_.start && k < st_.end) {
      pos_ = k;
      return;
    }
    if (k >= st_.end) {
      for (int hops = 0; hops < kMaxSeekHops && k >= st_.end; ++hops) {
        AdvanceFragment();
      }
      if (k < st_.end) {
        pos_ = k;
        return;
      }
    } else {
      // Backward: the previous fragment's start is one Elias-Fano access and
      // its record one read, so short backward seeks never pay the rank.
      for (int hops = 0; hops < kMaxSeekHops && k < st_.start; ++hops) {
        RetreatFragment();
      }
      if (k >= st_.start) {
        pos_ = k;  // k < st_.end holds: the chain is contiguous
        return;
      }
    }
    frag_ = neats_->FragmentIndexOf(k);
    st_ = neats_->LoadFragment(frag_);
    pos_ = k;
  }

  /// Bulk-decodes up to `len` values starting at the current position into
  /// `out` (fragment-at-a-time, vectorised inner loops) and advances past
  /// them. Returns the number produced (less than `len` only at the end).
  uint64_t Read(uint64_t len, int64_t* out) {
    uint64_t want = std::min(len, neats_->n_ - pos_);
    uint64_t produced = 0;
    while (produced < want) {
      uint64_t to = std::min(pos_ + (want - produced), st_.end);
      neats_->DecodeRun(st_, pos_, to, out + produced);
      produced += to - pos_;
      pos_ = to;
      if (pos_ == st_.end && pos_ < neats_->n_) AdvanceFragment();
    }
    return want;
  }

 private:
  static constexpr int kMaxSeekHops = 8;

  void AdvanceFragment() {
    ++frag_;
    st_ = neats_->LoadFragment(frag_, st_.end);
  }

  /// Inverse of AdvanceFragment; precondition: frag_ > 0.
  void RetreatFragment() {
    --frag_;
    st_ = neats_->LoadFragment(frag_);
  }

  const Neats* neats_;
  size_t frag_ = 0;
  uint64_t pos_ = 0;
  FragState st_;
};

inline void Neats::DecompressRange(uint64_t k, uint64_t len,
                                   int64_t* out) const {
  NEATS_DCHECK(k + len <= n_);
  if (len == 0) return;
  Cursor cursor(*this, k);
  cursor.Read(len, out);
}

inline void Neats::DecompressRanges(std::span<const IndexRange> ranges,
                                    int64_t* out) const {
  if (ranges.empty()) return;
  Cursor cursor(*this, ranges[0].from);
  uint64_t off = 0;
  for (const IndexRange& r : ranges) {
    NEATS_DCHECK(r.from + r.len <= n_);
    cursor.Seek(r.from);
    cursor.Read(r.len, out + off);
    off += r.len;
  }
}

inline int64_t Neats::RangeSum(uint64_t from, uint64_t len) const {
  NEATS_DCHECK(from + len <= n_);
  constexpr uint64_t kChunk = 1024;
  int64_t buffer[kChunk];
  Cursor cursor(*this, from);
  int64_t sum = 0;
  uint64_t remaining = len;
  while (remaining > 0) {
    uint64_t got = cursor.Read(std::min(remaining, kChunk), buffer);
    for (uint64_t j = 0; j < got; ++j) sum += buffer[j];
    remaining -= got;
  }
  return sum;
}

inline Neats Neats::CompressWithModelSelection(std::span<const int64_t> values,
                                               const NeatsOptions& options,
                                               double sample_fraction,
                                               size_t top_pairs) {
  NEATS_REQUIRE(sample_fraction >= 0 && sample_fraction <= 1,
                "sample_fraction outside [0, 1]");
  const ShiftedValues sv = ShiftView(values);
  const size_t sample_n = std::max<size_t>(1000, static_cast<size_t>(
      static_cast<double>(values.size()) * sample_fraction));
  if (2 * sample_n > values.size()) return CompressImpl(sv, options.partition);

  PartitionOptions popts = options.partition;
  if (popts.epsilons.empty()) popts.epsilons = DefaultEpsilons(sv.shifted);
  std::vector<Fragment> sample_frags =
      PartitionLossless(sv.shifted.subspan(0, sample_n), popts);

  // Vote: total covered length per (kind, eps) pair.
  struct PairUse {
    FunctionKind kind;
    int64_t eps;
    uint64_t covered = 0;
  };
  std::vector<PairUse> uses;
  for (const Fragment& f : sample_frags) {
    bool found = false;
    for (PairUse& u : uses) {
      if (u.kind == f.kind && u.eps == f.epsilon) {
        u.covered += f.length();
        found = true;
        break;
      }
    }
    if (!found) uses.push_back({f.kind, f.epsilon, f.length()});
  }
  std::sort(uses.begin(), uses.end(), [](const PairUse& a, const PairUse& b) {
    if (a.covered != b.covered) return a.covered > b.covered;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.eps < b.eps;
  });
  if (uses.size() > top_pairs) uses.resize(top_pairs);

  PartitionOptions pruned = options.partition;
  pruned.kinds.clear();
  pruned.epsilons.clear();
  for (const PairUse& u : uses) {
    if (std::find(pruned.kinds.begin(), pruned.kinds.end(), u.kind) ==
        pruned.kinds.end()) {
      pruned.kinds.push_back(u.kind);
    }
    if (std::find(pruned.epsilons.begin(), pruned.epsilons.end(), u.eps) ==
        pruned.epsilons.end()) {
      pruned.epsilons.push_back(u.eps);
    }
  }
  if (pruned.kinds.empty()) return CompressImpl(sv, options.partition);
  return CompressImpl(sv, pruned);
}

}  // namespace neats
