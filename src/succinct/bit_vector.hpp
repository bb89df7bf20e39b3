// Plain bitvector plus a rank/select index.
//
// BitVector is the mutable builder and always owns its words. RankSelect is
// the frozen form: its payload and directories live in Storage<T> cells that
// are either owned (built in memory / copied by Deserialize) or borrowed from
// a serialized blob (zero-copy View; see storage.hpp and docs/FORMAT.md).
//
// The rank index follows the rank9 layout idea: absolute counts every 512-bit
// superblock plus per-word relative counts, giving O(1) Rank1. Select1 uses a
// sampled select directory — the bit position of every 512th 1 — to jump
// straight to a narrow superblock window, so a select is a couple of
// directory probes plus an in-superblock word scan instead of a binary
// search over all superblocks.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/touch_probe.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// Mutable bitvector; freeze it by building a RankSelect index over it.
class BitVector {
 public:
  BitVector() = default;

  /// Creates an all-zero bitvector of `n` bits.
  explicit BitVector(size_t n) : size_(n), words_(CeilDiv(n, 64), 0) {}

  /// Sets bit `i` to 1.
  void Set(size_t i) {
    NEATS_DCHECK(i < size_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }

  /// Returns bit `i`.
  bool Get(size_t i) const {
    NEATS_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Appends a bit at the end.
  void PushBack(bool bit) {
    if ((size_ & 63) == 0) words_.push_back(0);
    if (bit) words_.back() |= 1ULL << (size_ & 63);
    ++size_;
  }

  size_t size() const { return size_; }
  const std::vector<uint64_t>& words() const { return words_; }

  /// Releases the backing words (the vector has exactly ceil(n/64) entries).
  std::vector<uint64_t> TakeWords() { return std::move(words_); }

  /// Payload size in bits.
  size_t SizeInBits() const { return words_.size() * 64 + 64; }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Immutable rank/select index over a frozen bitvector.
class RankSelect {
 public:
  RankSelect() = default;

  explicit RankSelect(BitVector bits) : nbits_(bits.size()) {
    std::vector<uint64_t> words = bits.TakeWords();
    Directories dirs = BuildDirectories(words.data(), words.size());
    ones_ = dirs.ones;
    words_ = Storage<uint64_t>(std::move(words));
    super_ = Storage<uint64_t>(std::move(dirs.super));
    rel_ = Storage<uint16_t>(std::move(dirs.rel));
    sel1_ = Storage<uint64_t>(std::move(dirs.sel1));
  }

  /// Number of 1 bits in positions [0, i). `i` may equal size().
  uint64_t Rank1(size_t i) const {
    NEATS_DCHECK(i <= nbits_);
    size_t w = i >> 6;
    NEATS_TOUCH(super_.data() + w / kWordsPerSuper);
    NEATS_TOUCH(rel_.data() + w);
    uint64_t r = super_[w / kWordsPerSuper] + rel_[w];
    if (i & 63) {
      NEATS_TOUCH(words_.data() + w);
      r += Popcount(words_[w] & LowMask(static_cast<int>(i & 63)));
    }
    return r;
  }

  /// Number of 0 bits in positions [0, i).
  uint64_t Rank0(size_t i) const { return i - Rank1(i); }

  /// Position of the k-th (0-based) 1 bit. Precondition: k < ones().
  size_t Select1(uint64_t k) const {
    NEATS_DCHECK(k < ones_);
    size_t s = FindSuperblock(k);
    // Start the word scan at the later of the superblock start and the
    // sampled bit's own word — both have rank <= k, and rel_ recovers the
    // rank at any word boundary, so the scan skips up to 7 words.
    size_t w = s * kWordsPerSuper;
    size_t ws = static_cast<size_t>(sel1_[k / kSelectSample] >> 6);
    if (ws > w) w = ws;
    NEATS_TOUCH(super_.data() + w / kWordsPerSuper);
    NEATS_TOUCH(rel_.data() + w);
    uint64_t rem = k - super_[w / kWordsPerSuper] - rel_[w];
    while (true) {
      NEATS_TOUCH(words_.data() + w);
      int pc = Popcount(words_[w]);
      if (rem < static_cast<uint64_t>(pc)) break;
      rem -= static_cast<uint64_t>(pc);
      ++w;
    }
    return (w << 6) + static_cast<size_t>(SelectInWord(words_[w], static_cast<int>(rem)));
  }

  /// Position of the last 1 bit at or before `pos`, scanning word-at-a-time
  /// backward. Precondition: such a bit exists. This is how EliasFano finds
  /// a predecessor's high part across a run of empty buckets (zeros)
  /// without paying a Select1.
  size_t PrevOne(size_t pos) const {
    NEATS_DCHECK(pos < nbits_);
    size_t w = pos >> 6;
    NEATS_TOUCH(words_.data() + w);
    uint64_t cur = words_[w] & (~uint64_t{0} >> (63 - (pos & 63)));
    while (cur == 0) {
      NEATS_DCHECK(w > 0);
      --w;
      NEATS_TOUCH(words_.data() + w);
      cur = words_[w];
    }
    return (w << 6) + static_cast<size_t>(BitWidth(cur)) - 1;
  }

  bool Get(size_t i) const {
    NEATS_DCHECK(i < nbits_);
    NEATS_TOUCH(words_.data() + (i >> 6));
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  size_t size() const { return nbits_; }
  uint64_t ones() const { return ones_; }

  /// True when the payload is borrowed from an external buffer.
  bool borrowed() const { return words_.borrowed(); }

  /// Size in bits, exactly as serialized: nbits + ones + four counted
  /// arrays (payload words, rank superblocks, word-padded relative ranks,
  /// and the select directory).
  size_t SizeInBits() const {
    return 6 * 64 + words_.size() * 64 + super_.size() * 64 +
           CeilDiv(rel_.size() * 16, 64) * 64 + sel1_.size() * 64;
  }

  /// Every directory is serialized; Load verifies them against
  /// the payload (one popcount pass) instead of rebuilding owned copies, so
  /// a borrow-mode open keeps the payload and directories zero-copy.
  void Serialize(WordWriter& w) const {
    w.Put(nbits_);
    w.Put(ones_);
    w.PutArray(words_);
    w.PutArray(super_);
    w.PutArray(rel_);
    w.PutArray(sel1_);
  }

  static RankSelect Load(WordReader& r) {
    RankSelect rs;
    rs.nbits_ = r.Get();
    rs.ones_ = r.Get();
    rs.words_ = r.GetArray<uint64_t>();
    rs.super_ = r.GetArray<uint64_t>();
    rs.rel_ = r.GetArray<uint16_t>();
    rs.sel1_ = r.GetArray<uint64_t>();
    NEATS_REQUIRE(rs.words_.size() == CeilDiv(rs.nbits_, 64),
                  "corrupt NeaTS blob");
    // Padding bits past size() must be zero — the select scans rely on
    // it, and a nonzero pad would let "ones" exist beyond the bitvector.
    NEATS_REQUIRE((rs.nbits_ & 63) == 0 || rs.words_.empty() ||
                      (rs.words_[rs.words_.size() - 1] >>
                       (rs.nbits_ & 63)) == 0,
                  "corrupt NeaTS blob");
    // Queries index the directories without bounds checks, so inconsistent
    // (not just mis-sized) directory contents would become wild reads.
    // Rebuild them from the payload — one popcount pass, transient — and
    // demand an exact match; the words themselves stay zero-copy.
    Directories dirs = BuildDirectories(rs.words_.data(), rs.words_.size());
    NEATS_REQUIRE(
        rs.ones_ == dirs.ones &&
            std::equal(dirs.super.begin(), dirs.super.end(),
                       rs.super_.data(), rs.super_.data() + rs.super_.size()),
        "corrupt NeaTS blob");
    NEATS_REQUIRE(
        std::equal(dirs.rel.begin(), dirs.rel.end(), rs.rel_.data(),
                   rs.rel_.data() + rs.rel_.size()) &&
            std::equal(dirs.sel1.begin(), dirs.sel1.end(), rs.sel1_.data(),
                       rs.sel1_.data() + rs.sel1_.size()),
        "corrupt NeaTS blob");
    return rs;
  }

 private:
  static constexpr size_t kWordsPerSuper = 8;   // 512-bit superblocks
  static constexpr size_t kSuperBits = 512;
  static constexpr uint64_t kSelectSample = 512;  // sampled every 512th bit

  struct Directories {
    std::vector<uint64_t> super;
    std::vector<uint16_t> rel;
    std::vector<uint64_t> sel1;
    uint64_t ones = 0;
  };

  /// Derives all rank/select directories from the payload in one popcount
  /// pass. The constructor adopts the result; Load rebuilds it to verify a
  /// blob's stored directories, so query-time scans can trust them blindly.
  static Directories BuildDirectories(const uint64_t* words, size_t n_words) {
    Directories d;
    const size_t n_super = CeilDiv(n_words, kWordsPerSuper) + 1;
    d.super.assign(n_super, 0);
    d.rel.assign(n_words + 1, 0);
    uint64_t total = 0;   // ones so far
    uint64_t next1 = 0;   // next sampled 1-rank
    for (size_t w = 0; w < n_words; ++w) {
      if (w % kWordsPerSuper == 0) d.super[w / kWordsPerSuper] = total;
      d.rel[w] = static_cast<uint16_t>(total - d.super[w / kWordsPerSuper]);
      const uint64_t word = words[w];
      const uint64_t pc = static_cast<uint64_t>(Popcount(word));
      while (next1 < total + pc) {
        d.sel1.push_back((w << 6) +
                         static_cast<uint64_t>(SelectInWord(word, static_cast<int>(next1 - total))));
        next1 += kSelectSample;
      }
      total += pc;
    }
    for (size_t s = CeilDiv(n_words, kWordsPerSuper); s < n_super; ++s) {
      d.super[s] = total;
    }
    d.rel[n_words] = static_cast<uint16_t>(total - d.super[n_words / kWordsPerSuper]);
    d.ones = total;
    return d;
  }

  /// Locates the superblock containing the k-th 1 bit using the sampled
  /// directory (position of every kSelectSample-th 1 bit) and the
  /// superblock ranks. The two samples bracketing k narrow the search to a
  /// window that is a couple of superblocks wide in practice; a bounded
  /// binary search covers the pathological sparse case.
  size_t FindSuperblock(uint64_t k) const {
    const size_t n_sb = CeilDiv(words_.size(), kWordsPerSuper);
    const size_t j = static_cast<size_t>(k / kSelectSample);
    NEATS_TOUCH(sel1_.data() + j);
    size_t lo = static_cast<size_t>(sel1_[j] / kSuperBits);
    size_t hi = n_sb - 1;
    if (j + 1 < sel1_.size()) {
      NEATS_TOUCH(sel1_.data() + j + 1);
      hi = std::min(hi, static_cast<size_t>(sel1_[j + 1] / kSuperBits));
    }
    const auto count_before = [this](size_t sb) {
      NEATS_TOUCH(super_.data() + sb);
      return super_[sb];
    };
    if (hi - lo > 8) {
      while (lo < hi) {
        size_t mid = (lo + hi + 1) / 2;
        if (count_before(mid) <= k) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
    } else {
      while (lo < hi && count_before(lo + 1) <= k) ++lo;
    }
    return lo;
  }

  size_t nbits_ = 0;
  uint64_t ones_ = 0;
  Storage<uint64_t> words_;  // the frozen bitvector payload
  Storage<uint64_t> super_;  // absolute rank at each superblock start
  Storage<uint16_t> rel_;    // per-word rank relative to superblock
  Storage<uint64_t> sel1_;   // position of every kSelectSample-th 1 bit
};

}  // namespace neats
