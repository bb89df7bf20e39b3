// The decoded-block LRU cache behind NeatsStore's point-query paths.
//
// The XOR stream codecs (Gorilla, Chimp — the codecs answering
// SealedSeries::BlockValues() > 0) must decode inside a block to answer a
// point query; repeated point queries into the same block should not repeat
// that work. Codecs with real random access (Neats, LeCo, ALP) never come
// here: for them a cache lookup costs more than the codec's own Access
// (a warm-cache ALP store Access took 76 ns, a native one 49 ns — see
// codecs/alp_codec.hpp). The store keeps
// one process-wide-per-store cache of decoded blocks keyed by
// (shard, codec, block): Access/AccessBatch consult it before any decode
// and insert what they had to decode, bounded by a byte budget with
// least-recently-used eviction (NeatsStoreOptions::block_cache_bytes).
//
// Entries are shared_ptr<const vector<int64_t>>, so a reader keeps its
// block alive even if the entry is evicted mid-query. The store's
// threading contract allows concurrent const queries, so every cache
// operation takes a mutex; decodes happen outside the lock (two threads
// racing on the same miss both decode — the values are identical, the
// second insert just refreshes the entry). Sealed shards are immutable and
// Scrub repairs re-seal the same values with the same codec, so entries
// never go stale.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace neats {

/// Byte-bounded LRU cache of decoded blocks (see file comment).
class DecodedBlockCache {
 public:
  using BlockPtr = std::shared_ptr<const std::vector<int64_t>>;

  /// Running counters plus a point-in-time size snapshot; readable while
  /// queries run (stats() takes the same mutex the queries do).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;  // cached blocks right now
    uint64_t bytes = 0;    // their accounted footprint
  };

  explicit DecodedBlockCache(uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// The cached block, bumped to most-recently-used — or null (a miss; the
  /// caller decodes and Inserts). Counts the hit or miss.
  BlockPtr Lookup(uint64_t shard, uint32_t codec, uint64_t block) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(Key{shard, codec, block});
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->values;
  }

  /// Caches a decoded block (refreshing any racing duplicate) and evicts
  /// from the LRU tail past the byte budget. A block that alone exceeds
  /// the whole budget is not cached.
  void Insert(uint64_t shard, uint32_t codec, uint64_t block,
              BlockPtr values) {
    const uint64_t cost =
        values->size() * sizeof(int64_t) + kEntryOverheadBytes;
    if (cost > capacity_) return;
    std::lock_guard<std::mutex> lock(mu_);
    const Key key{shard, codec, block};
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->values = std::move(values);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{key, std::move(values), cost});
    map_.emplace(key, lru_.begin());
    bytes_ += cost;
    while (bytes_ > capacity_) {
      const Entry& victim = lru_.back();
      bytes_ -= victim.cost;
      map_.erase(victim.key);
      lru_.pop_back();
      ++evictions_;
    }
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {hits_, misses_, evictions_, lru_.size(), bytes_};
  }

 private:
  /// Map/list bookkeeping charged per entry on top of the value bytes, so
  /// a pathological many-tiny-blocks workload cannot blow past the budget
  /// through overhead the byte count would not see.
  static constexpr uint64_t kEntryOverheadBytes = 96;

  struct Key {
    uint64_t shard = 0;
    uint32_t codec = 0;
    uint64_t block = 0;
    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.shard * 0x9E3779B97F4A7C15ull;
      h ^= (k.block + 0x9E3779B97F4A7C15ull) + (h << 6) + (h >> 2);
      h ^= (static_cast<uint64_t>(k.codec) << 32) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  struct Entry {
    Key key;
    BlockPtr values;
    uint64_t cost = 0;
  };

  mutable std::mutex mu_;
  uint64_t capacity_ = 0;
  uint64_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
};

}  // namespace neats
