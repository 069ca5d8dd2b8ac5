#ifndef DTT_SERVE_LRU_CACHE_H_
#define DTT_SERVE_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dtt {
namespace obs {
class Counter;
}  // namespace obs

namespace serve {

/// Aggregate counters of a ShardedLruCache (summed over shards).
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t size = 0;  // entries currently resident

  double HitRate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// A thread-safe string -> string LRU cache, sharded by key hash so that
/// concurrent lookups from the serving path contend on shard mutexes instead
/// of one global lock. Each shard keeps its own recency list; capacity is
/// split evenly across shards (so strict global LRU order only holds with
/// num_shards == 1 — the trade made for lock spread).
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget across all shards (min 1 per
  /// shard); `num_shards` is clamped to [1, capacity]. A non-empty
  /// `metrics_prefix` additionally mirrors hit/miss/insertion/eviction
  /// events onto obs::MetricsRegistry::Global() counters named
  /// "<prefix>.hits", ".misses", ".insertions", ".evictions" (so they land
  /// in every bench JSON metrics block); the per-shard counters behind
  /// stats() are unaffected.
  ShardedLruCache(size_t capacity, int num_shards = 8,
                  const std::string& metrics_prefix = "");
  ~ShardedLruCache();  // out-of-line: Shard is incomplete here

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Returns the cached value and refreshes its recency, or nullopt.
  std::optional<std::string> Get(const std::string& key);

  /// Inserts or overwrites `key`, evicting the shard's least-recently-used
  /// entry when the shard is at capacity.
  void Put(const std::string& key, std::string value);

  /// Counters summed over shards (each shard locked briefly in turn).
  LruCacheStats stats() const;

  size_t size() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard;

  Shard& ShardFor(const std::string& key);

  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Global obs mirrors (see the constructor); null when no prefix was given.
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* misses_metric_ = nullptr;
  obs::Counter* insertions_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
};

}  // namespace serve
}  // namespace dtt

#endif  // DTT_SERVE_LRU_CACHE_H_
