// BoxCache: a sharded, byte-budgeted LRU cache shared across queries (and
// across parallel Query workers) on the warm query path.
//
// The paper's economics (§5–§6) hinge on touching as few decompressed bytes
// as possible per query. The cold path already decompresses only the Capsules
// that survive stamp filtering; this cache makes the *warm* path cheaper
// still by keeping, across Query() calls:
//
//   (a) opened CapsuleBoxes — the raw box file bytes plus the parsed
//       metadata view — keyed by a BoxKey (block identity), so a repeated or
//       refined query skips both the file read and the metadata parse, and
//   (b) decompressed Capsule blobs (plus their lazily computed delimited
//       splits) keyed by (BoxKey, capsule id), so matching and reconstruction
//       never decompress the same Capsule twice.
//
// Entries are handed out as shared_ptr<const ...>: a querier pins what it
// uses, so eviction can never invalidate live string_views. The cache is
// sharded (hash of the key picks the shard; each shard has its own mutex,
// LRU list and slice of the byte budget) so parallel Query workers contend
// only when they touch the same shard. Accounting is strict: every entry is
// charged its payload bytes plus a fixed bookkeeping overhead, and a shard
// evicts from the cold end until it is back under budget. Loaders run
// *outside* the shard lock; two racing misses both load and the loser adopts
// the winner's entry.
//
// Observability: hit/miss/eviction counters and bytes-saved are kept as
// atomics and mirrored into an optional MetricsRegistry
// ("query.box_cache.*" counters) so the ingest-side registry of PR 1 covers
// the query side too.
#ifndef SRC_QUERY_BOX_CACHE_H_
#define SRC_QUERY_BOX_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/capsule/capsule_box.h"
#include "src/common/metrics.h"
#include "src/common/result.h"

namespace loggrep {

// Collision-resistant identity of one CapsuleBox. Content-derived keys carry
// two independent 64-bit hashes *and* the byte size (a 64-bit FNV alone can
// collide between two different blocks and serve the wrong block's hits);
// sequence-derived keys (archive blocks, which are immutable once committed)
// carry an archive-unique namespace plus the block seq and use a sentinel
// size no real box can have, so the two key families never overlap.
struct BoxKey {
  uint64_t h1 = 0;
  uint64_t h2 = 0;
  uint64_t size = 0;

  // Identity from the serialized box bytes (two FNV-1a passes with
  // independent seeds + length).
  static BoxKey FromBytes(std::string_view bytes);

  // Identity of block `seq` within the archive namespace `namespace_id`
  // (obtain one per archive instance from NextNamespaceId()).
  static BoxKey ForSequence(uint64_t namespace_id, uint64_t seq);

  // Process-unique namespace ids for ForSequence.
  static uint64_t NextNamespaceId();

  // Stable printable form, usable as a collision-safe cache-key prefix.
  std::string ToString() const;

  bool operator==(const BoxKey& other) const {
    return h1 == other.h1 && h2 == other.h2 && size == other.size;
  }
};

// An opened CapsuleBox pinned together with the bytes it borrows from.
// Never moved after construction, so the CapsuleBox's internal views into
// `bytes_` stay valid for the object's lifetime.
class OpenedBox {
 public:
  // Takes ownership of the serialized box bytes and parses them.
  static Result<std::shared_ptr<const OpenedBox>> Open(std::string bytes);

  const std::string& bytes() const { return bytes_; }
  const CapsuleBox& box() const { return box_; }

 private:
  OpenedBox() = default;

  std::string bytes_;
  CapsuleBox box_;
};

// One decompressed Capsule blob. The delimited splits are computed lazily
// (padded-layout capsules never need them) and at most once, thread-safely.
class CachedCapsule {
 public:
  explicit CachedCapsule(std::string blob) : blob_(std::move(blob)) {}

  const std::string& blob() const { return blob_; }
  // Views into blob(); valid for this object's lifetime.
  const std::vector<std::string_view>& splits() const;

 private:
  std::string blob_;
  mutable std::once_flag split_once_;
  mutable std::vector<std::string_view> splits_;
};

struct BoxCacheOptions {
  // Total decompressed/opened bytes the cache may hold, split evenly across
  // shards. One oversized entry is still admitted (it becomes the shard's
  // only resident) so a huge capsule cannot starve the query touching it.
  size_t byte_budget = 256ull << 20;
  size_t shards = 8;
  // Optional registry for "query.box_cache.*" counters.
  MetricsRegistry* metrics = nullptr;
};

struct BoxCacheStats {
  uint64_t box_hits = 0;
  uint64_t box_misses = 0;
  uint64_t capsule_hits = 0;
  uint64_t capsule_misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes_saved = 0;    // decompressed/opened bytes served warm
  uint64_t bytes_in_use = 0;   // current charged bytes across shards
  uint64_t entries = 0;
};

class BoxCache {
 public:
  explicit BoxCache(BoxCacheOptions options = {});
  BoxCache(const BoxCache&) = delete;
  BoxCache& operator=(const BoxCache&) = delete;

  // Returns the opened box for `key`, invoking `load` (which must return the
  // serialized box bytes) only on a miss. `was_hit`, when non-null, reports
  // whether the entry was served warm.
  Result<std::shared_ptr<const OpenedBox>> GetOrOpenBox(
      const BoxKey& key, const std::function<Result<std::string>()>& load,
      bool* was_hit = nullptr);

  // Returns the decompressed capsule `(key, capsule_id)`, invoking `load`
  // (which must return the decompressed blob) only on a miss.
  Result<std::shared_ptr<const CachedCapsule>> GetOrLoadCapsule(
      const BoxKey& key, uint32_t capsule_id,
      const std::function<Result<std::string>()>& load,
      bool* was_hit = nullptr);

  // Drops every entry (pinned shared_ptrs stay valid).
  void Clear();

  BoxCacheStats Stats() const;
  size_t byte_budget() const { return options_.byte_budget; }

 private:
  struct EntryKey {
    BoxKey box;
    // kNoCapsule-style sentinel: UINT64_MAX marks the opened-box entry;
    // anything else is a capsule id.
    uint64_t capsule = UINT64_MAX;

    bool operator==(const EntryKey& other) const {
      return capsule == other.capsule && box == other.box;
    }
  };
  struct EntryKeyHash {
    size_t operator()(const EntryKey& k) const;
  };
  struct Entry {
    std::shared_ptr<const OpenedBox> box;
    std::shared_ptr<const CachedCapsule> capsule;
    size_t charge = 0;
    std::list<EntryKey>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<EntryKey, Entry, EntryKeyHash> map;
    std::list<EntryKey> lru;  // front = most recently used
    size_t bytes = 0;
  };

  Shard& ShardFor(const EntryKey& key);
  // Inserts `entry` under `key` unless present; returns the resident entry
  // (the existing one on a race). Caller holds no lock.
  Entry InsertOrAdopt(const EntryKey& key, Entry entry, bool* adopted);
  void EvictOverBudgetLocked(Shard& shard);

  BoxCacheOptions options_;
  size_t per_shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> box_hits_{0};
  std::atomic<uint64_t> box_misses_{0};
  std::atomic<uint64_t> capsule_hits_{0};
  std::atomic<uint64_t> capsule_misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bytes_saved_{0};

  // Resolved once; null when no registry was supplied.
  Counter* m_hits_ = nullptr;
  Counter* m_misses_ = nullptr;
  Counter* m_evictions_ = nullptr;
  Counter* m_bytes_saved_ = nullptr;
  Counter* m_bytes_hwm_ = nullptr;
};

}  // namespace loggrep

#endif  // SRC_QUERY_BOX_CACHE_H_
