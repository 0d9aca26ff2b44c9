#include "src/query/box_cache.h"

#include <algorithm>
#include <cstdio>

#include "src/capsule/capsule.h"  // SplitDelimitedBlob
#include "src/common/hash.h"
#include "src/common/trace.h"

namespace loggrep {
namespace {

// Fixed bookkeeping charge per entry: map node + LRU node + shared_ptr
// control block + the lazily materialized split vector's own header. The
// split payload (16 bytes per value) is intentionally approximated by this
// constant plus the blob bytes it views; DESIGN.md documents the tradeoff.
constexpr size_t kEntryOverhead = 128;

// Second, independent FNV seed for the dual-hash identity.
constexpr uint64_t kAltSeed = 0x84222325CBF29CE4ULL;

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

BoxKey BoxKey::FromBytes(std::string_view bytes) {
  BoxKey key;
  key.h1 = Fnv1a64(bytes);
  key.h2 = Fnv1a64(bytes, kAltSeed);
  key.size = bytes.size();
  return key;
}

BoxKey BoxKey::ForSequence(uint64_t namespace_id, uint64_t seq) {
  BoxKey key;
  key.h1 = Mix64(namespace_id);
  key.h2 = Mix64(seq ^ 0xA5A5A5A5A5A5A5A5ULL);
  // Sentinel size: serialized boxes are never this large, so sequence keys
  // can never equal a content key.
  key.size = UINT64_MAX;
  return key;
}

uint64_t BoxKey::NextNamespaceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string BoxKey::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx%016llx",
                static_cast<unsigned long long>(h1),
                static_cast<unsigned long long>(h2),
                static_cast<unsigned long long>(size));
  return buf;
}

Result<std::shared_ptr<const OpenedBox>> OpenedBox::Open(std::string bytes) {
  // Construct in place on the heap, then parse against the final resting
  // address of `bytes_` — the CapsuleBox keeps views into it.
  std::shared_ptr<OpenedBox> opened(new OpenedBox());
  opened->bytes_ = std::move(bytes);
  Result<CapsuleBox> box = CapsuleBox::Open(opened->bytes_);
  if (!box.ok()) {
    return box.status();
  }
  opened->box_ = std::move(*box);
  return std::shared_ptr<const OpenedBox>(std::move(opened));
}

const std::vector<std::string_view>& CachedCapsule::splits() const {
  std::call_once(split_once_,
                 [this] { splits_ = SplitDelimitedBlob(blob_); });
  return splits_;
}

size_t BoxCache::EntryKeyHash::operator()(const EntryKey& k) const {
  uint64_t h = Mix64(k.box.h1 ^ Mix64(k.box.h2));
  h = Mix64(h ^ k.box.size);
  h = Mix64(h ^ k.capsule);
  return static_cast<size_t>(h);
}

BoxCache::BoxCache(BoxCacheOptions options) : options_(options) {
  if (options_.shards == 0) {
    options_.shards = 1;
  }
  per_shard_budget_ = std::max<size_t>(1, options_.byte_budget / options_.shards);
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.metrics != nullptr) {
    m_hits_ = options_.metrics->GetOrCreate("query.box_cache.hits");
    m_misses_ = options_.metrics->GetOrCreate("query.box_cache.misses");
    m_evictions_ = options_.metrics->GetOrCreate("query.box_cache.evictions");
    m_bytes_saved_ =
        options_.metrics->GetOrCreate("query.box_cache.bytes_saved");
    m_bytes_hwm_ =
        options_.metrics->GetOrCreate("query.box_cache.bytes_in_use_hwm");
  }
}

BoxCache::Shard& BoxCache::ShardFor(const EntryKey& key) {
  return *shards_[EntryKeyHash{}(key) % shards_.size()];
}

void BoxCache::EvictOverBudgetLocked(Shard& shard) {
  // Never evict the freshest entry: one oversized capsule must still be
  // usable for the query that loaded it.
  while (shard.bytes > per_shard_budget_ && shard.lru.size() > 1) {
    const EntryKey victim = shard.lru.back();
    auto it = shard.map.find(victim);
    shard.bytes -= it->second.charge;
    bytes_in_use_.fetch_sub(it->second.charge, std::memory_order_relaxed);
    shard.map.erase(it);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (m_evictions_ != nullptr) {
      m_evictions_->Increment();
    }
  }
}

BoxCache::Entry BoxCache::InsertOrAdopt(const EntryKey& key, Entry entry) {
  if (options_.byte_budget == 0) {
    return entry;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Raced with another loader: adopt the resident entry, discard ours.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return it->second;
  }
  shard.lru.push_front(key);
  entry.lru_it = shard.lru.begin();
  shard.bytes += entry.charge;
  bytes_in_use_.fetch_add(entry.charge, std::memory_order_relaxed);
  auto inserted = shard.map.emplace(key, entry).first;
  EvictOverBudgetLocked(shard);
  if (m_bytes_hwm_ != nullptr) {
    m_bytes_hwm_->UpdateMax(bytes_in_use_.load(std::memory_order_relaxed));
  }
  return inserted->second;
}

Result<std::shared_ptr<const OpenedBox>> BoxCache::GetOrOpenBox(
    const BoxKey& key, const std::function<Result<std::string>()>& load,
    bool* was_hit) {
  const EntryKey ekey{key, UINT64_MAX};
  {
    Shard& shard = ShardFor(ekey);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(ekey);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      box_hits_.fetch_add(1, std::memory_order_relaxed);
      bytes_saved_.fetch_add(it->second.charge, std::memory_order_relaxed);
      if (m_hits_ != nullptr) {
        m_hits_->Increment();
      }
      if (m_bytes_saved_ != nullptr) {
        m_bytes_saved_->Add(it->second.charge);
      }
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return it->second.box;
    }
  }
  // Miss: load and open outside the lock.
  const TraceSpan span("box_cache.load_box", "query");
  Result<std::string> bytes = load();
  if (!bytes.ok()) {
    return bytes.status();
  }
  Result<std::shared_ptr<const OpenedBox>> opened =
      OpenedBox::Open(std::move(*bytes));
  if (!opened.ok()) {
    return opened.status();
  }
  Entry entry;
  entry.box = *opened;
  entry.charge = entry.box->bytes().size() + kEntryOverhead;
  Entry resident = InsertOrAdopt(ekey, std::move(entry));
  box_misses_.fetch_add(1, std::memory_order_relaxed);
  if (m_misses_ != nullptr) {
    m_misses_->Increment();
  }
  if (was_hit != nullptr) {
    *was_hit = false;
  }
  return resident.box;
}

Result<std::shared_ptr<const CachedCapsule>> BoxCache::GetOrLoadCapsule(
    const BoxKey& key, uint32_t capsule_id,
    const std::function<Result<std::string>()>& load, bool* was_hit) {
  const EntryKey ekey{key, capsule_id};
  {
    Shard& shard = ShardFor(ekey);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(ekey);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      capsule_hits_.fetch_add(1, std::memory_order_relaxed);
      bytes_saved_.fetch_add(it->second.capsule->blob().size(),
                             std::memory_order_relaxed);
      if (m_hits_ != nullptr) {
        m_hits_->Increment();
      }
      if (m_bytes_saved_ != nullptr) {
        m_bytes_saved_->Add(it->second.capsule->blob().size());
      }
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return it->second.capsule;
    }
  }
  const TraceSpan span("box_cache.load_capsule", "query", "capsule",
                       capsule_id);
  Result<std::string> blob = load();
  if (!blob.ok()) {
    return blob.status();
  }
  Entry entry;
  entry.capsule = std::make_shared<const CachedCapsule>(std::move(*blob));
  entry.charge = entry.capsule->blob().size() + kEntryOverhead;
  Entry resident = InsertOrAdopt(ekey, std::move(entry));
  capsule_misses_.fetch_add(1, std::memory_order_relaxed);
  if (m_misses_ != nullptr) {
    m_misses_->Increment();
  }
  if (was_hit != nullptr) {
    *was_hit = false;
  }
  return resident.capsule;
}

void BoxCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
    shard->lru.clear();
    bytes_in_use_.fetch_sub(shard->bytes, std::memory_order_relaxed);
    shard->bytes = 0;
  }
}

BoxCacheStats BoxCache::Stats() const {
  BoxCacheStats stats;
  stats.box_hits = box_hits_.load(std::memory_order_relaxed);
  stats.box_misses = box_misses_.load(std::memory_order_relaxed);
  stats.capsule_hits = capsule_hits_.load(std::memory_order_relaxed);
  stats.capsule_misses = capsule_misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.bytes_saved = bytes_saved_.load(std::memory_order_relaxed);
  stats.bytes_in_use = bytes_in_use_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->map.size();
  }
  return stats;
}

}  // namespace loggrep
