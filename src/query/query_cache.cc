#include "src/query/query_cache.h"

namespace loggrep {

size_t QueryCache::Charge(const std::string& command,
                          const CachedQuery& value) {
  // Key + per-hit payload + container bookkeeping. kPerHit covers the pair,
  // the string header and heap slack; kPerEntry covers the LRU node, the
  // index node and the shared entry.
  constexpr size_t kPerHit = 48;
  constexpr size_t kPerEntry = 160;
  size_t bytes = command.size() + kPerEntry;
  for (const auto& [line, text] : value.hits) {
    (void)line;
    bytes += text.size() + kPerHit;
  }
  return bytes;
}

std::optional<CachedQuery> QueryCache::Lookup(const std::string& command) {
  Entry entry;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(command);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    entry = it->second->second;
  }
  return *entry;  // the copy runs outside the lock
}

void QueryCache::Insert(const std::string& command, QueryHits hits) {
  auto value = std::make_shared<const CachedQuery>(CachedQuery{std::move(hits)});
  const size_t charge = Charge(command, *value);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(command);
  if (it != index_.end()) {
    // Assign-or-insert: never keep a stale value under a live key.
    bytes_ -= Charge(command, *it->second->second);
    it->second->second = std::move(value);
    bytes_ += charge;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.emplace_front(command, std::move(value));
    index_.emplace(command, lru_.begin());
    bytes_ += charge;
  }
  EvictOverBudget();
}

void QueryCache::EvictOverBudget() {
  // The freshest entry always survives, even when alone over budget: a
  // single huge result set should still memoize its own replay.
  while (bytes_ > byte_budget_ && lru_.size() > 1) {
    const auto& [command, value] = lru_.back();
    bytes_ -= Charge(command, *value);
    index_.erase(command);
    lru_.pop_back();
    ++evictions_;
  }
}

void QueryCache::Clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

uint64_t QueryCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t QueryCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t QueryCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t QueryCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

size_t QueryCache::bytes_in_use() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace loggrep
