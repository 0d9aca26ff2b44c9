// Query Cache (§3): memoizes past query results keyed by the command text
// (prefixed, at the engine layer, with a collision-resistant box identity).
// Especially effective in refining mode, where an engineer grows a command
// incrementally in one session (§6.3, "w/o cache").
//
// The cache is a byte-budgeted LRU: every entry is charged its key plus the
// rendered hit lines, and inserting past the budget evicts from the cold
// end. Insert is assign-or-insert: re-inserting a key replaces the stale
// value. Thread-safe: one archive engine serves concurrent queries, so every
// operation takes an internal mutex; entries are held by shared_ptr so a
// lookup copies the hits outside the lock.
#ifndef SRC_QUERY_QUERY_CACHE_H_
#define SRC_QUERY_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace loggrep {

// One query hit: (global line number, reconstructed line text). Line numbers
// are 64-bit end-to-end: an archive past ~4 billion lines must not silently
// wrap its global line numbers.
using QueryHits = std::vector<std::pair<uint64_t, std::string>>;

// A memoized query result. It carries no cost snapshot: a replay does no
// decode work, so it must not report any.
struct CachedQuery {
  QueryHits hits;
};

class QueryCache {
 public:
  static constexpr size_t kDefaultByteBudget = 64ull << 20;

  explicit QueryCache(size_t byte_budget = kDefaultByteBudget)
      : byte_budget_(byte_budget) {}

  // Returns a copy of the entry and promotes it to most-recently-used.
  std::optional<CachedQuery> Lookup(const std::string& command);

  // Assign-or-insert (an existing key is replaced, never silently kept),
  // then evicts LRU entries until back under the byte budget.
  void Insert(const std::string& command, QueryHits hits);

  void Clear();

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  size_t size() const;
  size_t bytes_in_use() const;
  size_t byte_budget() const { return byte_budget_; }

 private:
  using Entry = std::shared_ptr<const CachedQuery>;
  using LruList = std::list<std::pair<std::string, Entry>>;

  static size_t Charge(const std::string& command, const CachedQuery& value);
  // Caller holds mu_.
  void EvictOverBudget();

  const size_t byte_budget_;
  mutable std::mutex mu_;  // guards everything below
  size_t bytes_ = 0;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace loggrep

#endif  // SRC_QUERY_QUERY_CACHE_H_
