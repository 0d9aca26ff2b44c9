// LogGrepEngine: the library's public API (the whole pipeline of Fig. 2).
//
// Compression: Parser (static patterns) -> Extractor (runtime patterns) ->
// Assembler (Capsules + stamps) -> Packer (CapsuleBox). Query: Locator
// (pattern + stamp filtering, fixed-length matching) -> Reconstructor, with
// two caches in front:
//   - a command-level QueryCache (§3) memoizing whole results per
//     (box identity, command), and
//   - a BoxCache holding opened boxes and decompressed Capsules so warm
//     queries skip file reads, metadata parses and decompression. Every
//     query opens its box and decodes its Capsules through it; a zero
//     budget keeps nothing, so each query reads and decodes afresh.
// Box identity is a BoxKey (two independent 64-bit hashes + size, or an
// archive-assigned sequence key), so a hash collision between two different
// blocks can no longer serve the wrong block's hits.
//
// EngineOptions exposes one switch per technique so the §6.3 ablation
// versions ("w/o real", "w/o nomi", "w/o stamp", "w/o fixed", "w/o cache")
// and LogGrep-SP (§2.2) are configurations of the same engine.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/capsule/assembler.h"
#include "src/codec/codec.h"
#include "src/common/metrics.h"
#include "src/parser/block_parser.h"
#include "src/query/box_cache.h"
#include "src/query/locator.h"
#include "src/query/query_cache.h"

namespace loggrep {

struct EngineOptions {
  bool use_real = true;     // runtime patterns in real variable vectors
  bool use_nominal = true;  // runtime patterns in nominal variable vectors
  bool use_stamps = true;   // Capsule-stamp filtering during queries
  bool use_fixed = true;    // fixed-length padding + Boyer-Moore matching
  bool use_cache = true;    // command-level query cache
  bool static_only = false; // LogGrep-SP: static patterns only

  // Byte budget of the engine's box/capsule cache. 0 keeps nothing.
  size_t box_cache_budget_bytes = 256ull << 20;

  // Optional registry for query-side counters ("query.*",
  // "query.box_cache.*"). Borrowed; must outlive the engine.
  MetricsRegistry* metrics = nullptr;

  const Codec* codec = nullptr;  // defaults to the LZMA stand-in (XzCodec)
  TemplateMinerOptions miner;
  TreeExtractorOptions tree;
};

struct QueryResult {
  QueryHits hits;        // (line number, original text), in block order
  // Cost of this execution. A command-cache hit did no decode work, so its
  // stats are all zero (from_cache says why).
  LocatorStats locator;
  bool from_cache = false;
};

class LogGrepEngine {
 public:
  // Produces the serialized CapsuleBox bytes for `key` on a cache miss.
  using BoxLoader = std::function<Result<std::string>()>;

  explicit LogGrepEngine(EngineOptions options = {});

  // Compresses one log block into serialized CapsuleBox bytes.
  std::string CompressBlock(std::string_view text) const;

  // Runs a grep-like query command against a CapsuleBox: QueryBox with a
  // content-derived identity (BoxKey::FromBytes) and a loader that copies
  // `box_bytes` on a box-cache miss. A non-null `explain` records the
  // per-variable-vector, per-Capsule decision tree (src/query/explain.h);
  // explained executions bypass the command-level QueryCache in both
  // directions, since the record must describe a real execution.
  Result<QueryResult> Query(std::string_view box_bytes,
                            std::string_view command,
                            BlockExplain* explain = nullptr);

  // Same, but with an externally assigned identity and a lazy loader: on a
  // warm box-cache entry the loader is never invoked, so callers that read
  // box bytes from disk (LogArchive) skip the file read entirely.
  Result<QueryResult> QueryBox(const BoxKey& key, const BoxLoader& load,
                               std::string_view command,
                               BlockExplain* explain = nullptr);

  // Thread-safety: the query entry points may run concurrently (the command
  // cache and the BoxCache are both synchronized); CompressBlock is const.

  const EngineOptions& options() const { return options_; }
  const QueryCache& cache() const { return cache_; }
  // The engine's box/capsule cache; never null.
  BoxCache* box_cache() const { return box_cache_.get(); }
  // Clears the command-level cache (sessions call this on Reset so a reset
  // can never serve pre-reset hits). The box cache keeps its entries: they
  // are identity-keyed bytes, not query answers.
  void ClearCache() { cache_.Clear(); }

 private:
  EngineOptions options_;
  QueryCache cache_;
  // Heap-held so its address (handed to queriers) survives engine moves.
  std::unique_ptr<BoxCache> box_cache_;
};

}  // namespace loggrep

#endif  // SRC_CORE_ENGINE_H_
