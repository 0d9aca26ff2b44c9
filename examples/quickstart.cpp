// Quickstart: compress a log block with LogGrep and run grep-like queries on
// the compressed representation.
//
//   $ ./quickstart
//
// Walks through the full public API: CompressBlock -> Query, with the stats
// that show the Capsule filtering at work.
#include <cstdio>
#include <string>

#include "src/core/engine.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

int main() {
  using namespace loggrep;

  // 1. Get some logs. In production these are 64 MB blocks written by the
  //    application; here we synthesize an HDFS-style block.
  const DatasetSpec* spec = FindDataset("Hdfs");
  const std::string raw = LogGenerator(*spec).Generate(256 * 1024);
  std::printf("raw block: %zu bytes\n", raw.size());

  // 2. Compress. The engine parses static patterns, extracts runtime
  //    patterns per variable vector, and packs stamped Capsules.
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(raw);
  std::printf("capsule box: %zu bytes (ratio %.2fx)\n\n", box.size(),
              static_cast<double>(raw.size()) / static_cast<double>(box.size()));

  // 3. Query without decompressing the block. Commands use grep-ish syntax:
  //    search strings joined by AND / OR / NOT, wildcards within a token.
  for (const std::string& command : {
           std::string("error and blk_884"),
           std::string("Received block and size"),
           std::string("exception NOT writeBlock"),
       }) {
    auto result = engine.Query(box, command);
    if (!result.ok()) {
      std::printf("query failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("query: %s\n  hits: %zu  capsules decompressed: %llu  "
                "filtered by stamps: %llu\n",
                command.c_str(), result->hits.size(),
                static_cast<unsigned long long>(
                    result->locator.capsules_decompressed),
                static_cast<unsigned long long>(
                    result->locator.capsules_stamp_filtered));
    // Hits carry the original line number and the byte-exact original text.
    for (size_t i = 0; i < result->hits.size() && i < 3; ++i) {
      std::printf("  line %6llu: %s\n",
                  static_cast<unsigned long long>(result->hits[i].first),
                  result->hits[i].second.c_str());
    }
    std::printf("\n");
  }
  return 0;
}
