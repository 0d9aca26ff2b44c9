// Seeded inputs for the benchmark: a multi-dataset log corpus built from the
// program's "Log A".."Log U" generator specs, an id pool harvested from it,
// exact per-id line oracles, and seeded request sequences. The same seed
// always yields byte-identical text and the same request sequence; the
// dataset list and sizes are fixed, so only the random streams move with it.
#ifndef PERFBENCH_SRC_CORPUS_H_
#define PERFBENCH_SRC_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>


namespace perfbench {

// The production datasets every workload draws from (fixed across seeds).
const std::vector<std::string>& CorpusDatasets();

// About `bytes` of '\n'-terminated text of dataset `name`, made in 128 KiB
// segments whose generator seeds mix `seed`, the dataset name and the
// segment number.
std::string GenerateText(std::string_view dataset, uint64_t seed, size_t bytes);

// Lines of `text` without their terminators (views into `text`).
std::vector<std::string_view> SplitLines(std::string_view text);

// Distinct-looking identifiers (letters and digits, 8..40 bytes, in at most
// a few lines) harvested from a line set, with the exact line list of each:
// a line answers an id when one of its tokens contains the id, which is the
// program's keyword semantics (src/query/line_match.h).
class IdIndex {
 public:
  IdIndex() = default;
  // Picks up to `pool_size` ids spread evenly over the candidates in order
  // of first appearance.
  IdIndex(const std::vector<std::string_view>& lines, size_t pool_size);

  const std::vector<std::string>& pool() const { return pool_; }
  // Ascending indices into the constructor's `lines`.
  const std::vector<uint32_t>& LinesFor(size_t id) const { return lines_[id]; }

 private:
  std::vector<std::string> pool_;
  std::vector<std::vector<uint32_t>> lines_;
};

// Ascending indices of the `lines` a reference evaluation of `command`
// matches (src/query/line_match.h semantics, one line at a time).
std::vector<uint32_t> ReferenceLines(const std::vector<std::string_view>& lines,
                                     std::string_view command);

// Ascending union of two ascending index lists.
std::vector<uint32_t> UnionSorted(const std::vector<uint32_t>& a,
                                  const std::vector<uint32_t>& b);

// 64-bit FNV-1a, chained (for determinism digests).
uint64_t Fnv64(std::string_view bytes, uint64_t seed = 1469598103934665603ull);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CORPUS_H_
